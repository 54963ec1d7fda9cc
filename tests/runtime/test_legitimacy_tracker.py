"""The incremental legitimacy tracker against the global predicates it replaces.

``Scheduler.legitimate(layer)`` answers from a
:class:`~repro.runtime.legitimacy.LegitimacyTracker` (per-node conjuncts
re-checked around journaled changes, plus a cached global residue), fed by
the same journal drain that marks the scheduler's guards stale.  These
tests hold it to ``layer.legitimate(network, configuration)`` after every
step and every out-of-band mutation, and pin down the locality contract the
tracker rests on: a node's conjunct reads only its closed neighborhood and
only the variables its layer declares in ``legitimacy_reads``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.api import NetworkSpec, RunSpec, run
from repro.api.engines import build_protocol
from repro.core.specification import VAR_EDGE_LABELS
from repro.core.stno import STNO
from repro.graphs import generators
from repro.obs import Instrumentation, PHASE_LEGITIMACY, summary_counter
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import make_daemon
from repro.runtime.faults import corrupt_configuration
from repro.runtime.legitimacy import LegitimacyTracker
from repro.runtime.scheduler import Scheduler
from repro.scenarios.events import LinkChange
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.substrates.pif import PIFWave
from repro.substrates.spanning_tree import BFSSpanningTree, DFSSpanningTree
from repro.substrates.token_circulation import DepthFirstTokenCirculation
from tests.runtime.test_read_declarations import _fresh_scan, _settled_dftno

STACKS = ("dftno", "stno-bfs", "stno-dfs")
DAEMONS = ("central", "distributed", "synchronous", "adversarial")
FAMILIES = ("random_connected", "random_tree", "grid")


def _substrate(protocol):
    """The layer the harness times first: the token layer or the STNO tree."""
    for layer in protocol.layers():
        if isinstance(layer, STNO):
            return layer.tree_layer
    return protocol.base


def _predicates(protocol):
    """Everything the tracker answers for: the stack, its substrate, each layer."""
    return (protocol, _substrate(protocol), *protocol.layers())


def _assert_agrees(scheduler, predicates) -> bool:
    network, configuration = scheduler.network, scheduler.configuration
    for layer in predicates:
        expected = layer.legitimate(network, configuration)
        assert scheduler.legitimate(layer) == expected, (layer.name, scheduler.steps_executed)
    whole = scheduler.protocol.legitimate(network, configuration)
    assert scheduler.legitimate() == whole
    return whole


def _steps(scheduler, predicates, count: int, seen: set[bool]) -> None:
    for _ in range(count):
        if scheduler.step() is None:
            break
        seen.add(_assert_agrees(scheduler, predicates))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("stack", STACKS)
def test_tracker_matches_the_global_predicates_after_every_step(stack, daemon, family):
    network = generators.family(family, 9, seed=4)
    protocol = build_protocol(stack)
    rng = random.Random(11)
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=5)
    predicates = _predicates(protocol)
    seen = {_assert_agrees(scheduler, predicates)}

    scheduler.run_until_legitimate(max_steps=3_000)
    seen.add(_assert_agrees(scheduler, predicates))
    _steps(scheduler, predicates, 40, seen)

    scheduler.set_configuration(
        corrupt_configuration(
            scheduler.configuration, protocol, network, node_fraction=0.3, rng=rng
        )
    )
    seen.add(_assert_agrees(scheduler, predicates))
    _steps(scheduler, predicates, 60, seen)

    victim = rng.randrange(1, network.n)
    scheduler.freeze((victim,))
    _steps(scheduler, predicates, 10, seen)
    scheduler.unfreeze((victim,))
    scheduler.replace_node(victim, protocol.random_state(network, victim, rng))
    seen.add(_assert_agrees(scheduler, predicates))
    _steps(scheduler, predicates, 60, seen)

    LinkChange(mode="add").apply(scheduler, rng)
    assert scheduler.network is not network
    seen.add(_assert_agrees(scheduler, predicates))
    _steps(scheduler, predicates, 400, seen)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "protocol, family",
    [
        (DepthFirstTokenCirculation(), "random_connected"),
        (BFSSpanningTree(), "random_connected"),
        (DFSSpanningTree(), "grid"),
        (DijkstraTokenRing(), "ring"),
        (PIFWave(), "random_tree"),
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_standalone_substrates_agree_including_the_residue_fallback(protocol, family):
    network = generators.family(family, 8, seed=2)
    rng = random.Random(3)
    scheduler = Scheduler(network, protocol, daemon=make_daemon("distributed"), seed=6)
    predicates = (protocol, *protocol.layers())
    seen = {_assert_agrees(scheduler, predicates)}
    _steps(scheduler, predicates, 150, seen)
    scheduler.set_configuration(
        corrupt_configuration(scheduler.configuration, protocol, network, rng=rng)
    )
    seen.add(_assert_agrees(scheduler, predicates))
    _steps(scheduler, predicates, 150, seen)
    assert True in seen


def test_fullscan_scheduler_evaluates_the_global_predicate():
    network = generators.random_connected(8, seed=1)
    scheduler = Scheduler(network, build_protocol("dftno"), seed=2, incremental=False)
    scheduler.run_until_legitimate(max_steps=3_000)
    assert scheduler.legitimate()
    assert scheduler._legitimacy is None


def test_tracker_moves_to_a_replaced_configuration_object():
    network = generators.random_connected(8, seed=1)
    protocol = build_protocol("dftno")
    scheduler = Scheduler(network, protocol, seed=2)
    scheduler.run_until_legitimate(max_steps=3_000)
    assert scheduler.legitimate()
    old = scheduler.configuration
    old_tracker = scheduler._legitimacy
    scheduler.set_configuration(protocol.random_configuration(network, seed=9))
    assert scheduler.legitimate() == protocol.legitimate(network, scheduler.configuration)
    assert scheduler._legitimacy is not old_tracker
    assert scheduler._legitimacy.configuration is scheduler.configuration
    # Writes to the replaced object reach neither the tracker nor the guards.
    for node in network.nodes():
        old.replace_node(node, {})
    assert scheduler.legitimate() == protocol.legitimate(network, scheduler.configuration)
    assert scheduler.enabled_actions() == _fresh_scan(scheduler)


@pytest.mark.parametrize("incremental", (True, False), ids=("scheduler", "fullscan"))
@pytest.mark.parametrize(
    "layer",
    (DepthFirstTokenCirculation(), BFSSpanningTree()),
    ids=lambda layer: layer.name,
)
def test_unknown_layer_is_rejected(layer, incremental):
    network = generators.random_connected(8, seed=1)
    scheduler = Scheduler(network, build_protocol("dftno"), seed=2, incremental=incremental)
    with pytest.raises(ValueError, match="not part of the scheduled protocol"):
        scheduler.legitimate(layer)
    # The stack's own layers, and compositions of them, are still accepted.
    for known in (scheduler.protocol, *scheduler.protocol.layers()):
        scheduler.legitimate(known)


# ----------------------------------------------------------------------
# One journal drain feeds the guard stale bits and the tracker
# ----------------------------------------------------------------------
def test_a_write_drained_by_the_guard_refresh_still_reaches_the_tracker():
    scheduler = _settled_dftno()
    network, configuration = scheduler.network, scheduler.configuration
    node = next(node for node in network.nodes() if node != network.root)
    configuration.set(node, VAR_EDGE_LABELS, {})
    # The refresh drains the journal before any legitimacy query does.
    assert scheduler.enabled_actions() == _fresh_scan(scheduler)
    assert configuration.drain_dirty() == {}
    expected = scheduler.protocol.legitimate(network, configuration)
    assert expected is False
    assert scheduler.legitimate() == expected


def test_a_query_between_replacement_and_rescan_keeps_both_consumers_fed():
    scheduler = _settled_dftno()
    network = scheduler.network
    predicates = _predicates(scheduler.protocol)
    scheduler.set_configuration(scheduler.configuration.copy())
    # The tracker is rebuilt here, while the full guard rescan is pending.
    assert _assert_agrees(scheduler, predicates)
    node = next(node for node in network.nodes() if node != network.root)
    scheduler.configuration.set(node, VAR_EDGE_LABELS, {})
    # The rescan drains the write; the tracker must still see it.
    assert scheduler.enabled_actions() == _fresh_scan(scheduler)
    assert not _assert_agrees(scheduler, predicates)
    assert scheduler.step() is not None
    _assert_agrees(scheduler, predicates)
    seen: set[bool] = set()
    _steps(scheduler, predicates, 30, seen)


def test_a_legitimacy_query_never_walks_guards():
    scheduler = _settled_dftno()
    network = scheduler.network

    def guard_counters():
        counters = scheduler.instrumentation.summary()["counters"]
        return counters["guards_evaluated"], counters["guard_calls"]

    for _ in range(5):
        assert scheduler.step() is not None
        before = guard_counters()
        scheduler.legitimate()
        scheduler.legitimate(_substrate(scheduler.protocol))
        assert guard_counters() == before
    # Also when the query drains an out-of-band write next to a guard.
    scheduler.configuration.set(network.root, VAR_EDGE_LABELS, {})
    before = guard_counters()
    assert not scheduler.legitimate()
    assert guard_counters() == before
    assert scheduler.enabled_actions() == _fresh_scan(scheduler)


# ----------------------------------------------------------------------
# Locality: what a conjunct and a residue may read
# ----------------------------------------------------------------------
class ReadLog(Configuration):
    """A configuration that records every ``(node, variable)`` read."""

    def __init__(self, states) -> None:
        super().__init__(states)
        self.reads: list[tuple[int, str]] = []

    def get(self, node, variable):
        self.reads.append((node, variable))
        return super().get(node, variable)


def _configurations(protocol, network):
    """Arbitrary, fault-corrupted and legitimate configurations of ``protocol``."""
    rng = random.Random(7)
    scheduler = Scheduler(network, protocol, seed=8)
    scheduler.run_until_legitimate(max_steps=5_000)
    legitimate = scheduler.configuration
    assert protocol.legitimate(network, legitimate)
    return [
        protocol.random_configuration(network, rng=rng),
        protocol.random_configuration(network, rng=rng),
        corrupt_configuration(legitimate, protocol, network, node_fraction=0.25, rng=rng),
        legitimate,
    ]


@pytest.mark.parametrize("stack", STACKS)
def test_conjuncts_read_only_the_closed_neighborhood_and_declared_variables(stack):
    network = generators.random_connected(10, extra_edge_probability=0.3, seed=5)
    protocol = build_protocol(stack)
    for configuration in _configurations(protocol, network):
        logged = ReadLog(configuration.to_dict())
        for layer in protocol.layers():
            declared = layer.legitimacy_reads
            assert declared is not None, layer.name
            for node in network.nodes():
                for per_node in (layer.node_legitimate, layer.node_tally):
                    logged.reads.clear()
                    per_node(network, logged, node)
                    allowed = network.neighbor_set(node) | {node}
                    assert {source for source, _ in logged.reads} <= allowed, (layer.name, node)
                    own = {name for source, name in logged.reads if source == node}
                    neighbor = {name for source, name in logged.reads if source != node}
                    assert own <= declared.own, (layer.name, node)
                    assert neighbor <= declared.neighbor, (layer.name, node)
            logged.reads.clear()
            layer.legitimacy_residue(network, logged)
            read = {name for _, name in logged.reads}
            assert read <= declared.own | declared.neighbor, layer.name


# ----------------------------------------------------------------------
# The token layer's residue from tallies
# ----------------------------------------------------------------------
def _assert_tallies_match(tracker: LegitimacyTracker) -> int:
    """Every tallying layer's residue from totals equals the scanned residue."""
    compared = 0
    network, configuration = tracker.network, tracker.configuration
    for slot, layer in enumerate(tracker._layers):
        if layer.residue_tally:
            totals = tuple(tracker._totals[slot])
            scanned = [layer.node_tally(network, configuration, node) for node in network.nodes()]
            assert list(totals) == [sum(column) for column in zip(*scanned)], layer.name
            assert layer.residue_from_tally(network, configuration, totals) == (
                layer.legitimacy_residue(network, configuration)
            ), layer.name
            compared += 1
    return compared


@pytest.mark.parametrize("stack", STACKS)
def test_tallied_residue_equals_the_scanned_residue_on_every_configuration(stack):
    network = generators.random_connected(10, extra_edge_probability=0.3, seed=5)
    protocol = build_protocol(stack)
    for configuration in _configurations(protocol, network):
        tracker = LegitimacyTracker(network, protocol, configuration)
        compared = _assert_tallies_match(tracker)
        assert compared == (0 if stack == "stno-bfs" else 1)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("stack", ("dftno", "stno-dfs"))
def test_tallies_follow_every_step_and_mutation(stack, daemon):
    network = generators.random_connected(9, seed=4)
    protocol = build_protocol(stack)
    rng = random.Random(12)
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=5)
    for _ in range(3):
        for _ in range(80):
            scheduler.legitimate()
            _assert_tallies_match(scheduler._legitimacy)
            if scheduler.step() is None:
                break
        victim = rng.randrange(network.n)
        scheduler.replace_node(victim, protocol.random_state(network, victim, rng))
        scheduler.configuration.set(rng.randrange(network.n), "tc_st", "active")
        scheduler.legitimate()
        _assert_tallies_match(scheduler._legitimacy)


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def test_dftno_run_reports_the_legitimacy_phase_and_nodes_checked():
    spec = RunSpec(network=NetworkSpec(family="random_connected", size=10, seed=1), seed=2)
    instrumented = run(spec, instrumentation=Instrumentation())
    perf = instrumented.perf
    assert perf["phases"][PHASE_LEGITIMACY]["count"] > 0
    assert perf["phases"][PHASE_LEGITIMACY]["seconds"] > 0.0
    # The first query checks every node of both DFTNO layers.
    assert summary_counter(perf, "legitimacy_nodes_checked") >= 2 * 10
    plain = run(spec)
    assert plain.perf is None
    assert {key: value for key, value in instrumented.row.items() if key != "perf"} == plain.row


def test_uninstrumented_tracker_records_nothing():
    network = generators.random_connected(8, seed=1)
    scheduler = Scheduler(network, build_protocol("dftno"), seed=2)
    scheduler.run_until_legitimate(max_steps=3_000)
    assert isinstance(scheduler._legitimacy, LegitimacyTracker)
    assert scheduler.instrumentation.summary() == {}


def test_disabled_instrumentation_overhead_contract_still_holds():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
    try:
        import bench_scheduler_core as bench
    finally:
        sys.path.pop(0)
    measure = bench.measure_instrumentation(50)
    assert measure["disabled_overhead"] <= bench.MAX_DISABLED_OVERHEAD
    # The legitimacy phase runs between steps: step-phase coverage stays <= 1.
    assert measure["phase_coverage"] <= 1.001
