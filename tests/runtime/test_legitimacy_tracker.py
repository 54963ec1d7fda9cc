"""Incremental legitimacy against the global predicates it answers for.

``Scheduler.legitimate(layer)`` answers from per-layer violation sets: the
layers' violation rules are walked like guards, on the same cached part
bits the same journal drain marks stale, plus a cached global residue.
These tests hold it to ``layer.legitimate(network, configuration)`` after
every step and every out-of-band mutation, pin down the locality contract
it rests on -- a rule part reads only its closed neighborhood and only what
it declares, a residue only what its layer's rules read -- and check that
the token layer's rules imply the residue they replaced.
"""

from __future__ import annotations

import itertools
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
from repro.runtime.processor import GuardView
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler
from repro.scenarios.events import LinkChange
from repro.substrates import token_circulation as tc
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
    """Everything the scheduler answers for: the stack, its substrate, each layer."""
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


@pytest.mark.parametrize("stack", STACKS)
def test_fullscan_scheduler_drains_its_journal(stack):
    network = generators.random_connected(40, seed=1)
    protocol = build_protocol(stack)
    scheduler = ReferenceScheduler(network, protocol, seed=2)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    assert result.converged and result.steps > 0
    assert scheduler.configuration.drain_dirty() == {}
    scheduler.configuration.set(network.root, VAR_EDGE_LABELS, {})
    assert not scheduler.legitimate()
    assert scheduler.configuration.drain_dirty() == {}


def test_tracker_moves_to_a_replaced_configuration_object():
    network = generators.random_connected(8, seed=1)
    protocol = build_protocol("dftno")
    scheduler = Scheduler(network, protocol, seed=2)
    scheduler.run_until_legitimate(max_steps=3_000)
    assert scheduler.legitimate()
    old = scheduler.configuration
    scheduler.set_configuration(protocol.random_configuration(network, seed=9))
    assert all(view._configuration is scheduler.configuration for view in scheduler._views)
    assert scheduler.legitimate() == protocol.legitimate(network, scheduler.configuration)
    # Writes to the replaced object reach neither the rules nor the guards.
    for node in network.nodes():
        old.replace_node(node, {})
    assert scheduler.legitimate() == protocol.legitimate(network, scheduler.configuration)
    assert scheduler.enabled_actions() == _fresh_scan(scheduler)


@pytest.mark.parametrize("core", (Scheduler, ReferenceScheduler), ids=("scheduler", "fullscan"))
@pytest.mark.parametrize(
    "layer",
    (DepthFirstTokenCirculation(), BFSSpanningTree()),
    ids=lambda layer: layer.name,
)
def test_unknown_layer_is_rejected(layer, core):
    network = generators.random_connected(8, seed=1)
    scheduler = core(network, build_protocol("dftno"), seed=2)
    with pytest.raises(ValueError, match="not part of the scheduled protocol"):
        scheduler.legitimate(layer)
    # The stack's own layers, and compositions of them, are still accepted.
    for known in (scheduler.protocol, *scheduler.protocol.layers()):
        scheduler.legitimate(known)


@pytest.mark.parametrize("stack", STACKS)
def test_distance_agrees_across_cores_after_every_step(stack):
    network = generators.random_connected(9, seed=4)
    protocol = build_protocol(stack)
    rng = random.Random(13)
    cores = [core(network, protocol, seed=5) for core in (Scheduler, ReferenceScheduler)]
    distances = []
    for step in range(300):
        if step == 150:
            corrupted = corrupt_configuration(
                cores[0].configuration, protocol, network, node_fraction=0.3, rng=rng
            )
            for scheduler in cores:
                scheduler.set_configuration(corrupted)
        distance = {scheduler.legitimacy_distance() for scheduler in cores}
        assert len(distance) == 1, step
        (value,) = distance
        assert (value == 0) == cores[1].legitimate()
        distances.append(value)
        for scheduler in cores:
            scheduler.step()
    assert distances[0] > 0 and 0 in distances


# ----------------------------------------------------------------------
# One journal drain stales guard and rule parts alike
# ----------------------------------------------------------------------
def test_a_write_drained_by_the_guard_refresh_still_reaches_the_rules():
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
    # Every rule is walked here, while the full guard rescan is pending.
    assert _assert_agrees(scheduler, predicates)
    node = next(node for node in network.nodes() if node != network.root)
    scheduler.configuration.set(node, VAR_EDGE_LABELS, {})
    # The rescan drains the write; the rules must still see it.
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
# Locality: what a rule part and a residue may read
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
def test_residues_read_only_what_their_rules_declare(stack):
    # Rule parts are held to their declarations at run time (RL004/RL008,
    # see test_read_declarations); a residue is held here to the union of
    # its layer's rule reads, which is what drops its cached verdict.
    network = generators.random_connected(10, extra_edge_probability=0.3, seed=5)
    protocol = build_protocol(stack)
    for configuration in _configurations(protocol, network):
        for layer in protocol.layers():
            declared = {
                reads
                for node in network.nodes()
                for rule in layer.violation_rules(network, node)
                for _, reads in rule.guard_parts
            }
            assert declared and None not in declared, layer.name
            allowed = set().union(*(reads.own | reads.neighbor_reads for reads in declared))
            logged = ReadLog(configuration.to_dict())
            layer.legitimacy_residue(network, logged)
            assert {name for _, name in logged.reads} <= allowed, layer.name


# ----------------------------------------------------------------------
# The token layer's rules imply the residue they replaced
# ----------------------------------------------------------------------
def _token_states(network, node):
    """Every state of ``node``'s token-layer variables."""
    pointers = (None, *network.neighbors(node))
    return [
        {
            tc.VAR_STATE: state,
            tc.VAR_WAVE: wave,
            tc.VAR_PARENT: parent,
            tc.VAR_CHILD: child,
            tc.VAR_LEVEL: level,
        }
        for state, wave, parent, child, level in itertools.product(
            (tc.WAIT, tc.ACTIVE), (0, 1), pointers, pointers, range(network.n)
        )
    ]


def _own_only(rule) -> bool:
    return all(reads is not None and not reads.neighbor_reads for _, reads in rule.guard_parts)


@pytest.mark.parametrize(
    "network, configurations, legitimate",
    [(generators.path(3), 248_832, 10_466), (generators.ring(3), 1_259_712, 35_428)],
    ids=("path", "triangle"),
)
def test_token_rules_imply_at_most_one_holder_under_an_active_root(
    network, configurations, legitimate
):
    """Every token-layer configuration of the 3-node path and the triangle.

    A state that one of its node's rules rejects on the node's own
    variables alone makes every configuration containing it illegitimate,
    so those configurations are counted, not enumerated; every other one is
    checked against the whole predicate.
    """
    token = DepthFirstTokenCirculation()
    states = [_token_states(network, node) for node in network.nodes()]
    assert len(states[0]) * len(states[1]) * len(states[2]) == configurations
    configuration = Configuration({node: states[node][0] for node in network.nodes()})
    survivors = []
    for node in network.nodes():
        view = GuardView(node, network, configuration)
        own_rules = [rule for rule in token.violation_rules(network, node) if _own_only(rule)]
        kept = []
        for state in states[node]:
            configuration.replace_node(node, state)
            if not any(rule.guard(view) for rule in own_rules):
                kept.append(state)
        survivors.append(kept)
    found = 0
    for combination in itertools.product(*survivors):
        for node, state in enumerate(combination):
            configuration.replace_node(node, state)
        if not token.legitimate(network, configuration):
            continue
        found += 1
        assert len(token.token_holders(network, configuration)) <= 1, combination
        active = {
            node for node, state in enumerate(combination) if state[tc.VAR_STATE] == tc.ACTIVE
        }
        assert not active or network.root in active, combination
    assert found == legitimate


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def test_dftno_run_reports_the_legitimacy_phase_and_nodes_checked():
    spec = RunSpec(network=NetworkSpec(family="random_connected", size=10, seed=1), seed=2)
    instrumented = run(spec, instrumentation=Instrumentation())
    perf = instrumented.perf
    assert perf["phases"][PHASE_LEGITIMACY]["count"] > 0
    assert perf["phases"][PHASE_LEGITIMACY]["seconds"] > 0.0
    # The first query walks every node's rules of both DFTNO layers.
    assert summary_counter(perf, "legitimacy_nodes_checked") >= 2 * 10
    plain = run(spec)
    assert plain.perf is None
    assert {key: value for key, value in instrumented.row.items() if key != "perf"} == plain.row


def test_uninstrumented_legitimacy_records_nothing():
    network = generators.random_connected(8, seed=1)
    scheduler = Scheduler(network, build_protocol("dftno"), seed=2)
    scheduler.run_until_legitimate(max_steps=3_000)
    assert scheduler._violations and not any(scheduler._violations)
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
