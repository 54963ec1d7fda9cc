"""Equivalence of the incremental and full-scan scheduler cores.

The incremental enabled-set is an optimization, not a semantics change: for
any substrate, daemon, scenario and seed, the ``scheduler`` engine (dirty
frontier re-evaluation) and the ``scheduler-fullscan`` engine (historical
rescan of every guard per step) must produce **identical** executions -- the
same enabled set before every step, the same :class:`StepRecord` stream, the
same metrics, and the same final configuration.

These tests drive every substrate x daemon combination (with and without a
mid-run ``set_configuration``, ``freeze``/``unfreeze``, ``replace_node`` or
``set_daemon``, and every library scenario, which adds ``set_network``)
through both paths in lockstep, with guard-locality checking switched on so
the invariant the dirty frontier relies on is asserted on every evaluation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunSpec, NetworkSpec, run
from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.graphs import generators
from repro.runtime.daemon import make_daemon
from repro.runtime.scheduler import Scheduler, StepRecord
from repro.scenarios.library import build_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.substrates.pif import PIFWave
from repro.substrates.spanning_tree import BFSSpanningTree, DFSSpanningTree
from repro.substrates.token_circulation import DepthFirstTokenCirculation

DAEMONS = ("central", "distributed", "synchronous", "adversarial")

#: Every substrate / protocol stack with a network family it legally runs on.
PROTOCOLS = {
    "bfs-tree": (BFSSpanningTree, "random_connected"),
    "dfs-tree": (DFSSpanningTree, "random_connected"),
    "token-circulation": (DepthFirstTokenCirculation, "random_connected"),
    "pif": (PIFWave, "random_tree"),
    "dijkstra-ring": (DijkstraTokenRing, "ring"),
    "dftno": (build_dftno, "random_connected"),
    "stno-bfs": (lambda: build_stno(tree="bfs"), "random_connected"),
    "stno-dfs": (lambda: build_stno(tree="dfs"), "random_connected"),
}


def _core_pair(
    protocol_key: str, daemon: str, seed: int, n: int, family: str | None = None
) -> tuple[Scheduler, Scheduler]:
    """The incremental (reference) and full-scan (candidate) cores on the same
    network, protocol, daemon and seed, with guard-locality checking on.

    ``family`` overrides the protocol's pinned network family.
    """
    factory, pinned_family = PROTOCOLS[protocol_key]
    family = family or pinned_family
    reference_scheduler, candidate_scheduler = (
        Scheduler(
            generators.family(family, n, seed=seed),
            factory(),
            daemon=make_daemon(daemon),
            seed=seed,
            incremental=incremental,
            check_guard_locality=True,
        )
        for incremental in (True, False)
    )
    return reference_scheduler, candidate_scheduler


def _drive_lockstep(
    reference_scheduler: Scheduler,
    candidate_scheduler: Scheduler,
    max_steps: int,
    context: str,
) -> list[StepRecord]:
    """Step both cores together until they fall silent or ``max_steps`` pass,
    asserting identical enabled sets and step records; return the records."""
    records: list[StepRecord] = []
    for _ in range(max_steps):
        assert (
            reference_scheduler.enabled_nodes() == candidate_scheduler.enabled_nodes()
        ), f"enabled sets diverged at step {reference_scheduler.steps_executed} {context}"
        record_reference = reference_scheduler.step()
        record_candidate = candidate_scheduler.step()
        assert record_reference == record_candidate, (
            f"step records diverged at step {candidate_scheduler.steps_executed} {context}"
        )
        if record_reference is None:
            break
        records.append(record_reference)
    return records


def _assert_same_outcome(
    reference_scheduler: Scheduler, candidate_scheduler: Scheduler, context: str
) -> None:
    assert reference_scheduler.configuration == candidate_scheduler.configuration, context
    assert reference_scheduler.metrics == candidate_scheduler.metrics, context
    assert (
        reference_scheduler.rounds_completed == candidate_scheduler.rounds_completed
    ), context


def _lockstep(
    protocol_key: str,
    daemon: str,
    seed: int,
    n: int,
    max_steps: int = 150,
    family: str | None = None,
) -> None:
    """Run the incremental and full-scan cores in lockstep and assert every
    observable is identical.

    ``family`` overrides the protocol's pinned network family.
    """
    reference_scheduler, candidate_scheduler = _core_pair(
        protocol_key, daemon, seed, n, family
    )
    family = family or PROTOCOLS[protocol_key][1]
    context = f"({protocol_key}, {family}, daemon={daemon}, seed={seed}, n={n})"
    assert reference_scheduler.configuration == candidate_scheduler.configuration
    _drive_lockstep(reference_scheduler, candidate_scheduler, max_steps, context)
    _assert_same_outcome(reference_scheduler, candidate_scheduler, context)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_incremental_equals_fullscan_for_every_substrate_and_daemon(protocol_key, daemon):
    """Fixed-seed lockstep equivalence across the whole substrate x daemon grid."""
    _lockstep(protocol_key, daemon, seed=11, n=7)


#: Tree-shaped families (the only legal ones for the PIF wave).
TREE_FAMILIES = ("path", "star", "binary_tree", "random_tree")


def _other_legal_families(protocol_key: str) -> tuple[str, ...]:
    """Every sweepable family the protocol legally runs on, minus its pinned one."""
    if protocol_key == "dijkstra-ring":
        legal: tuple[str, ...] = ("ring",)
    elif protocol_key == "pif":
        legal = TREE_FAMILIES
    else:
        legal = generators.FAMILY_NAMES
    return tuple(f for f in legal if f != PROTOCOLS[protocol_key][1])


FAMILY_CELLS = [
    (protocol_key, family)
    for protocol_key in sorted(PROTOCOLS)
    for family in _other_legal_families(protocol_key)
]


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key,family", FAMILY_CELLS)
def test_incremental_equals_fullscan_on_every_legal_family(protocol_key, family, daemon):
    """The lockstep grid again on every other topology family each substrate
    legally runs on: stars, paths, complete graphs and grids stress the dirty
    frontier with very different neighbourhood sizes."""
    _lockstep(protocol_key, daemon, seed=11, n=7, family=family)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    protocol_key=st.sampled_from(sorted(PROTOCOLS)),
    daemon=st.sampled_from(DAEMONS),
    n=st.integers(min_value=3, max_value=9),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_incremental_equals_fullscan_property(seed, protocol_key, daemon, n):
    """The lockstep equivalence holds for arbitrary seeds and sizes."""
    _lockstep(protocol_key, daemon, seed=seed, n=n, max_steps=80)


@pytest.mark.parametrize("daemon", ("central", "distributed", "synchronous"))
@pytest.mark.parametrize("protocol", ("dftno", "stno-bfs"))
def test_engine_registry_rows_are_identical(protocol, daemon):
    """Both scheduler engines produce identical result rows.

    The whole-run check through the public entry point: same spec (modulo the
    engine name), same :class:`StabilizationSample` row, converged on every
    path.
    """
    rows = {}
    for engine in ("scheduler", "scheduler-fullscan"):
        spec = RunSpec(
            engine=engine,
            protocol=protocol,
            network=NetworkSpec(family="random_connected", size=9, seed=5),
            daemon=daemon,
            seed=13,
        )
        rows[engine] = run(spec).row
    reference = rows["scheduler"]
    for key, row in rows.items():
        assert row == reference, key
    assert reference["converged"]


# ---------------------------------------------------------------------------
# Mid-run mutations on every substrate: both cores stay in lockstep
# ---------------------------------------------------------------------------
#: Steps taken before (and between) mutations; short enough that every
#: substrate is still moving when the mutation lands.
WARMUP_STEPS = 3


def _mutation_context(protocol_key: str, daemon: str, mutation: str) -> str:
    return f"({protocol_key}, daemon={daemon}, {mutation})"


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_frozen_nodes_never_execute_on_either_core(protocol_key, daemon):
    """Crashed processors are never enabled and never move on either core,
    and both cores resume identically once they rejoin."""
    reference_scheduler, candidate_scheduler = _core_pair(protocol_key, daemon, seed=11, n=7)
    context = _mutation_context(protocol_key, daemon, "freeze/unfreeze")
    frozen = (1, 4)
    for scheduler in (reference_scheduler, candidate_scheduler):
        scheduler.freeze(frozen)
    records = _drive_lockstep(reference_scheduler, candidate_scheduler, 60, context)
    assert not set(reference_scheduler.enabled_nodes()) & set(frozen), context
    for record in records:
        assert not {node for node, _ in record.executed} & set(frozen), context
        assert not set(record.changed_nodes) & set(frozen), context
    for scheduler in (reference_scheduler, candidate_scheduler):
        scheduler.unfreeze(frozen)
    _drive_lockstep(reference_scheduler, candidate_scheduler, 150, context)
    _assert_same_outcome(reference_scheduler, candidate_scheduler, context)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_set_configuration_mid_run_is_identical_across_cores(protocol_key, daemon):
    """A wholesale configuration replacement (a transient-fault burst)
    invalidates the incremental enabled-set exactly as a full rescan sees it."""
    reference_scheduler, candidate_scheduler = _core_pair(protocol_key, daemon, seed=11, n=7)
    context = _mutation_context(protocol_key, daemon, "set_configuration")
    _drive_lockstep(reference_scheduler, candidate_scheduler, WARMUP_STEPS, context)
    factory = PROTOCOLS[protocol_key][0]
    replacement = factory().random_configuration(reference_scheduler.network, seed=99)
    for scheduler in (reference_scheduler, candidate_scheduler):
        scheduler.set_configuration(replacement.copy())
    assert reference_scheduler.configuration == replacement, context
    _drive_lockstep(reference_scheduler, candidate_scheduler, 150, context)
    _assert_same_outcome(reference_scheduler, candidate_scheduler, context)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_daemon_switch_mid_run_is_identical_across_cores(protocol_key, daemon):
    """Switching to the next daemon and back mid-run keeps both cores
    identical: the enabled-set survives every switch."""
    reference_scheduler, candidate_scheduler = _core_pair(protocol_key, daemon, seed=11, n=7)
    other = DAEMONS[(DAEMONS.index(daemon) + 1) % len(DAEMONS)]
    context = _mutation_context(protocol_key, daemon, f"switch to {other} and back")
    _drive_lockstep(reference_scheduler, candidate_scheduler, WARMUP_STEPS, context)
    for kind in (other, daemon):
        for scheduler in (reference_scheduler, candidate_scheduler):
            scheduler.set_daemon(make_daemon(kind))
        _drive_lockstep(reference_scheduler, candidate_scheduler, WARMUP_STEPS, context)
    _drive_lockstep(reference_scheduler, candidate_scheduler, 150, context)
    _assert_same_outcome(reference_scheduler, candidate_scheduler, context)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_crash_rejoin_mid_run_is_identical_across_cores(protocol_key, daemon):
    """Crash a processor, rewrite its whole state with ``replace_node`` and
    let it rejoin: the journaled write reaches the incremental core's dirty
    frontier, so both cores agree on every later step."""
    reference_scheduler, candidate_scheduler = _core_pair(protocol_key, daemon, seed=11, n=7)
    context = _mutation_context(protocol_key, daemon, "crash/rejoin")
    _drive_lockstep(reference_scheduler, candidate_scheduler, WARMUP_STEPS, context)
    crashed = 2
    factory = PROTOCOLS[protocol_key][0]
    fresh_state = factory().random_state(
        reference_scheduler.network, crashed, random.Random(5)
    )
    for scheduler in (reference_scheduler, candidate_scheduler):
        scheduler.freeze((crashed,))
    _drive_lockstep(reference_scheduler, candidate_scheduler, WARMUP_STEPS, context)
    for scheduler in (reference_scheduler, candidate_scheduler):
        scheduler.replace_node(crashed, fresh_state)
        scheduler.unfreeze((crashed,))
    assert reference_scheduler.configuration.state_of(crashed) == fresh_state, context
    _drive_lockstep(reference_scheduler, candidate_scheduler, 150, context)
    _assert_same_outcome(reference_scheduler, candidate_scheduler, context)


# ---------------------------------------------------------------------------
# Replay fidelity: a recorded run must replay byte-identically
# ---------------------------------------------------------------------------
def _record_and_replay(
    protocol_key: str,
    daemon: str,
    seed: int,
    n: int,
    tmp_path,
    max_steps: int = 150,
    core: str = "incremental",
):
    """Record a run with the flight recorder, replay it, assert fidelity.

    ``core`` picks the recording engine (``"incremental"`` or
    ``"fullscan"``); the replay always re-executes on the plain incremental
    scheduler, substituting the recorded daemon selections.  Every replayed
    :class:`StepRecord`, the metrics and the final configuration must match
    the log exactly.
    """
    from repro.obs import FlightRecorder
    from repro.replay import ReplayRun

    factory, family = PROTOCOLS[protocol_key]
    log_path = tmp_path / f"{protocol_key}-{daemon}-{core}.flight.jsonl"
    recorder = FlightRecorder(log_path)
    scheduler = Scheduler(
        generators.family(family, n, seed=seed),
        factory(),
        daemon=make_daemon(daemon),
        seed=seed,
        observers=(recorder,),
        incremental=core == "incremental",
    )
    try:
        for _ in range(max_steps):
            if scheduler.step() is None:
                break
    finally:
        recorder.close()
    context = f"({protocol_key}, daemon={daemon}, recorded on {core})"
    report = ReplayRun(log_path, protocol=factory()).run()
    assert report.verified, (
        f"replay diverged {context}: "
        + (report.divergence.format() if report.divergence else report.final_detail or "")
    )
    assert report.steps_replayed == scheduler.steps_executed, context
    assert report.final_ok is True, (context, report.final_detail)
    assert report.metrics_ok is True, context
    return report


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_replayed_run_is_byte_identical_for_every_substrate_and_daemon(
    protocol_key, daemon, tmp_path
):
    """Record -> replay fidelity across the whole substrate x daemon grid."""
    _record_and_replay(protocol_key, daemon, seed=11, n=7, tmp_path=tmp_path)


@pytest.mark.parametrize("core", ("fullscan",))
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_recording_from_any_core_replays_on_the_reference_core(
    protocol_key, daemon, core, tmp_path
):
    """Logs recorded by the full-scan engine replay byte-identically on the
    incremental core (the lockstep grids above hold the engines
    bit-identical, so a log is engine-independent)."""
    _record_and_replay(
        protocol_key, daemon, seed=11, n=7, tmp_path=tmp_path, core=core
    )


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("scenario_name", scenario_names())
def test_scenario_executions_are_identical_across_cores(scenario_name, daemon):
    """Every library scenario runs identically on the incremental and
    full-scan cores.

    Scenario events exercise every mid-run mutation path (corruption bursts
    via ``set_configuration``, crash/rejoin via ``freeze``/``unfreeze`` and
    ``replace_node``, multi-node crashes, link changes via ``set_network``,
    daemon switches), so identical reports here mean the dirty-set
    bookkeeping survives all of them.
    """
    reports = {}
    for key, incremental in (("reference", True), ("candidate", False)):
        network = generators.random_connected(8, extra_edge_probability=0.3, seed=3)
        reports[key] = ScenarioRunner(
            network,
            build_dftno(),
            build_scenario(scenario_name),
            daemon=make_daemon(daemon),
            seed=7,
            incremental=incremental,
        ).run()
    assert reports["reference"].as_row() == reports["candidate"].as_row()
    assert reports["reference"].events == reports["candidate"].events
