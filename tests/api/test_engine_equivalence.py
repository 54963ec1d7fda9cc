"""Equivalence of the scheduler and the independent reference interpreter.

The scheduler's maintained enabled-set is an optimization, not a semantics
change: for any substrate, daemon, scenario and seed, the ``scheduler``
engine (:class:`Scheduler`, dirty-frontier re-evaluation) and the
``scheduler-fullscan`` engine (:class:`ReferenceScheduler`, which rescans
every guard per step and shares no step, round or run-loop code with it)
must produce **identical** executions -- the same enabled set before every
step, the same :class:`StepRecord` stream, the same metrics, and the same
final configuration.

These tests drive every substrate x daemon combination (with and without a
mid-run ``set_configuration``, ``freeze``/``unfreeze``, ``replace_node`` or
``set_daemon``, and every library scenario, which adds ``set_network``)
through both in lockstep, with the scheduler's guard-locality checking
switched on so the invariant the dirty frontier relies on is asserted on
every evaluation.
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
from repro.runtime.reference import ReferenceScheduler
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
) -> tuple[Scheduler, ReferenceScheduler]:
    """The scheduler and the reference interpreter on the same network,
    protocol, daemon and seed, the scheduler with guard-locality checking on.

    ``family`` overrides the protocol's pinned network family.
    """
    factory, pinned_family = PROTOCOLS[protocol_key]
    family = family or pinned_family
    scheduler_core, reference_core = (
        core(
            generators.family(family, n, seed=seed),
            factory(),
            daemon=make_daemon(daemon),
            seed=seed,
            check_guard_locality=True,
        )
        for core in (Scheduler, ReferenceScheduler)
    )
    return scheduler_core, reference_core


def _drive_lockstep(
    scheduler_core: Scheduler,
    reference_core: ReferenceScheduler,
    max_steps: int,
    context: str,
) -> list[StepRecord]:
    """Step both cores together until they fall silent or ``max_steps`` pass,
    asserting identical enabled sets and step records; return the records."""
    records: list[StepRecord] = []
    for _ in range(max_steps):
        assert (
            scheduler_core.enabled_nodes() == reference_core.enabled_nodes()
        ), f"enabled sets diverged at step {scheduler_core.steps_executed} {context}"
        record_reference = scheduler_core.step()
        record_candidate = reference_core.step()
        assert record_reference == record_candidate, (
            f"step records diverged at step {reference_core.steps_executed} {context}"
        )
        if record_reference is None:
            break
        records.append(record_reference)
    return records


def _assert_same_outcome(
    scheduler_core: Scheduler, reference_core: ReferenceScheduler, context: str
) -> None:
    assert scheduler_core.configuration == reference_core.configuration, context
    assert scheduler_core.metrics == reference_core.metrics, context
    assert (
        scheduler_core.rounds_completed == reference_core.rounds_completed
    ), context


def _lockstep(
    protocol_key: str,
    daemon: str,
    seed: int,
    n: int,
    max_steps: int = 150,
    family: str | None = None,
) -> None:
    """Run the scheduler and the reference interpreter in lockstep and assert
    every observable is identical.

    ``family`` overrides the protocol's pinned network family.
    """
    scheduler_core, reference_core = _core_pair(
        protocol_key, daemon, seed, n, family
    )
    family = family or PROTOCOLS[protocol_key][1]
    context = f"({protocol_key}, {family}, daemon={daemon}, seed={seed}, n={n})"
    assert scheduler_core.configuration == reference_core.configuration
    _drive_lockstep(scheduler_core, reference_core, max_steps, context)
    _assert_same_outcome(scheduler_core, reference_core, context)


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
    scheduler_core, reference_core = _core_pair(protocol_key, daemon, seed=11, n=7)
    context = _mutation_context(protocol_key, daemon, "freeze/unfreeze")
    frozen = (1, 4)
    for scheduler in (scheduler_core, reference_core):
        scheduler.freeze(frozen)
    records = _drive_lockstep(scheduler_core, reference_core, 60, context)
    assert not set(scheduler_core.enabled_nodes()) & set(frozen), context
    for record in records:
        assert not {node for node, _ in record.executed} & set(frozen), context
        assert not set(record.changed_nodes) & set(frozen), context
    for scheduler in (scheduler_core, reference_core):
        scheduler.unfreeze(frozen)
    _drive_lockstep(scheduler_core, reference_core, 150, context)
    _assert_same_outcome(scheduler_core, reference_core, context)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_set_configuration_mid_run_is_identical_across_cores(protocol_key, daemon):
    """A wholesale configuration replacement (a transient-fault burst)
    invalidates the maintained enabled-set exactly as a full rescan sees it."""
    scheduler_core, reference_core = _core_pair(protocol_key, daemon, seed=11, n=7)
    context = _mutation_context(protocol_key, daemon, "set_configuration")
    _drive_lockstep(scheduler_core, reference_core, WARMUP_STEPS, context)
    factory = PROTOCOLS[protocol_key][0]
    replacement = factory().random_configuration(scheduler_core.network, seed=99)
    for scheduler in (scheduler_core, reference_core):
        scheduler.set_configuration(replacement.copy())
    assert scheduler_core.configuration == replacement, context
    _drive_lockstep(scheduler_core, reference_core, 150, context)
    _assert_same_outcome(scheduler_core, reference_core, context)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_daemon_switch_mid_run_is_identical_across_cores(protocol_key, daemon):
    """Switching to the next daemon and back mid-run keeps both cores
    identical: the enabled-set survives every switch."""
    scheduler_core, reference_core = _core_pair(protocol_key, daemon, seed=11, n=7)
    other = DAEMONS[(DAEMONS.index(daemon) + 1) % len(DAEMONS)]
    context = _mutation_context(protocol_key, daemon, f"switch to {other} and back")
    _drive_lockstep(scheduler_core, reference_core, WARMUP_STEPS, context)
    for kind in (other, daemon):
        for scheduler in (scheduler_core, reference_core):
            scheduler.set_daemon(make_daemon(kind))
        _drive_lockstep(scheduler_core, reference_core, WARMUP_STEPS, context)
    _drive_lockstep(scheduler_core, reference_core, 150, context)
    _assert_same_outcome(scheduler_core, reference_core, context)


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_crash_rejoin_mid_run_is_identical_across_cores(protocol_key, daemon):
    """Crash a processor, rewrite its whole state with ``replace_node`` and
    let it rejoin: the journaled write reaches the scheduler's dirty
    frontier, so both cores agree on every later step."""
    scheduler_core, reference_core = _core_pair(protocol_key, daemon, seed=11, n=7)
    context = _mutation_context(protocol_key, daemon, "crash/rejoin")
    _drive_lockstep(scheduler_core, reference_core, WARMUP_STEPS, context)
    crashed = 2
    factory = PROTOCOLS[protocol_key][0]
    fresh_state = factory().random_state(
        scheduler_core.network, crashed, random.Random(5)
    )
    for scheduler in (scheduler_core, reference_core):
        scheduler.freeze((crashed,))
    _drive_lockstep(scheduler_core, reference_core, WARMUP_STEPS, context)
    for scheduler in (scheduler_core, reference_core):
        scheduler.replace_node(crashed, fresh_state)
        scheduler.unfreeze((crashed,))
    assert scheduler_core.configuration.state_of(crashed) == fresh_state, context
    _drive_lockstep(scheduler_core, reference_core, 150, context)
    _assert_same_outcome(scheduler_core, reference_core, context)


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

    ``core`` picks the recording core (``"incremental"``: the scheduler, or
    ``"fullscan"``: the reference interpreter); the replay always re-executes
    on the scheduler, substituting the recorded daemon selections.  Every replayed
    :class:`StepRecord`, the metrics and the final configuration must match
    the log exactly.
    """
    from repro.obs import FlightRecorder
    from repro.replay import ReplayRun

    factory, family = PROTOCOLS[protocol_key]
    log_path = tmp_path / f"{protocol_key}-{daemon}-{core}.flight.jsonl"
    recorder = FlightRecorder(log_path)
    scheduler = (Scheduler if core == "incremental" else ReferenceScheduler)(
        generators.family(family, n, seed=seed),
        factory(),
        daemon=make_daemon(daemon),
        seed=seed,
        observers=(recorder,),
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
def test_recording_on_the_reference_replays_on_the_scheduler(
    protocol_key, daemon, core, tmp_path
):
    """Logs recorded on the reference interpreter replay byte-identically on
    the scheduler (the lockstep grids above hold the engines bit-identical,
    so a log is engine-independent)."""
    _record_and_replay(
        protocol_key, daemon, seed=11, n=7, tmp_path=tmp_path, core=core
    )


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("scenario_name", scenario_names())
def test_scenario_executions_are_identical_across_cores(scenario_name, daemon):
    """Every library scenario runs identically on the scheduler and on the
    reference interpreter.

    Scenario events exercise every mid-run mutation path (corruption bursts
    via ``set_configuration``, crash/rejoin via ``freeze``/``unfreeze`` and
    ``replace_node``, multi-node crashes, link changes via ``set_network``,
    daemon switches), so identical reports here mean the dirty-set
    bookkeeping survives all of them.  The reference run goes through
    ``ScenarioRunner._run`` with the random streams :meth:`ScenarioRunner.run`
    derives from the seed.
    """

    def runner() -> ScenarioRunner:
        network = generators.random_connected(8, extra_edge_probability=0.3, seed=3)
        return ScenarioRunner(
            network,
            build_dftno(),
            build_scenario(scenario_name),
            daemon=make_daemon(daemon),
            seed=7,
        )

    reports = {"scheduler": runner().run()}
    twin = runner()
    rng = random.Random(twin.seed)
    reports["reference"] = twin._run(
        ReferenceScheduler(
            twin.network,
            twin.protocol,
            daemon=twin.daemon,
            rng=random.Random(rng.randrange(1 << 30)),
        ),
        rng,
    )
    assert reports["scheduler"].as_row() == reports["reference"].as_row()
    assert reports["scheduler"].events == reports["reference"].events
