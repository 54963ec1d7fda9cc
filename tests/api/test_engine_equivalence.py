"""Equivalence of the incremental, full-scan and vectorized scheduler cores.

The incremental enabled-set and the vectorized batch kernels are
optimizations, not semantics changes: for any substrate, daemon, scenario and
seed, the ``scheduler`` engine (dirty frontier re-evaluation), the
``scheduler-fullscan`` engine (historical rescan of every guard per step) and
the ``scheduler-vectorized`` engine (whole-column kernels under the
synchronous daemon) must produce **identical** executions -- the same enabled
set before every step, the same :class:`StepRecord` stream, the same metrics,
and the same final configuration.

These tests drive every substrate x daemon combination (and every library
scenario, which exercises the mid-run mutation paths: ``set_configuration``,
``freeze``/``unfreeze`` + ``replace_node``, ``set_network``, ``set_daemon``)
through all paths in lockstep, with guard-locality checking switched on so
the invariant the dirty frontier relies on is asserted on every evaluation.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunSpec, NetworkSpec, run
from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.graphs import generators
from repro.runtime.arrayview import HAVE_NUMPY
from repro.runtime.daemon import make_daemon
from repro.runtime.scheduler import Scheduler
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


def _scheduler_builders(candidate: str):
    """The reference core plus the core under test.

    ``"fullscan"`` compares incremental vs full scan; ``"vectorized"``
    compares incremental vs the batch-kernel engine (which must not get
    guard-locality checking -- that debug mode deliberately disables the fast
    path this pairing exists to hold to account).
    """
    reference = partial(Scheduler, incremental=True, check_guard_locality=True)
    if candidate == "fullscan":
        return reference, partial(Scheduler, incremental=False, check_guard_locality=True)
    from repro.runtime.vectorized import VectorizedScheduler

    return reference, partial(VectorizedScheduler, incremental=True)


def _lockstep(
    protocol_key: str,
    daemon: str,
    seed: int,
    n: int,
    max_steps: int = 150,
    candidate: str = "fullscan",
    family: str | None = None,
) -> None:
    """Run two cores in lockstep and assert every observable is identical.

    ``family`` overrides the protocol's pinned network family.
    """
    factory, pinned_family = PROTOCOLS[protocol_key]
    family = family or pinned_family
    schedulers = []
    for build in _scheduler_builders(candidate):
        schedulers.append(
            build(
                generators.family(family, n, seed=seed),
                factory(),
                daemon=make_daemon(daemon),
                seed=seed,
            )
        )
    reference_scheduler, candidate_scheduler = schedulers
    context = f"({protocol_key}, {family}, daemon={daemon}, seed={seed}, n={n}, {candidate})"
    assert reference_scheduler.configuration == candidate_scheduler.configuration

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

    assert reference_scheduler.configuration == candidate_scheduler.configuration, context
    assert reference_scheduler.metrics == candidate_scheduler.metrics, context
    assert (
        reference_scheduler.rounds_completed == candidate_scheduler.rounds_completed
    ), context


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


#: The substrates that register batch kernels (the vectorized fast path);
#: every other substrate rides the fallback, covered by the kernel-less
#: fallback tests in ``tests/runtime/test_vectorized_scheduler.py``.
VECTORIZED_PROTOCOLS = ("bfs-tree", "dijkstra-ring")

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (the vectorized extra)"
)


@needs_numpy
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", VECTORIZED_PROTOCOLS)
def test_vectorized_equals_incremental_for_kernel_substrates(protocol_key, daemon):
    """Vectorized lockstep equivalence across every daemon.

    Under the synchronous daemon the batch kernels serve the steps; under
    the other daemons the engine falls back to per-node dispatch -- either
    way the records must be identical to the incremental reference.
    """
    _lockstep(protocol_key, daemon, seed=11, n=7, candidate="vectorized")


@needs_numpy
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize(
    "protocol_key,family",
    [cell for cell in FAMILY_CELLS if cell[0] in VECTORIZED_PROTOCOLS],
)
def test_vectorized_equals_incremental_on_every_legal_family(protocol_key, family, daemon):
    """Vectorized lockstep equivalence on every other legal topology family."""
    _lockstep(protocol_key, daemon, seed=11, n=7, candidate="vectorized", family=family)


@needs_numpy
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    protocol_key=st.sampled_from(VECTORIZED_PROTOCOLS),
    daemon=st.sampled_from(DAEMONS),
    n=st.integers(min_value=3, max_value=9),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_vectorized_equals_incremental_property(seed, protocol_key, daemon, n):
    """Vectorized equivalence holds for arbitrary seeds and sizes."""
    _lockstep(protocol_key, daemon, seed=seed, n=n, max_steps=80, candidate="vectorized")


@pytest.mark.parametrize("daemon", ("central", "distributed", "synchronous"))
@pytest.mark.parametrize("protocol", ("dftno", "stno-bfs"))
def test_engine_registry_rows_are_identical(protocol, daemon):
    """All scheduler engines produce identical result rows.

    The whole-run check through the public entry point: same spec (modulo the
    engine name), same :class:`StabilizationSample` row, converged on every
    path.  The synchronous-daemon cells drive the vectorized engine's fast
    path (stno-bfs carries the BFS kernels).
    """
    engines = ["scheduler", "scheduler-fullscan"]
    if HAVE_NUMPY:
        engines.append("scheduler-vectorized")
    rows = {}
    for engine in engines:
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

    ``core`` picks the recording engine (``"incremental"``, ``"fullscan"`` or
    ``"vectorized"``); the replay always re-executes on the plain incremental
    scheduler, substituting the recorded daemon selections.  Every replayed
    :class:`StepRecord`, the metrics and the final configuration must match
    the log exactly.
    """
    from repro.obs import FlightRecorder
    from repro.replay import ReplayRun

    factory, family = PROTOCOLS[protocol_key]
    log_path = tmp_path / f"{protocol_key}-{daemon}-{core}.flight.jsonl"
    recorder = FlightRecorder(log_path)
    if core == "vectorized":
        from repro.runtime.vectorized import VectorizedScheduler

        build = VectorizedScheduler
    else:
        build = partial(Scheduler, incremental=core == "incremental")
    scheduler = build(
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


@pytest.mark.parametrize(
    "core",
    ("fullscan", pytest.param("vectorized", marks=needs_numpy)),
)
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_recording_from_any_core_replays_on_the_reference_core(
    protocol_key, daemon, core, tmp_path
):
    """Logs recorded by the full-scan or vectorized engine replay
    byte-identically on the incremental core (the lockstep grids above hold
    the engines bit-identical, so a log is engine-independent)."""
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
