"""The engines behind :func:`repro.api.run` and the registry that names them.

An :class:`Engine` turns one :class:`~repro.api.spec.RunSpec` into one
:class:`~repro.api.spec.RunResult`, threading the caller's observers into the
underlying execution machinery:

* :class:`SchedulerEngine` (``"scheduler"``) -- the daemon-step
  :class:`~repro.runtime.scheduler.Scheduler`, measured through the layered
  stabilization harness (:mod:`repro.analysis.convergence`), producing
  exactly the rows the ``stabilize`` campaign task type stores;
* :class:`ScenarioEngine` (``"scenario"``) -- the
  :class:`~repro.scenarios.runner.ScenarioRunner`, producing scenario
  recovery rows;
* :class:`MsgpassEngine` (``"msgpass"``) -- the synchronous message-passing
  simulator running a workload (broadcast, traversal or ring election) with
  and without the orientation, producing the message-savings rows.

New engines (an async scheduler, say) register with
:func:`register_engine` and become reachable through the same
``run(RunSpec(engine="..."))`` entry point without touching any caller.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, Sequence

from repro.api.spec import RunResult, RunSpec
from repro.obs.health import HealthMonitor
from repro.obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from repro.obs.profile import maybe_profile
from repro.obs.spans import tracer_from_env
from repro.obs.telemetry import ConvergenceTelemetryObserver
from repro.runtime.observers import Observer


class Engine(ABC):
    """Executes :class:`~repro.api.spec.RunSpec` objects of one kind."""

    #: The :attr:`RunSpec.engine` value this engine serves.
    name: str = "engine"

    @abstractmethod
    def execute(
        self,
        spec: RunSpec,
        observers: Sequence[Observer] = (),
        instrumentation: Instrumentation | None = None,
    ) -> RunResult:
        """Run ``spec`` to completion and return the uniform result envelope."""


_ENGINES: Dict[str, Engine] = {}


def register_engine(engine: Engine) -> Engine:
    """Make ``engine`` reachable through ``RunSpec(engine=engine.name)``."""
    if not engine.name:
        raise ValueError("an engine needs a non-empty name")
    if engine.name in _ENGINES and _ENGINES[engine.name] is not engine:
        raise ValueError(f"engine {engine.name!r} is already registered")
    _ENGINES[engine.name] = engine
    return engine


def engine_names() -> tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_ENGINES))


def get_engine(name: str) -> Engine:
    """The engine registered under ``name``."""
    if name not in _ENGINES and name == "scheduler-replay":
        # Registered lazily: repro.replay imports this module for the Engine
        # base class, so an eager import here would be circular.  Importing
        # the module registers the engine as a side effect.
        import repro.replay.engine  # noqa: F401
    if name not in _ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; choose from {', '.join(engine_names())}"
        )
    return _ENGINES[name]


def _coerce_telemetry(
    telemetry: "bool | int | ConvergenceTelemetryObserver | None",
) -> ConvergenceTelemetryObserver | None:
    """``telemetry=`` argument -> observer (``True`` default stride, int = stride)."""
    if telemetry is None or telemetry is False:
        return None
    if isinstance(telemetry, ConvergenceTelemetryObserver):
        return telemetry
    if telemetry is True:
        return ConvergenceTelemetryObserver()
    if isinstance(telemetry, int):
        return ConvergenceTelemetryObserver(stride=telemetry)
    raise TypeError(f"telemetry must be bool, int or observer, got {telemetry!r}")


def _recorder_for(spec: RunSpec):
    """The :class:`~repro.obs.recorder.FlightRecorder` ``spec.record`` asks for.

    ``True`` -> ``<DEFAULT_LOG_DIR>/run-<hash>.flight.jsonl``; a directory
    string keeps the same file name inside it; a path ending in ``.jsonl`` is
    used verbatim.  The canonical hash keys the file, so re-recording the
    same spec overwrites the (deterministically identical) previous log.
    """
    from pathlib import Path

    from repro.obs.recorder import DEFAULT_LOG_DIR, FlightRecorder

    target = DEFAULT_LOG_DIR if spec.record is True else str(spec.record)
    path = Path(target)
    if path.suffix != ".jsonl":
        path = path / f"run-{spec.canonical_hash}.flight.jsonl"
    return FlightRecorder(path, spec=spec)


def _coerce_health(
    health: "bool | int | HealthMonitor | None",
) -> HealthMonitor | None:
    """``health=`` argument -> monitor (``True`` defaults, int = round budget)."""
    if health is None or health is False:
        return None
    if isinstance(health, HealthMonitor):
        return health
    if health is True:
        return HealthMonitor()
    if isinstance(health, int):
        return HealthMonitor(round_budget=health)
    raise TypeError(f"health must be bool, int or HealthMonitor, got {health!r}")


def run(
    spec: RunSpec,
    observers: Sequence[Observer] = (),
    instrumentation: Instrumentation | None = None,
    telemetry: "bool | int | ConvergenceTelemetryObserver | None" = None,
    health: "bool | int | HealthMonitor | None" = None,
) -> RunResult:
    """Execute ``spec`` on the engine it names -- the single entry point.

    ``observers`` receive the engine's step/round/event/convergence
    notifications; pass a
    :class:`~repro.runtime.observers.ProgressObserver` for progress lines, a
    :class:`~repro.runtime.observers.CallbackObserver` collecting each
    step's ``StepRecord.moves``, or any custom
    :class:`~repro.runtime.observers.Observer`.

    ``instrumentation`` attaches a :class:`~repro.obs.Instrumentation`
    registry; the engine's phase timers and counters land in the returned
    result's ``perf`` summary (also embedded in ``row["perf"]``, which is how
    campaign stores persist it).  Two environment hooks work without touching
    the call site: ``REPRO_TRACE=<file.jsonl>`` attaches a span tracer (and,
    when no registry was passed, creates one so the run -> round -> step
    spans have somewhere to live), and ``REPRO_PROFILE=<dir>`` dumps a
    cProfile of the whole run.

    ``telemetry`` samples the protocol-health time-series: ``True`` for the
    default stride, an ``int`` for an explicit stride, or a pre-built
    :class:`~repro.obs.ConvergenceTelemetryObserver`.  The snapshot lands in
    ``RunResult.telemetry`` and ``row["telemetry"]``.  ``health`` likewise
    attaches a :class:`~repro.obs.HealthMonitor` stall/budget watchdog
    (``True`` for the derived round budget, an ``int`` for an explicit one);
    its snapshot lands in ``RunResult.health`` and ``row["health"]``.  Both
    ride the observer stream only -- they never perturb the execution, and a
    run without them pays nothing.

    ``spec.record`` attaches a :class:`~repro.obs.recorder.FlightRecorder`:
    the run's causal event log is written (even when the run crashes) and the
    row -- plus every health anomaly in it -- gains a ``flight_log`` pointer,
    replayable with ``repro-replay`` or ``engine="scheduler-replay"``.
    """
    telemetry_observer = _coerce_telemetry(telemetry)
    health_monitor = _coerce_health(health)
    if telemetry_observer is not None or health_monitor is not None:
        extra = [
            obs
            for obs in (telemetry_observer, health_monitor)
            if obs is not None and obs not in tuple(observers)
        ]
        observers = tuple(observers) + tuple(extra)
    recorder = None
    if spec.record:
        recorder = _recorder_for(spec)
        observers = tuple(observers) + (recorder,)
    owns_tracer = False
    if instrumentation is None:
        tracer = tracer_from_env()
        if tracer is not None:
            instrumentation = Instrumentation(tracer=tracer)
            owns_tracer = True
    engine = get_engine(spec.engine)
    instr = instrumentation
    enabled = instr is not None and instr.enabled
    tracer = instr.tracer if enabled else None
    try:
        with maybe_profile(f"{spec.engine}-{spec.canonical_hash}"):
            run_span = None
            if tracer is not None:
                run_span = tracer.span(
                    "run", kind="run", engine=spec.engine, spec=spec.canonical_hash
                )
                tracer.current_run = run_span
            try:
                result = engine.execute(spec, observers=observers, instrumentation=instr)
            finally:
                if tracer is not None:
                    if tracer.current_round is not None:
                        tracer.current_round.close()
                        tracer.current_round = None
                    run_span.close()
                    tracer.current_run = None
                    if owns_tracer:
                        tracer.close()
    finally:
        # Close even on failure: a log of the crashed prefix is precisely
        # what the replay tooling exists to dissect.
        if recorder is not None:
            recorder.close()
    if enabled:
        summary = instr.summary()
        result.row["perf"] = summary
        result = replace(result, perf=summary)
    if telemetry_observer is not None:
        snapshot = telemetry_observer.snapshot()
        result.row["telemetry"] = snapshot
        result = replace(result, telemetry=snapshot)
    if health_monitor is not None:
        snapshot = health_monitor.snapshot()
        result.row["health"] = snapshot
        result = replace(result, health=snapshot)
    if recorder is not None:
        # Every consumer of the row -- and every health anomaly inside it --
        # can point straight at the replayable evidence.
        log_path = str(recorder.path)
        result.row["flight_log"] = log_path
        health_blob = result.row.get("health")
        if isinstance(health_blob, dict):
            health_blob["flight_log"] = log_path
            for anomaly in health_blob.get("anomalies") or ():
                if isinstance(anomaly, dict):
                    anomaly["flight_log"] = log_path
    return result


# ----------------------------------------------------------------------
# The daemon-step stabilization engine
# ----------------------------------------------------------------------
class SchedulerEngine(Engine):
    """Layered stabilization measurement on the daemon-step scheduler.

    The row is a :class:`~repro.analysis.convergence.StabilizationSample`
    flattened by ``as_row`` -- byte-identical to what the pre-API
    ``stabilize`` campaign task type produced, which is what keeps existing
    campaign stores resumable through the new entry point.

    The default engine runs the scheduler's incremental enabled-set core;
    :class:`FullScanSchedulerEngine` (``"scheduler-fullscan"``) runs the
    historical full guard scan instead.  Both produce bit-identical step
    records, metrics and final configurations for the same spec -- the
    equivalence property test holds them to that.
    """

    name = "scheduler"
    #: Whether the underlying scheduler maintains the incremental enabled-set.
    incremental = True

    def _scheduler_kwargs(self, spec: RunSpec) -> dict[str, object]:
        """How the measurement harness should build its scheduler.

        ``spec.debug["check_guard_locality"]`` arms the per-guard read
        tracker (:class:`~repro.errors.GuardLocalityError` on violation)
        without touching the ``REPRO_DEBUG_GUARDS`` environment.
        """
        return {
            "incremental": self.incremental,
            "check_guard_locality": bool(
                spec.debug and spec.debug.get("check_guard_locality")
            ),
        }

    def execute(
        self,
        spec: RunSpec,
        observers: Sequence[Observer] = (),
        instrumentation: Instrumentation | None = None,
    ) -> RunResult:
        from repro.analysis.convergence import measure_stabilization
        from repro.runtime.daemon import make_daemon

        sample = measure_stabilization(
            spec.network.build(),
            spec.protocol,
            daemon=make_daemon(spec.daemon),
            seed=spec.seed,
            max_steps=spec.stop.max_steps,
            parameter=spec.parameter,
            after_substrate=spec.stop.after_substrate,
            observers=observers,
            instrumentation=instrumentation,
            **self._scheduler_kwargs(spec),
        )
        return RunResult(engine=self.name, spec=spec, row=sample.as_row(), report=sample)


class FullScanSchedulerEngine(SchedulerEngine):
    """The differential-testing twin of :class:`SchedulerEngine`.

    Same measurement, but every step rescans all ``n`` processors' guards the
    way the scheduler historically did.  Registered so equivalence checks
    (and suspicious campaign rows) can re-run any spec on the reference path
    by swapping ``engine="scheduler"`` for ``engine="scheduler-fullscan"``.
    """

    name = "scheduler-fullscan"
    incremental = False


# ----------------------------------------------------------------------
# The fault-injection scenario engine
# ----------------------------------------------------------------------
class ScenarioEngine(Engine):
    """Scenario execution with per-event recovery measurement."""

    name = "scenario"

    def execute(
        self,
        spec: RunSpec,
        observers: Sequence[Observer] = (),
        instrumentation: Instrumentation | None = None,
    ) -> RunResult:
        from repro.runtime.daemon import make_daemon
        from repro.scenarios.library import build_scenario
        from repro.scenarios.runner import ScenarioRunner

        runner = ScenarioRunner(
            spec.network.build(),
            build_protocol(spec.protocol),
            build_scenario(spec.scenario),
            daemon=make_daemon(spec.daemon),
            seed=spec.seed,
            phase_budget=spec.stop.max_steps,
            observers=observers,
            instrumentation=instrumentation,
        )
        report = runner.run()
        return RunResult(engine=self.name, spec=spec, row=report.as_row(), report=report)


# ----------------------------------------------------------------------
# The synchronous message-passing engine
# ----------------------------------------------------------------------
class MsgpassEngine(Engine):
    """Oriented-vs-unoriented message complexity of one workload.

    The orientation is the centralized reference (the protocols' fixed
    point), so the row isolates what the *orientation* is worth to the
    workload, independent of how it was computed.
    """

    name = "msgpass"

    def execute(
        self,
        spec: RunSpec,
        observers: Sequence[Observer] = (),
        instrumentation: Instrumentation | None = None,
    ) -> RunResult:
        from repro.core.baseline import centralized_orientation
        from repro.sod.election import ring_election_oriented, ring_election_unoriented
        from repro.sod.traversal import (
            broadcast_with_sod,
            broadcast_without_sod,
            dfs_traversal_with_sod,
            dfs_traversal_without_sod,
        )

        instr = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        started = time.perf_counter() if instr.enabled else 0.0
        network = spec.network.build()
        orientation = centralized_orientation(network)
        if spec.workload == "broadcast":
            plain = broadcast_without_sod(network, observers=observers)
            oriented = broadcast_with_sod(network, orientation, observers=observers)
            converged = plain.complete and oriented.complete
        elif spec.workload == "traversal":
            plain = dfs_traversal_without_sod(network, observers=observers)
            oriented = dfs_traversal_with_sod(network, orientation, observers=observers)
            converged = plain.complete and oriented.complete
        else:  # election (spec validation guarantees a ring)
            plain = ring_election_unoriented(network, observers=observers)
            oriented = ring_election_oriented(network, orientation, observers=observers)
            converged = plain.leader_identifier is not None

        row: dict[str, object] = {
            "workload": spec.workload,
            "network": network.name,
            "n": network.n,
            "edges": network.num_edges(),
            "parameter": spec.parameter if spec.parameter is not None else spec.network.size,
            "converged": converged,
            "messages_unoriented": plain.messages,
            "messages_oriented": oriented.messages,
            "message_savings": (
                plain.messages / oriented.messages if oriented.messages else None
            ),
            "rounds_unoriented": plain.rounds,
            "rounds_oriented": oriented.rounds,
        }
        if instr.enabled:
            # One engine-level phase: the synchronous simulator has no daemon
            # step loop to decompose, so the whole paired workload is the unit.
            instr.phase_time("workload_exec", time.perf_counter() - started)
            instr.count("messages_sent", plain.messages + oriented.messages)
            instr.count(
                "rounds_completed",
                (plain.rounds or 0) + (oriented.rounds or 0),
            )
        return RunResult(
            engine=self.name,
            spec=spec,
            row=row,
            report={"unoriented": plain, "oriented": oriented},
        )


def build_protocol(name: str):
    """The protocol stack behind a normalized protocol name.

    Decoded by :func:`~repro.analysis.convergence.protocol_stack`, which the
    measurement harness shares.
    """
    from repro.analysis.convergence import protocol_stack

    return protocol_stack(name)[0]


register_engine(SchedulerEngine())
register_engine(FullScanSchedulerEngine())
register_engine(ScenarioEngine())
register_engine(MsgpassEngine())


__all__ = [
    "Engine",
    "FullScanSchedulerEngine",
    "MsgpassEngine",
    "ScenarioEngine",
    "SchedulerEngine",
    "build_protocol",
    "engine_names",
    "get_engine",
    "register_engine",
    "run",
]
