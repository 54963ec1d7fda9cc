"""Run-level observability: instrumentation registry, span traces, profiling.

Three opt-in layers, cheapest first:

* :class:`Instrumentation` -- counters, gauges and phase timers the engine
  cores populate; its summary lands in ``RunResult.perf`` and campaign rows.
  The default is the shared :data:`NULL_INSTRUMENTATION` no-op, so nothing is
  paid until a caller passes a live registry.
* :class:`SpanTracer` -- structured run → round → step spans emitted as
  JSONL (attach via ``Instrumentation(tracer=...)`` or ``REPRO_TRACE=...``).
* :func:`maybe_profile` -- cProfile dumps per run/task via ``REPRO_PROFILE``.

On top of those ride two protocol-health observers (opt-in, observer-stream
only -- zero hot-loop cost when absent):

* :class:`ConvergenceTelemetryObserver` -- compact convergence time-series
  (enabled-set drain, dirty frontier, guard heat map, writes per node),
  persisted as the ``telemetry`` blob in ``RunResult`` / campaign rows.
* :class:`HealthMonitor` -- stall / round-budget watchdog emitting
  structured anomalies into the span stream and the ``health`` blob.
"""

from repro.obs.health import (
    HEALTH_SCHEMA,
    HealthMonitor,
    configuration_fingerprint,
    health_summary,
)
from repro.obs.instrument import (
    Instrumentation,
    NullInstrumentation,
    NULL_INSTRUMENTATION,
    PHASE_ACTION_EXEC,
    PHASE_DAEMON_SELECT,
    PHASE_GUARD_EVAL,
    PHASE_INIT,
    PHASE_LEGITIMACY,
    PHASE_OBSERVER_DISPATCH,
    SUMMARY_SCHEMA,
    merge_summaries,
    phase_seconds,
    summary_counter,
)
from repro.obs.profile import PROFILE_ENV, maybe_profile, profile_dir
from repro.obs.recorder import (
    DEFAULT_LOG_DIR,
    FlightRecorder,
    SCHEMA_VERSION as RECORDER_SCHEMA_VERSION,
)
from repro.obs.spans import (
    JsonlSpanSink,
    ListSpanSink,
    Span,
    SpanSink,
    SpanTracer,
    TRACE_ENV,
    tracer_from_env,
)
from repro.obs.telemetry import (
    ConvergenceTelemetryObserver,
    TELEMETRY_SCHEMA,
    enabled_trajectory,
    guard_heat_table,
)

__all__ = [
    "ConvergenceTelemetryObserver",
    "DEFAULT_LOG_DIR",
    "FlightRecorder",
    "HEALTH_SCHEMA",
    "HealthMonitor",
    "RECORDER_SCHEMA_VERSION",
    "Instrumentation",
    "JsonlSpanSink",
    "ListSpanSink",
    "NullInstrumentation",
    "NULL_INSTRUMENTATION",
    "PHASE_ACTION_EXEC",
    "PHASE_DAEMON_SELECT",
    "PHASE_GUARD_EVAL",
    "PHASE_INIT",
    "PHASE_LEGITIMACY",
    "PHASE_OBSERVER_DISPATCH",
    "PROFILE_ENV",
    "Span",
    "SpanSink",
    "SpanTracer",
    "SUMMARY_SCHEMA",
    "TELEMETRY_SCHEMA",
    "TRACE_ENV",
    "configuration_fingerprint",
    "enabled_trajectory",
    "guard_heat_table",
    "health_summary",
    "maybe_profile",
    "merge_summaries",
    "phase_seconds",
    "profile_dir",
    "summary_counter",
    "tracer_from_env",
]
