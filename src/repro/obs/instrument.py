"""The instrumentation registry: counters, gauges, and phase timers.

One :class:`Instrumentation` object accompanies one run.  The execution cores
feed it three kinds of measurements:

* **counters** -- monotonically accumulated totals (``guards_evaluated``
  counts processors re-walked, ``guard_calls`` the guard-part calls -- one
  per ``all_of`` conjunct called, a plain guard being one part --
  ``steps_timed``; fractional values like ``step_seconds`` are fine);
* **gauges** -- per-observation samples of a fluctuating quantity (dirty-set
  size, enabled-set size), summarized as count/sum/min/max so any two
  summaries merge associatively;
* **phase timers** -- wall-clock attributed to a named phase of the step loop
  (``guard_eval``, ``daemon_select``, ``action_exec``, ``observer_dispatch``)
  or of the run around it (``init``, ``legitimacy``), as ``(seconds, count)``
  pairs.

**The disabled path costs (almost) nothing.**  Every scheduler holds an
instrumentation object; when none was requested it holds the shared
:data:`NULL_INSTRUMENTATION`, whose class attribute ``enabled`` is ``False``.
Hot loops hoist that flag once (``timed = instr.enabled``) and skip both the
``time.perf_counter()`` calls and the recording behind a single branch, so a
run without instrumentation executes the same step loop it did before the
layer existed, give or take a handful of predictable branches per step.

Summaries (:meth:`Instrumentation.summary`) are plain JSON-serializable
dictionaries -- exactly what lands in ``RunResult.perf`` and in campaign
store rows -- and merge associatively via :func:`merge_summaries`, which is
what lets per-trial summaries and per-campaign aggregates share one
representation.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanTracer

#: Phase names the scheduler cores report.  Alternative cores may add their
#: own; these are the ones the step loop itself attributes.
PHASE_GUARD_EVAL = "guard_eval"
PHASE_DAEMON_SELECT = "daemon_select"
PHASE_ACTION_EXEC = "action_exec"
PHASE_OBSERVER_DISPATCH = "observer_dispatch"
#: Legitimacy checking, booked by ``Scheduler.legitimate`` outside the step.
PHASE_LEGITIMACY = "legitimacy"
#: Scheduler construction (the drawn configuration, validation, the action
#: and rule tables, the processor views), booked once per run.
PHASE_INIT = "init"

#: The summary schema version, bumped if the dictionary shape ever changes.
SUMMARY_SCHEMA = 1


class Instrumentation:
    """Mutable per-run registry of counters, gauges and phase timers.

    ``tracer`` optionally attaches a :class:`~repro.obs.spans.SpanTracer`;
    cores that see one emit structured span records alongside the aggregate
    timers.  The registry itself is engine-agnostic: anything that can name a
    counter can use it.
    """

    #: Hot loops hoist this once per step; the null subclass flips it.
    enabled: bool = True

    __slots__ = ("counters", "gauges", "phases", "tracer")

    def __init__(self, tracer: "SpanTracer | None" = None) -> None:
        self.counters: dict[str, float] = {}
        #: name -> [count, total, min, max]
        self.gauges: dict[str, list[float]] = {}
        #: name -> [seconds, count]
        self.phases: dict[str, list[float]] = {}
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record one sample of gauge ``name``."""
        entry = self.gauges.get(name)
        if entry is None:
            self.gauges[name] = [1, value, value, value]
        else:
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value

    def phase_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of wall clock to phase ``name``."""
        entry = self.phases.get(name)
        if entry is None:
            self.phases[name] = [seconds, count]
        else:
            entry[0] += seconds
            entry[1] += count

    def phase(self, name: str) -> "_PhaseTimer":
        """Context manager timing a phase (convenience for cold paths)."""
        return _PhaseTimer(self, name)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """The JSON-serializable aggregate of everything recorded so far."""
        out: dict[str, Any] = {
            "schema": SUMMARY_SCHEMA,
            "counters": {name: value for name, value in sorted(self.counters.items())},
            "gauges": {
                name: {
                    "count": entry[0],
                    "sum": entry[1],
                    "min": entry[2],
                    "max": entry[3],
                    "mean": entry[1] / entry[0] if entry[0] else None,
                }
                for name, entry in sorted(self.gauges.items())
            },
            "phases": {
                name: {"seconds": entry[0], "count": entry[1]}
                for name, entry in sorted(self.phases.items())
            },
        }
        return out

    def merge_summary(self, summary: Mapping[str, Any]) -> None:
        """Fold a :meth:`summary`-shaped dictionary into this registry.

        The inverse of :meth:`summary` up to representation: counters and
        phase timers add, and gauges combine their count/sum/min/max moments.
        Keys it does not know (such as the per-shard ``"shards"`` map older
        rows carry) are ignored.  Folding
        summaries in any order yields the same state (the merge is
        commutative and associative), which the instrumentation test suite
        pins down.
        """
        for name, value in summary.get("counters", {}).items():
            self.count(name, value)
        for name, stats in summary.get("gauges", {}).items():
            entry = self.gauges.get(name)
            if entry is None:
                self.gauges[name] = [stats["count"], stats["sum"], stats["min"], stats["max"]]
            else:
                entry[0] += stats["count"]
                entry[1] += stats["sum"]
                entry[2] = min(entry[2], stats["min"])
                entry[3] = max(entry[3], stats["max"])
        for name, stats in summary.get("phases", {}).items():
            self.phase_time(name, stats["seconds"], stats["count"])


class _PhaseTimer:
    """``with instr.phase("name"):`` -- explicit timer for cold paths."""

    __slots__ = ("_instrumentation", "_name", "_started")

    def __init__(self, instrumentation: Instrumentation, name: str) -> None:
        self._instrumentation = instrumentation
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._instrumentation.phase_time(self._name, time.perf_counter() - self._started)


class NullInstrumentation(Instrumentation):
    """The do-nothing implementation the disabled path runs against.

    Every recording method is an explicit no-op (not inherited), so even a
    caller that skips the ``enabled`` check pays only an empty call.  Shared
    safely between any number of schedulers because it holds no state.
    """

    enabled = False

    __slots__ = ()

    def count(self, name: str, value: float = 1) -> None:  # noqa: D102 - no-op
        pass

    def gauge(self, name: str, value: float) -> None:  # noqa: D102 - no-op
        pass

    def phase_time(self, name: str, seconds: float, count: int = 1) -> None:  # noqa: D102
        pass

    def merge_summary(self, summary: Mapping[str, Any]) -> None:  # noqa: D102 - no-op
        pass

    def summary(self) -> dict[str, Any]:
        """Always empty: the null registry never accumulates anything."""
        return {}


#: The shared no-op instance every uninstrumented scheduler holds.
NULL_INSTRUMENTATION = NullInstrumentation()


def merge_summaries(*summaries: Mapping[str, Any] | None) -> dict[str, Any]:
    """Merge any number of :meth:`Instrumentation.summary` dictionaries.

    Associative and commutative: counters/phases add, gauges combine moments.
    ``None`` and empty summaries are ignored;
    merging nothing yields an empty dictionary.
    """
    merged = Instrumentation()
    for summary in summaries:
        if summary:
            merged.merge_summary(summary)
    if not (merged.counters or merged.gauges or merged.phases):
        return {}
    return merged.summary()


def phase_seconds(summary: Mapping[str, Any] | None, *names: str) -> float:
    """Total seconds attributed to ``names`` (all phases when none given)."""
    phases = (summary or {}).get("phases", {})
    if not names:
        names = tuple(phases)
    return float(sum(phases[name]["seconds"] for name in names if name in phases))


def summary_counter(summary: Mapping[str, Any] | None, name: str, default: float = 0.0) -> float:
    """Counter ``name`` out of a summary dictionary (``default`` if absent)."""
    return float((summary or {}).get("counters", {}).get(name, default))


__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "NULL_INSTRUMENTATION",
    "PHASE_ACTION_EXEC",
    "PHASE_DAEMON_SELECT",
    "PHASE_GUARD_EVAL",
    "PHASE_INIT",
    "PHASE_LEGITIMACY",
    "PHASE_OBSERVER_DISPATCH",
    "SUMMARY_SCHEMA",
    "merge_summaries",
    "phase_seconds",
    "summary_counter",
]
