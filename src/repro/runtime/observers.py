"""Pluggable execution observers: the instrumentation seam of every engine.

Historically each consumer of the :class:`~repro.runtime.scheduler.Scheduler`
hard-wired its own bookkeeping -- the scheduler updated metrics inline, the
scenario runner kept recovery records, experiments re-implemented
progress printing.  Observers replace that plumbing with one small protocol
shared by every execution engine (the daemon-step scheduler, the scenario
runner and the synchronous message-passing simulator):

* :meth:`Observer.on_step` -- after every computation step, with the
  :class:`~repro.runtime.scheduler.StepRecord` (whose ``moves`` carry the
  per-processor action, layer and variable changes);
* :meth:`Observer.on_round` -- whenever an asynchronous round (or a
  message-passing round) completes;
* :meth:`Observer.on_event` -- when a scenario event fires (the payload is
  the per-event recovery record);
* :meth:`Observer.on_converged` -- once, when the engine's stop condition is
  reached (legitimacy, quiescence, scenario completion).

The scheduler's own metrics are themselves an observer
(:class:`MetricsObserver`) registered by the constructor, so
``scheduler.metrics`` keeps working while external observers plug into
exactly the same stream.  The step stream is also the one record of every
move: to keep the moves of a run, collect them from it --

>>> records = []
>>> observer = CallbackObserver(on_step=lambda source, record: records.append(record))

-- and read each record's ``moves``
(:class:`~repro.runtime.scheduler.MoveRecord`: node, action, layer and the
``variable -> (old, new)`` changes).  For a persistent, replayable log use
the flight recorder (:class:`repro.obs.recorder.FlightRecorder`).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Callable, Mapping, MutableSequence

from repro.runtime.metrics import ExecutionMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.scheduler import StepRecord


class ObserverFailureWarning(UserWarning):
    """An observer raised inside a notification hook and was disabled."""


def dispatch_safely(
    observers: MutableSequence[Observer], hook: str, source: Any, payload: Any
) -> None:
    """Notify every observer, isolating failures from the run.

    An observer whose hook raises must not corrupt the computation it is
    merely watching: the exception is converted to a single
    :class:`ObserverFailureWarning` and the observer is removed from
    ``observers`` in place, so it is never called again.  Control-flow
    exceptions (``KeyboardInterrupt`` and friends are not ``Exception``
    subclasses) still propagate.

    Every engine's notification loops route through this helper, so the
    fault-isolation contract is identical for the daemon-step scheduler, the
    scenario runner and the message-passing simulator.
    """
    failed: list[Observer] | None = None
    for observer in observers:
        try:
            getattr(observer, hook)(source, payload)
        except Exception as exc:
            warnings.warn(
                f"observer {type(observer).__name__} raised in {hook} and was "
                f"disabled for the rest of the run: {type(exc).__name__}: {exc}",
                ObserverFailureWarning,
                stacklevel=2,
            )
            if failed is None:
                failed = []
            failed.append(observer)
    if failed is not None:
        for observer in failed:
            try:
                observers.remove(observer)
            except ValueError:  # already removed (re-entrant dispatch)
                pass


class Observer:
    """Base class for execution observers; every hook is optional.

    ``source`` is the engine notifying the observer -- a ``Scheduler`` for
    step/round notifications in the shared-variable model, a
    ``SynchronousSimulator`` for message-passing rounds, a ``ScenarioRunner``
    context for scenario events.  Observers that only care about one engine
    kind can ignore it.
    """

    def on_run_start(self, source: Any, payload: Any) -> None:
        """The engine finished constructing its execution state.

        Dispatched once by the scheduler at the end of ``__init__``, before
        any step executes -- the only point where an observer can capture the
        *initial* configuration (the flight recorder does).  ``payload`` is
        currently ``None``.
        """

    def on_step(self, source: Any, record: "StepRecord") -> None:
        """One computation step was executed."""

    def on_round(self, source: Any, round_index: int) -> None:
        """Round ``round_index`` completed (asynchronous or message-passing)."""

    def on_event(self, source: Any, event: Any) -> None:
        """A scenario event fired; ``event`` is its recovery record."""

    def on_mutation(self, source: Any, mutation: Mapping[str, Any]) -> None:
        """Out-of-band state surgery happened between steps.

        ``mutation`` is a dictionary whose ``"kind"`` names the scheduler
        seam that fired -- ``set_configuration``, ``set_daemon``,
        ``set_network``, ``freeze``, ``unfreeze`` or ``replace_node`` -- with
        kind-specific payload entries.  Scenario events mutate exclusively
        through these seams, so an observer seeing every step *and* every
        mutation has the complete causal record of the execution.
        """

    def on_converged(self, source: Any, result: Any) -> None:
        """The engine's stop condition was reached; ``result`` is its outcome."""


class MetricsObserver(Observer):
    """Accumulates :class:`~repro.runtime.metrics.ExecutionMetrics` from steps.

    Each step's moves are counted in one
    :meth:`~repro.runtime.metrics.ExecutionMetrics.record_moves` pass; the
    scheduler registers one instance by default and exposes its counters as
    ``scheduler.metrics``.
    """

    def __init__(self, metrics: ExecutionMetrics | None = None) -> None:
        self.metrics = metrics if metrics is not None else ExecutionMetrics()

    def on_step(self, source: Any, record: "StepRecord") -> None:
        self.metrics.record_moves(record.moves)
        self.metrics.steps = record.step + 1

    def on_round(self, source: Any, round_index: int) -> None:
        self.metrics.rounds = round_index


class ProgressObserver(Observer):
    """Periodic progress reporting: calls ``emit`` every ``every_steps`` steps.

    The default ``emit`` is :func:`print`; campaigns and long examples pass
    their own sink.  Also reports scenario events and convergence, so a silent
    multi-minute run stays legible.
    """

    def __init__(
        self,
        every_steps: int = 1_000,
        emit: Callable[[str], None] = print,
    ) -> None:
        if every_steps < 1:
            raise ValueError("every_steps must be >= 1")
        self.every_steps = every_steps
        self.emit = emit
        self.steps = 0
        self.rounds = 0

    def on_step(self, source: Any, record: "StepRecord") -> None:
        self.steps = record.step + 1
        if self.steps % self.every_steps == 0:
            self.emit(f"progress: {self.steps} steps, {self.rounds} rounds")

    def on_round(self, source: Any, round_index: int) -> None:
        self.rounds = round_index

    def on_event(self, source: Any, event: Any) -> None:
        kind = getattr(event, "kind", type(event).__name__)
        description = getattr(event, "description", "")
        self.emit(f"event: {kind} {description}".rstrip())

    def on_converged(self, source: Any, result: Any) -> None:
        self.emit(f"converged after {self.steps} steps, {self.rounds} rounds")


class CallbackObserver(Observer):
    """Adapter turning plain callables into an observer.

    >>> CallbackObserver(on_step=lambda source, record: counts.append(record))
    """

    def __init__(
        self,
        on_step: Callable[[Any, Any], None] | None = None,
        on_round: Callable[[Any, int], None] | None = None,
        on_event: Callable[[Any, Any], None] | None = None,
        on_converged: Callable[[Any, Any], None] | None = None,
    ) -> None:
        self._on_step = on_step
        self._on_round = on_round
        self._on_event = on_event
        self._on_converged = on_converged

    def on_step(self, source: Any, record: "StepRecord") -> None:
        if self._on_step is not None:
            self._on_step(source, record)

    def on_round(self, source: Any, round_index: int) -> None:
        if self._on_round is not None:
            self._on_round(source, round_index)

    def on_event(self, source: Any, event: Any) -> None:
        if self._on_event is not None:
            self._on_event(source, event)

    def on_converged(self, source: Any, result: Any) -> None:
        if self._on_converged is not None:
            self._on_converged(source, result)


def source_legitimacy(source: Any) -> bool | None:
    """Whether the configuration an observer's ``source`` holds is legitimate.

    A source with a ``legitimate()`` method (either scheduler core) answers
    through it.  ``None`` for any other source, or when the method raises (a
    partial stack mid-scenario must not kill the run).
    """
    try:
        legitimate = getattr(source, "legitimate", None)
        return None if legitimate is None else bool(legitimate())
    except Exception:
        return None


__all__ = [
    "CallbackObserver",
    "MetricsObserver",
    "Observer",
    "ObserverFailureWarning",
    "ProgressObserver",
    "dispatch_safely",
    "source_legitimacy",
]
