"""Observers that ship with the unified API.

The base vocabulary (:class:`~repro.runtime.observers.Observer`,
:class:`~repro.runtime.observers.MetricsObserver`,
:class:`~repro.runtime.observers.ProgressObserver`,
:class:`~repro.runtime.observers.CallbackObserver`) lives in
:mod:`repro.runtime.observers` next to the scheduler that emits the
notifications; this module re-exports it and adds the analysis-flavored
observers that used to be hard-wired into individual harnesses.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.recovery import EventRecovery, aggregate_event_recoveries
from repro.runtime.observers import (
    CallbackObserver,
    MetricsObserver,
    Observer,
    ProgressObserver,
)


class RecoveryObserver(Observer):
    """Collects per-event recovery records from scenario executions.

    Plugged into :func:`repro.api.run` (or a
    :class:`~repro.scenarios.runner.ScenarioRunner` directly), it accumulates
    every :class:`~repro.analysis.recovery.EventRecovery` across any number of
    runs and aggregates them by event kind -- the observer form of the
    recovery-analysis plumbing the scenario harness used to own exclusively.
    """

    def __init__(self) -> None:
        self.events: list[EventRecovery] = []
        self.converged_runs = 0

    def on_event(self, source: Any, event: Any) -> None:
        if isinstance(event, EventRecovery):
            self.events.append(event)

    def on_converged(self, source: Any, result: Any) -> None:
        self.converged_runs += 1

    @property
    def applied_events(self) -> tuple[EventRecovery, ...]:
        """The collected events that actually fired."""
        return tuple(event for event in self.events if event.applied)

    def aggregate(self) -> list[dict[str, object]]:
        """Per-event-kind recovery aggregates over everything collected."""
        return aggregate_event_recoveries([self])


__all__ = [
    "CallbackObserver",
    "MetricsObserver",
    "Observer",
    "ProgressObserver",
    "RecoveryObserver",
]
