"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class NetworkError(ReproError):
    """Raised when a network/topology is malformed (disconnected, bad root, ...)."""


class ProtocolError(ReproError):
    """Raised when a protocol definition is inconsistent.

    Examples: two composed layers declare the same variable name, an action
    writes a variable that was never declared, or a protocol is asked to run
    on a network it does not support (e.g. a ring protocol on a tree).
    """


class GuardLocalityError(ProtocolError):
    """A guard or violation rule read state outside its closed neighborhood
    (rule RL004) or outside its declared reads (RL008; per ``all_of`` part)
    -- the debug tracker.

    Raised by a guard or rule walk (:func:`repro.runtime.scheduler.evaluate_guards`)
    when ``check_guard_locality`` is on.  Carries enough attribution to tell
    *which* layer and guard tripped -- the node, the layer and name of the
    action (or rule) holding the part (of a part several hold, the first in
    walk order), the lint rule id, and the offending ``(processor, variable)`` reads -- so
    the failure formats like a ``repro-lint`` finding
    (:func:`repro.lint.findings.finding_from_guard_error`) instead of an
    anonymous mid-step crash.
    """

    def __init__(
        self,
        message: str,
        node: int | None = None,
        layer: str = "",
        action: str = "",
        rule: str = "RL004",
        reads: tuple = (),
    ) -> None:
        super().__init__(message)
        self.node = node
        self.layer = layer
        self.action = action
        self.rule = rule
        self.reads = tuple(reads)


class SchedulingError(ReproError):
    """Raised when the scheduler or a daemon is used incorrectly."""


class ConvergenceError(ReproError):
    """Raised when an execution fails to reach the requested predicate.

    Carries the number of steps executed so callers can report partial
    progress.
    """

    def __init__(self, message: str, steps: int | None = None) -> None:
        super().__init__(message)
        self.steps = steps


class SpecificationError(ReproError):
    """Raised when a configuration violates a problem specification check
    that the caller required to hold (e.g. asking for the orientation of an
    unoriented network)."""


class RoutingError(ReproError):
    """Raised when a sense-of-direction routing request cannot be satisfied."""


class SimulationError(ReproError):
    """Raised by the synchronous message-passing simulator on misuse."""


class ReplayError(ReproError):
    """Raised when a flight-recorder log cannot be read or replayed --
    malformed entries, an unresolvable protocol, or a value recorded by
    ``repr`` only.  A *divergence* between a log and a live re-execution is
    not an error: it is the :class:`repro.replay.Divergence` result the
    replay machinery exists to localize."""
