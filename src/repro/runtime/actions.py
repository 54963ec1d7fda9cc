"""Guarded actions (``<label> :: <guard> --> <statement>``)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.processor import ProcessorView

GuardFn = Callable[["ProcessorView"], bool]
StatementFn = Callable[["ProcessorView"], None]


@dataclass(frozen=True)
class Reads:
    """The variables a guard (or a legitimacy conjunct) reads, by owner.

    ``own`` are read at the processor itself, ``neighbor`` at its neighbors.
    A change of variable ``x`` at processor ``p`` can flip a declared
    predicate of ``p`` only when ``x`` is in ``own``, and a predicate of a
    neighbor of ``p`` only when ``x`` is in ``neighbor`` -- which is what lets
    the scheduler and the legitimacy tracker skip re-checks a change cannot
    affect.  Over-declaring is sound; under-declaring is caught by
    ``repro-lint`` and, at run time, by ``check_guard_locality`` (rule RL008).
    Build declarations once (module or instance constants), not per node.
    """

    own: frozenset[str] = frozenset()
    neighbor: frozenset[str] = frozenset()

    def __or__(self, other: "Reads") -> "Reads":
        """Both declarations' reads (a guard that calls another's predicate)."""
        return Reads(self.own | other.own, self.neighbor | other.neighbor)


@dataclass(frozen=True)
class Action:
    """One guarded action of a processor's program.

    Attributes
    ----------
    name:
        The action label (e.g. ``"Forward"``, ``"RN"``).  Labels are what hook
        compositions attach to and what traces report.
    guard:
        Boolean function of the processor's view (its own variables and its
        neighbors' variables).
    statement:
        Mutation of zero or more of the processor's *own* variables, applied
        through the view's ``write``; reads inside the statement see the
        writes already performed in the same atomic step.
    layer:
        Name of the protocol layer the action belongs to (for traces and
        move accounting of composed protocols).
    priority:
        Lower values run first when a processor has several enabled actions;
        protocols list error-correction rules before normal rules, matching
        the usual "rules are tried in order" reading of guarded-command
        programs.
    reads:
        What the guard reads (:class:`Reads`).  ``None`` -- the default --
        means "anything in the closed neighborhood", which is always sound:
        the scheduler then re-evaluates the guard after every change around
        the processor.
    """

    name: str
    guard: GuardFn
    statement: StatementFn
    layer: str = ""
    priority: int = 0
    reads: Reads | None = None

    def enabled(self, view: "ProcessorView") -> bool:
        """Evaluate the guard against ``view``."""
        return bool(self.guard(view))

    def execute(self, view: "ProcessorView") -> None:
        """Run the statement against ``view`` (writes are collected by the view)."""
        self.statement(view)

    def with_extra_statement(self, extra: StatementFn, suffix: str = "+hook") -> "Action":
        """A copy of this action whose statement additionally runs ``extra``.

        Used by :class:`~repro.runtime.composition.HookedComposition` to let an
        upper layer piggy-back on a lower layer's action (e.g. DFTNO's
        ``Nodelabel`` macro running when the token-circulation ``Forward``
        action fires), preserving the single-atomic-step semantics the paper
        assumes.
        """

        base_statement = self.statement

        def combined(view: "ProcessorView") -> None:
            base_statement(view)
            extra(view)

        return replace(self, statement=combined, name=f"{self.name}{suffix}")


__all__ = [
    "Action",
    "GuardFn",
    "Reads",
    "StatementFn",
]
