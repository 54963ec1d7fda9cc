"""Guarded actions (``<label> :: <guard> --> <statement>``)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.processor import ProcessorView

GuardFn = Callable[["ProcessorView"], bool]
StatementFn = Callable[["ProcessorView"], None]


@dataclass(frozen=True)
class Reads:
    """The variables a guard (or a violation rule) part reads, by owner.

    ``own`` are read at the processor itself, ``neighbor`` at its neighbors.
    A change of variable ``x`` at processor ``p`` can flip a declared
    predicate of ``p`` only when ``x`` is in ``own``, and a predicate of a
    neighbor of ``p`` only when ``x`` is in ``neighbor`` -- which is what lets
    the scheduler skip the guard and rule re-checks a change cannot
    affect.  Over-declaring is sound; under-declaring is caught by
    ``repro-lint`` and, at run time, by ``check_guard_locality`` (rule RL008).
    Build declarations once (module or instance constants), not per node.
    """

    own: frozenset[str] = frozenset()
    neighbor: frozenset[str] = frozenset()

    def __or__(self, other: "Reads") -> "Reads":
        """Both declarations' reads (a guard that calls another's predicate)."""
        return Reads(self.own | other.own, self.neighbor | other.neighbor)


#: One conjunct of a guard: a predicate and what it reads (``None``: anything).
GuardPart = tuple[GuardFn, Reads | None]


@lru_cache(maxsize=None)
def _union(declarations: tuple[Reads | None, ...]) -> Reads | None:
    """The union of ``declarations`` (``None`` if any part reads anything).

    Memoised, so the conjunctions of every node share one union object.
    """
    union = Reads()
    for reads in declarations:
        if reads is None:
            return None
        union = union | reads
    return union


class Conjunction:
    """A guard declared as a conjunction of parts, each with its own reads.

    Built by :func:`all_of`.  Calling it evaluates the parts left to right
    and stops at the first false one, so it works anywhere a plain guard
    does.  The scheduler instead walks :attr:`parts` itself: it keeps one
    cached truth value per part and re-calls a part only when a change to a
    variable that part reads may have flipped it.
    """

    __slots__ = ("parts", "predicates", "reads")

    def __init__(self, parts: tuple[GuardPart, ...]) -> None:
        self.parts = parts
        self.predicates = tuple(predicate for predicate, _ in parts)
        self.reads = _union(tuple(reads for _, reads in parts))

    def __call__(self, view: "ProcessorView") -> bool:
        for predicate in self.predicates:
            if not predicate(view):
                return False
        return True


def all_of(*parts: GuardPart) -> Conjunction:
    """A guard that holds when every ``(predicate, reads)`` part holds.

    Order the parts so that a cheap part that is usually false comes first:
    the scheduler stops at the first false part and, until a change to what
    that part reads, calls none of the parts behind it.  Build the parts'
    :class:`Reads` once (module or instance constants); the union is
    memoised, so conjunctions built per node share one.  A conjunction kept
    on a protocol instance should hold plain functions: methods bound to the
    instance make a reference cycle that only a full collection frees.
    """
    return Conjunction(parts)


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
        neighbors' variables): a plain predicate, or a conjunction built by
        :func:`all_of` whose parts each declare their own reads.  Guards
        only read; the view they run on raises on ``write``.
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
        the processor.  A conjunction guard declares its reads per part, and
        ``reads`` is then their union; passing ``reads=`` as well is a
        :class:`ValueError`.

    The scheduler caches one truth value per guard *part* (a plain guard is
    a one-part conjunction), and its ``guard_calls`` counter counts part
    calls.
    """

    name: str
    guard: GuardFn
    statement: StatementFn
    layer: str = ""
    priority: int = 0
    reads: Reads | None = None

    def __post_init__(self) -> None:
        guard = self.guard
        if isinstance(guard, Conjunction):
            # ``dataclasses.replace`` hands the union back in; anything else
            # is a second, competing declaration.
            if self.reads is not None and self.reads is not guard.reads:
                raise ValueError(
                    f"action {self.name!r}: an all_of guard declares its reads per "
                    f"part; do not pass reads= as well"
                )
            object.__setattr__(self, "reads", guard.reads)

    @property
    def guard_parts(self) -> tuple[GuardPart, ...]:
        """The guard's ``(predicate, reads)`` conjuncts, in evaluation order."""
        guard = self.guard
        if isinstance(guard, Conjunction):
            return guard.parts
        return ((guard, self.reads),)

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


@dataclass(frozen=True)
class Rule:
    """One violation rule of a protocol layer's per-node legitimacy.

    A processor violates the layer while ``guard`` -- an :func:`all_of`
    conjunction whose parts each declare their reads -- holds on its
    read-only view; it is legitimate for the layer when none of its rules
    holds (see :meth:`~repro.runtime.protocol.Protocol.violation_rules`).
    The scheduler walks rules exactly as it walks guards, with the same
    cached part bits, so the parts obey the guard contract: they read only
    the closed neighborhood and only what they declare.
    """

    name: str
    guard: Conjunction
    layer: str = ""

    @property
    def guard_parts(self) -> tuple[GuardPart, ...]:
        """The rule's ``(predicate, reads)`` conjuncts, in evaluation order."""
        return self.guard.parts


__all__ = [
    "Action",
    "Conjunction",
    "GuardFn",
    "GuardPart",
    "Reads",
    "Rule",
    "StatementFn",
    "all_of",
]
