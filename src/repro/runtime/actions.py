"""Guarded actions (``<label> :: <guard> --> <statement>``)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.processor import ProcessorView

GuardFn = Callable[["ProcessorView"], bool]
StatementFn = Callable[["ProcessorView"], None]


#: Pointer-directed reads, normalised: ``(pointer, variables)`` pairs sorted by pointer.
PointerReads = tuple[tuple[str, frozenset[str]], ...]


def _pointer_reads(declared: "Mapping[str, Iterable[str]] | PointerReads") -> PointerReads:
    """``declared`` as sorted ``(pointer, variables)`` pairs (a mapping or such pairs)."""
    pairs = declared.items() if isinstance(declared, Mapping) else declared
    return tuple(sorted((pointer, frozenset(names)) for pointer, names in pairs))


@dataclass(frozen=True)
class Reads:
    """The variables a guard (or a violation rule) part reads, by owner.

    ``own`` are read at the processor itself, ``neighbor`` at any of its
    neighbors.  A change of variable ``x`` at processor ``p`` can flip a
    declared predicate of ``p`` only when ``x`` is in ``own``, and a
    predicate of a neighbor of ``p`` only when ``x`` is in ``neighbor`` --
    which is what lets the scheduler skip the guard and rule re-checks a
    change cannot affect.

    Two pointer-directed forms narrow a neighbor read to the neighbors a
    pointer variable picks out (both given as ``{pointer: variables}``):

    * ``via``: the part reads ``variables`` only at the neighbor its *own*
      ``pointer`` names (a parent, a delegated child).  The pointer must be
      in ``own``.  A change of ``x`` at ``p`` then stales the part only at
      the processors whose ``pointer`` names ``p``; moving the pointer is an
      own change, which stales the part at its holder.
    * ``named_by``: the part reads ``variables`` only at the neighbors whose
      ``pointer`` names the processor (a delegator), and reads ``pointer``
      at the other neighbors only to see that it does not.  The pointer
      must be in ``neighbor``.  A change at ``p`` then stales the part only
      at the processors ``p``'s pointer named before and names after it:
      at any other neighbor of ``p`` the part neither read nor reads ``p``'s
      ``variables``, and whether ``p`` names it stays "no".

    The scheduler keeps a shadow of every declared pointer with a reverse
    index (target -> holders) to find those processors.  Over-declaring is
    sound; under-declaring is caught by ``check_guard_locality`` (rule
    RL008, which also holds a pointer-directed read to the neighbor its
    pointer picks out), at run time and in ``repro-lint``'s read probe.  Build declarations once
    (module or instance constants), not per node.
    """

    own: frozenset[str] = frozenset()
    neighbor: frozenset[str] = frozenset()
    via: PointerReads = ()
    named_by: PointerReads = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "via", _pointer_reads(self.via))
        object.__setattr__(self, "named_by", _pointer_reads(self.named_by))

    @property
    def neighbor_reads(self) -> frozenset[str]:
        """Every variable the part may read at some neighbor (plain or pointer-directed)."""
        return self.neighbor.union(*(names for _, names in self.via + self.named_by))


#: One conjunct of a guard: a predicate and what it reads (``None``: anything).
GuardPart = tuple[GuardFn, Reads | None]


class Conjunction:
    """A guard declared as a conjunction of parts, each with its own reads.

    Built by :func:`all_of`.  Calling it evaluates the parts left to right
    and stops at the first false one, so it works anywhere a plain guard
    does.  The scheduler instead walks :attr:`parts` itself: it keeps one
    cached truth value per part and re-calls a part only when a change to a
    variable that part reads may have flipped it.
    """

    __slots__ = ("parts", "predicates")

    def __init__(self, parts: tuple[GuardPart, ...]) -> None:
        self.parts = parts
        self.predicates = tuple(predicate for predicate, _ in parts)

    def __call__(self, view: "ProcessorView") -> bool:
        for predicate in self.predicates:
            if not predicate(view):
                return False
        return True


class Not:
    """The negation of a guard predicate, for use as a guard or rule part.

    ``all_of((Not(predicate), reads), ...)`` holds where ``predicate`` does
    not.  Calling it returns ``not predicate(view)``, so it works anywhere a
    plain guard does.  The scheduler does not call it: it gives the part the
    cached bit of ``predicate`` under ``reads`` -- shared with every other
    part that tests ``predicate`` under equal reads, negated or not -- and
    reads a clear bit as "holds".  State a fact once and negate it where a
    guard needs its opposite, rather than writing a second predicate.
    """

    __slots__ = ("predicate",)

    def __init__(self, predicate: GuardFn) -> None:
        self.predicate = predicate

    def __call__(self, view: "ProcessorView") -> bool:
        return not self.predicate(view)


class Witness:
    """A guard part that also computes what its action's statement needs.

    ``Witness(function)`` holds where ``function(view) is not None`` (not
    where the value is truthy: a witness may be node 0).  Calling it returns
    that truth value, so it works anywhere a plain guard does, also inside
    :class:`Not`.  The scheduler calls ``function`` itself and keeps the
    value of its last call in the node's witness slot; since a part is
    re-called whenever a change to what it declares reading may have
    changed it, the kept value is exact while the part holds.  The statement
    reads it with :meth:`~repro.runtime.processor.ProcessorView.witness`,
    which calls ``function`` when no slot is kept (the reference
    interpreter, a statement called directly).  The part's bit is keyed by
    ``function``, so ``Witness(f)`` and ``Not(Witness(f))`` under equal reads
    share one bit; the same ``function`` may not also be a plain part there.
    """

    __slots__ = ("function",)

    def __init__(self, function: Callable[["ProcessorView"], object]) -> None:
        self.function = function

    def __call__(self, view: "ProcessorView") -> bool:
        return self.function(view) is not None


def all_of(*parts: GuardPart) -> Conjunction:
    """A guard that holds when every ``(predicate, reads)`` part holds.

    Order the parts so that a cheap part that is usually false comes first:
    the scheduler stops at the first false part and, until a change to what
    that part reads, calls none of the parts behind it.  Build the parts'
    :class:`Reads` once (module or instance constants).  A conjunction kept
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
        the processor.  A conjunction guard declares its reads per part
        instead (:attr:`guard_parts`) and leaves ``reads`` at ``None``;
        passing ``reads=`` as well is a :class:`ValueError`.

    The scheduler caches one truth value per distinct guard *part* (a plain
    guard is a one-part conjunction): parts with the same predicate object
    and equal :class:`Reads` share it, across actions and violation rules
    (a :class:`Not` part shares its predicate's).  Its ``guard_calls``
    counter counts the part calls of guard walks.
    """

    name: str
    guard: GuardFn
    statement: StatementFn
    layer: str = ""
    priority: int = 0
    reads: Reads | None = None

    def __post_init__(self) -> None:
        if isinstance(self.guard, Conjunction) and self.reads is not None:
            raise ValueError(
                f"action {self.name!r}: an all_of guard declares its reads per "
                f"part; do not pass reads= as well"
            )

    @property
    def guard_parts(self) -> tuple[GuardPart, ...]:
        """The guard's ``(predicate, reads)`` conjuncts, in evaluation order."""
        guard = self.guard
        if isinstance(guard, Conjunction):
            return guard.parts
        return ((guard, self.reads),)

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
    "Not",
    "PointerReads",
    "Reads",
    "Rule",
    "StatementFn",
    "Witness",
    "all_of",
]
