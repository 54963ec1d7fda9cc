"""The execution engine: computation steps, rounds, and convergence detection.

A *computation step* follows the paper's distributed-daemon semantics: the
daemon selects a non-empty subset of the enabled processors; each selected
processor atomically evaluates its first enabled action against the
configuration at the beginning of the step and its writes are applied at the
end of the step.

A *round* is the standard asynchronous round: the shortest suffix of the
execution in which every processor that was continuously enabled since the
beginning of the round has executed at least one action or has become
disabled.  Rounds are what the O(n) / O(h) stabilization bounds of the two
orientation protocols are measured in.
"""

from __future__ import annotations

import hashlib
import linecache
import os
import random
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.errors import GuardLocalityError, SchedulingError
from repro.graphs.network import RootedNetwork
from repro.obs.instrument import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    PHASE_ACTION_EXEC,
    PHASE_DAEMON_SELECT,
    PHASE_GUARD_EVAL,
    PHASE_INIT,
    PHASE_LEGITIMACY,
    PHASE_OBSERVER_DISPATCH,
)
from repro.runtime.actions import Action, Not, Reads, Rule, Witness
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.runtime.metrics import ExecutionMetrics
from repro.runtime.observers import MetricsObserver, Observer, dispatch_safely
from repro.runtime.processor import (
    GuardView,
    ProcessorView,
    TrackingGuardView,
    _ReadTrackingConfiguration,
)
from repro.runtime.protocol import Protocol


#: One compiled guard or rule part: ``(predicate, bit, negated, witness)``.
#: ``bit`` is the part's cached bit, shared by every part of the node's
#: program that tests the same predicate object under equal reads;
#: ``negated`` is ``bit`` for a :class:`~repro.runtime.actions.Not` part (it
#: holds when the bit is clear) and 0 otherwise; ``witness`` is, for a
#: :class:`~repro.runtime.actions.Witness` part, the function whose value the
#: node's witness slot keeps (``predicate`` returns that value), else ``None``.
Step = tuple[Callable[[GuardView], object], int, int, "Callable | None"]

#: A guard kernel: ``(stale, held, view) -> (index, held, stale, consulted, calls)``.
GuardKernel = Callable[[int, int, GuardView], tuple[int, int, int, int, int]]
#: A rule kernel: ``(node, hot, watched, stale, held, view, violations) ->
#: (held, stale, watching, walked, calls)``.
RuleKernel = Callable[..., tuple[int, int, int, int, int]]

#: Kernel factories by program shape (:func:`compile_kernels`), each with its
#: ``linecache`` name and entry, shared by every scheduler, so a campaign
#: generates each shape's code once.  Cleared whole when it grows past
#: :data:`_KERNEL_SHAPES` shapes.
_KERNELS: dict[tuple, tuple[str, tuple, Callable]] = {}
_KERNEL_SHAPES = 64
#: Source lines one decision tree may take; past them its open branches
#: resume on a linear walk, so a kernel's size stays bounded on any program.
_TREE_LINES = 300


class _KernelWriter:
    """The Python source of one program shape's guard kernel and rule kernel.

    A walk goes through a list of entries -- the actions in priority order,
    or one layer's rules -- and finds the first whose parts all hold.  Each
    walk is written as a decision tree: a part is refreshed inline (called
    when its stale bit is set, its held bit updated, a witness part's value
    kept in the view's witness slot) and then branched on, and a part whose
    truth is known on the path is not tested again; each leaf knows its
    entry and its consulted bits as constants.  Past :data:`_TREE_LINES`, a
    branch resumes on a linear walk from its entry instead (the ``tails``),
    which re-reads the held bits the path knows and calls nothing more.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.tails: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def refresh(self, depth: int, part: tuple[int, bool, bool]) -> None:
        """Call ``part`` if its bit is stale: clear the stale bit, set the held bit."""
        position, _, witness = part
        bit = 1 << position
        self.line(depth, f"if stale & {bit}:")
        self.line(depth + 1, "calls += 1")
        self.line(depth + 1, f"stale ^= {bit}")
        if witness:
            self.line(depth + 1, f"value = p{position}(view)")
            self.line(depth + 1, f"view._witnesses[w{position}] = value")
            self.line(depth + 1, f"held = held & {~bit} if value is None else held | {bit}")
        else:
            self.line(depth + 1, f"held = held | {bit} if p{position}(view) else held & {~bit}")

    def tree(self, entries, prefix: str, depth: int, leaf, resume) -> None:
        """Write the walk of ``entries``; ``leaf(depth, index, consulted)`` writes its end.

        ``index`` is the first entry that holds (``len(entries)``: none).
        ``resume(depth, index, consulted)`` writes a hand-over to the linear
        walk named ``prefix`` from entry ``index``.
        """
        limit = len(self.lines) + _TREE_LINES
        first = len(entries)

        def walk(depth: int, index: int, at: int, known: dict[int, bool], consulted: int) -> None:
            nonlocal first
            while index < len(entries) and at < len(entries[index]):
                position, negated, _ = entries[index][at]
                consulted |= 1 << position
                if position not in known:
                    break
                index, at = (index, at + 1) if known[position] != negated else (index + 1, 0)
            else:
                leaf(depth, index, consulted)
                return
            if len(self.lines) > limit:
                first = min(first, index)
                resume(depth, index, consulted)
                return
            part = entries[index][at]
            position, negated, _ = part
            self.refresh(depth, part)
            self.line(depth, f"if held & {1 << position}:")
            for truth in (True, False):
                if not truth:
                    self.line(depth, "else:")
                following = (index, at + 1) if truth != negated else (index + 1, 0)
                walk(depth + 1, *following, {**known, position: truth}, consulted)

        walk(depth, 0, 0, {}, 0)
        if first < len(entries):
            self.linear(entries, prefix, first)

    def linear(self, entries, prefix: str, first: int) -> None:
        """Write the linear walks ``prefix{i}`` from entry ``i >= first``, each calling the next.

        Flat code: an entry's false part hands over to the next entry's walk.
        """
        body, self.lines = self.lines, self.tails
        for index in range(first, len(entries) + 1):
            self.line(1, f"def {prefix}{index}(stale, held, view, calls, consulted):")
            for part in entries[index] if index < len(entries) else ():
                position, negated, _ = part
                bit = 1 << position
                self.line(2, f"consulted |= {bit}")
                self.refresh(2, part)
                self.line(2, f"if {'' if negated else 'not '}held & {bit}:")
                self.line(3, f"return {prefix}{index + 1}(stale, held, view, calls, consulted)")
            self.line(2, f"return {index}, held, stale, consulted, calls")
        self.lines = body

    def source(self, parts: int, witnesses: Sequence[int], guard_shape, rule_shape) -> str:
        """The factory ``bind(calls, keys) -> (guard kernel, rule kernel)``."""
        line = self.line
        line(1, "def guards(stale, held, view):")
        line(2, "calls = 0")
        self.tree(
            guard_shape, "g", 2,
            lambda depth, index, consulted: line(
                depth, f"return {index}, held, stale, {consulted}, calls"
            ),
            lambda depth, index, consulted: line(
                depth, f"return g{index}(stale, held, view, calls, {consulted})"
            ),
        )
        line(1, "def rules(node, hot, watched, stale, held, view, violations):")
        line(2, "watching = walked = calls = 0")
        for number, (slot, entries, mask) in enumerate(rule_shape):
            count, prefix = len(entries), f"r{number}_"

            def leaf(depth: int, index: int, consulted: int, slot=slot, count=count) -> None:
                line(depth, f"violations[{slot}].{'add' if index < count else 'discard'}(node)")
                line(depth, f"consulted = {consulted}")

            def resume(depth: int, index: int, consulted: int, slot=slot, count=count,
                       prefix=prefix) -> None:
                line(depth, f"index, held, stale, consulted, calls = "
                            f"{prefix}{index}(stale, held, view, calls, {consulted})")
                line(depth, f"if index < {count}:")
                line(depth + 1, f"violations[{slot}].add(node)")
                line(depth, "else:")
                line(depth + 1, f"violations[{slot}].discard(node)")

            line(2, f"if hot & watched & {mask}:")
            self.tree(entries, prefix, 3, leaf, resume)
            line(3, "if hot & consulted:")
            line(4, "walked += 1")
            line(3, "watching |= consulted")
            line(2, "else:")
            line(3, f"watching |= watched & {mask}")
        line(2, "return held, stale, watching, walked, calls")
        head = [
            f"# guard kernel: {len(guard_shape)} actions, {len(rule_shape)} rule segments",
            "def bind(calls, keys):",
        ]
        if parts:
            head.append("    " + "".join(f"p{position}, " for position in range(parts)) + "= calls")
        head.extend(f"    w{position} = keys[{position}]" for position in witnesses)
        return "\n".join([*head, *self.tails, *self.lines, "    return guards, rules", ""])


def compile_kernels(
    walks: Sequence[tuple[Step, ...]], segments: Sequence["Segment"]
) -> tuple[GuardKernel, RuleKernel]:
    """A compiled program's guard kernel and rule kernel, bound to its parts.

    The guard kernel is the scheduler's one guard walk: ``guards(stale,
    held, view)`` finds the first action of ``walks`` whose parts all hold,
    calling only stale parts.  Bit ``b`` of ``held`` records whether the
    predicate of bit ``b`` held when last called, and bit ``b`` of ``stale``
    that a change since then may have flipped it (or that it was never
    called); a full scan is ``stale=-1``.  It returns ``(index, held, stale,
    consulted, calls)``: the first enabled action's index (``len(walks)``
    when none is), the updated masks, the bits the walk consulted and the
    number of parts it called.  A part shared by several actions is called
    at most once per walk, and a part whose truth the walk already knows is
    not tested again -- so the answer equals a fresh scan, with at most as
    many calls.  Only a change that flips a consulted bit can change the
    answer.

    The rule kernel walks the leaf layers' rule segments the same way:
    ``rules(node, hot, watched, stale, held, view, violations)`` re-walks a
    segment only when a bit of its mask is both ``hot`` (staled since the
    node's last rule walk) and ``watched`` (consulted by it), adds ``node``
    to ``violations[slot]`` when a rule holds and discards it when none
    does, and returns ``(held, stale, watching, walked, calls)``: the masks,
    the bits now watched, the segments whose walk consulted a hot bit, and
    the part calls.

    Both run their parts on ``view``, the node's read-only
    :class:`GuardView`; a witness part's value goes to its witness slot.
    The code is generated once per program *shape* -- part positions,
    negations and witnesses, not predicates (:data:`_KERNELS`) -- and
    registered with :mod:`linecache` under a ``<guard kernel ...>`` name, so
    a traceback through a kernel shows its line.
    """
    calls: dict[int, Callable] = {}
    keys: dict[int, Callable | None] = {}
    for steps in (*walks, *(rule for _, rules, _ in segments for rule in rules)):
        for predicate, bit, _, witness in steps:
            position = bit.bit_length() - 1
            calls[position], keys[position] = predicate, witness

    def shape(steps: tuple[Step, ...]) -> tuple[tuple[int, bool, bool], ...]:
        return tuple(
            (bit.bit_length() - 1, bool(negated), witness is not None)
            for _, bit, negated, witness in steps
        )

    guard_shape = tuple(map(shape, walks))
    rule_shape = tuple(
        (slot, tuple(map(shape, rules)), mask) for slot, rules, mask in segments
    )
    key = (guard_shape, rule_shape)
    cached = _KERNELS.get(key)
    if cached is None:
        if len(_KERNELS) >= _KERNEL_SHAPES:
            for name, _, _ in _KERNELS.values():
                linecache.cache.pop(name, None)
            _KERNELS.clear()
        witnesses = sorted(position for position, witness in keys.items() if witness is not None)
        source = _KernelWriter().source(len(calls), witnesses, guard_shape, rule_shape)
        name = f"<guard kernel {hashlib.sha1(source.encode()).hexdigest()[:12]}>"
        namespace: dict[str, object] = {}
        exec(compile(source, name, "exec"), namespace)
        cached = _KERNELS[key] = (
            name, (len(source), None, source.splitlines(True), name), namespace["bind"]
        )
    name, lines, factory = cached
    # Registered again at each binding: a linecache.clearcache() drops it.
    linecache.cache.setdefault(name, lines)
    return factory(
        tuple(calls[position] for position in range(len(calls))),
        tuple(keys[position] for position in range(len(keys))),
    )


class _CheckedPart:
    """A part's predicate run on a fresh tracking view, its reads then checked.

    The ``check_guard_locality`` form of a compiled part: a read outside the
    closed neighborhood raises :class:`~repro.errors.GuardLocalityError`
    with rule RL004, and a read outside the part's declared
    :class:`~repro.runtime.actions.Reads` one with rule RL008.  ``holders``
    are the actions and rules holding the part; since one call serves them
    all, errors name every one of them.
    """

    __slots__ = ("predicate", "declared", "holders")

    def __init__(self, predicate: Callable, declared: Reads | None) -> None:
        self.predicate = predicate
        self.declared = declared
        self.holders: list[Action | Rule] = []

    def __call__(self, view: GuardView) -> bool:
        node, network, configuration = view.node, view.network, view.configuration
        tracked = TrackingGuardView(node, network, configuration)
        value = self.predicate(tracked)
        _check_guard_reads(
            node, network, configuration, self.holders, self.declared, tracked.read_variables
        )
        return value


class _CheckedWitnessView(ProcessorView):
    """The ``check_guard_locality`` statement view: a kept witness is recomputed.

    A kept witness value is exact only if the part is a function of what it
    declares reading (the stale bits re-call it after any change there).
    :meth:`witness` recomputes the value on this view and raises
    :class:`~repro.errors.GuardLocalityError` (rule RL008) when it differs
    from the kept one.
    """

    __slots__ = ()

    def witness(self, part: Callable[[ProcessorView], object]) -> object:
        value = part(self)
        if part in self._witnesses and self._witnesses[part] != value:
            name = getattr(part, "__qualname__", repr(part))
            raise GuardLocalityError(
                f"stale witness (RL008): {name} on processor {self.node} returned "
                f"{value!r}, but its guard walk kept {self._witnesses[part]!r} and no "
                f"change to its declared reads came since; a witness part must be a "
                f"function of what it declares reading",
                node=self.node,
                action=name,
                rule="RL008",
            )
        return value


def _check_guard_reads(
    node: int,
    network: RootedNetwork,
    configuration: Configuration,
    holders: Sequence[Action | Rule],
    declared: Reads | None,
    reads: frozenset[tuple[int, str]],
) -> None:
    """Raise :class:`GuardLocalityError` for a read a guard or rule part may not make.

    The error names every holder of the part, joined with ``/`` in sorted
    order, and their layers alike; ``repro-lint``'s read probe reports the
    error under those names.  A pointer-directed read
    (``via``/``named_by``) is allowed only at the neighbor its pointer
    picks out in ``configuration``.
    """
    rules = [isinstance(holder, Rule) for holder in holders]
    kind = (
        "violation rule" if all(rules)
        else "guard or violation rule" if any(rules)
        else "guard of action"
    )
    name = "/".join(sorted({holder.name for holder in holders}))
    layer = "/".join(sorted({holder.layer for holder in holders}))
    allowed = set(network.neighbor_set(node))
    allowed.add(node)
    illegal = sorted((source, name) for source, name in reads if source not in allowed)
    if illegal:
        listed = ", ".join(f"{name!r} of processor {source}" for source, name in illegal)
        raise GuardLocalityError(
            f"guard locality violated (RL004): {kind} {name!r} "
            f"(layer {layer!r}) on processor {node} read {listed} outside "
            f"its closed neighborhood {sorted(allowed)}",
            node=node,
            layer=layer,
            action=name,
            rule="RL004",
            reads=illegal,
        )
    if declared is None:
        return

    def pointed(source: int, name: str) -> bool:
        """Whether a pointer-directed declaration covers ``name`` at ``source``."""
        own = configuration.peek_state(node)
        at_source = configuration.peek_state(source)
        return any(
            name in names and own.get(pointer) == source for pointer, names in declared.via
        ) or any(
            name in names and at_source.get(pointer) == node
            for pointer, names in declared.named_by
        )

    undeclared = sorted(
        (source, name)
        for source, name in reads
        if not (
            name in declared.own
            if source == node
            else name in declared.neighbor or pointed(source, name)
        )
    )
    if undeclared:
        listed = ", ".join(
            f"{'own' if source == node else 'neighbor'} {name!r} (processor {source})"
            for source, name in undeclared
        )
        pointers = "".join(
            f", {form} { {pointer: sorted(names) for pointer, names in pairs} }"
            for form, pairs in (("via", declared.via), ("named_by", declared.named_by))
            if pairs
        )
        raise GuardLocalityError(
            f"undeclared guard read (RL008): {kind} {name!r} "
            f"(layer {layer!r}) on processor {node} read {listed}, which its "
            f"declared reads (own {sorted(declared.own)}, neighbor "
            f"{sorted(declared.neighbor)}{pointers}) omit",
            node=node,
            layer=layer,
            action=name,
            rule="RL008",
            reads=undeclared,
        )


def residue_reads(rules: Iterable[Rule]) -> frozenset[str] | None:
    """What a leaf's residue may read: every variable its rule parts declare.

    ``None`` (anything) when the leaf states no rules or a part declares
    nothing; the scheduler then re-checks the residue after any change.
    """
    declared = {reads for rule in rules for _, reads in rule.guard_parts}
    if not declared or None in declared:
        return None
    return frozenset().union(*(reads.own | reads.neighbor_reads for reads in declared))


def check_residue_reads(
    leaf: Protocol,
    network: RootedNetwork,
    configuration: Configuration,
    declared: frozenset[str] | None,
) -> bool:
    """``leaf``'s residue on ``configuration``; RL008 for a read outside ``declared``.

    The scheduler keeps a cached residue until a change to a variable
    :func:`residue_reads` names, so the residue may read nothing else.  The
    residue runs on a read-tracking configuration; ``declared=None`` allows
    anything and runs it untracked.
    """
    if declared is None:
        return leaf.legitimacy_residue(network, configuration)
    reads: set[tuple[int, str]] = set()
    holds = leaf.legitimacy_residue(network, _ReadTrackingConfiguration(configuration, reads))
    undeclared = sorted((node, name) for node, name in reads if name not in declared)
    if undeclared:
        raise GuardLocalityError(
            f"undeclared residue read (RL008): legitimacy_residue of layer {leaf.name!r} "
            f"read {sorted({name for _, name in undeclared})}, which none of its violation "
            f"rules' declared reads ({sorted(declared)}) covers",
            layer=leaf.name,
            action="legitimacy_residue",
            rule="RL008",
            reads=undeclared,
        )
    return holds


#: A compiled rule segment: ``(leaf slot, rule steps, bit mask)``.
Segment = tuple[int, tuple[tuple[Step, ...], ...], int]


def compile_program(
    actions: Sequence[Action],
    rules: Sequence[Sequence[Rule]] = (),
    check_guard_locality: bool = False,
) -> tuple[tuple[Reads | None, ...], tuple[tuple[Step, ...], ...], tuple[Segment, ...]]:
    """Compile a node's actions and its leaf layers' rules onto its distinct parts.

    The parts are the ``(predicate, reads)`` conjuncts of the guards and of
    the rules (``rules[slot]`` are leaf ``slot``'s).  Parts with the same
    predicate object and equal reads are one part with one bit -- a
    :class:`~repro.runtime.actions.Not` part counts as its predicate, negated
    -- so a fact several actions and rules test is called once per change
    that stales it.  A :class:`~repro.runtime.actions.Witness` part counts
    as the function it wraps; that function may not be a plain part under
    the same reads too (``ValueError``).  Bits are numbered in walk order:
    the actions' parts, then each leaf's rules' parts.

    Returns ``(parts, walks, segments)``: each bit's reads, in bit order;
    per action its :data:`Step` tuple; and per leaf with a rule part a
    :data:`Segment` -- what :func:`compile_kernels` generates the walks
    from.  With ``check_guard_locality`` each distinct part runs as a
    :class:`_CheckedPart` naming every action and rule that holds it.
    """
    bits: dict[tuple[Callable, Reads | None], int] = {}
    parts: list[Reads | None] = []
    callables: list[Callable] = []
    witnesses: list[Callable | None] = []

    def compile_parts(owner: Action | Rule) -> tuple[Step, ...]:
        steps = []
        for predicate, reads in owner.guard_parts:
            negated = type(predicate) is Not
            if negated:
                predicate = predicate.predicate
            witness = predicate.function if type(predicate) is Witness else None
            if witness is not None:
                predicate = witness
            position = bits.setdefault((predicate, reads), len(parts))
            if position == len(parts):
                parts.append(reads)
                witnesses.append(witness)
                callables.append(
                    _CheckedPart(predicate, reads) if check_guard_locality else predicate
                )
            elif (witnesses[position] is None) != (witness is None):
                raise ValueError(
                    f"{owner.name!r}: {getattr(predicate, '__qualname__', predicate)} is "
                    f"a Witness part and a plain part under equal reads"
                )
            if check_guard_locality and owner not in callables[position].holders:
                callables[position].holders.append(owner)
            bit = 1 << position
            steps.append((callables[position], bit, bit if negated else 0, witness))
        return tuple(steps)

    walks = tuple(map(compile_parts, actions))
    segments = []
    for slot, held in enumerate(rules):
        steps = tuple(map(compile_parts, held))
        mask = reduce(or_, (bit for rule in steps for _, bit, _, _ in rule), 0)
        if mask:
            segments.append((slot, steps, mask))
    return tuple(parts), walks, tuple(segments)


#: Per pointer, a stale mask per table: ``((pointer, masks), ...)``.
PointerMasks = tuple[tuple[str, tuple[int, ...]], ...]
#: What a change of some variables at a node implies (see :func:`_stale_masks`).
MaskEntry = tuple[
    tuple[int, ...],
    tuple[int, ...],
    bool,
    tuple[int, ...],
    "tuple[tuple[str, ...], PointerMasks, PointerMasks] | None",
]

#: Stale masks, shared by every scheduler whose tables and residue reads are
#: equal: ``(tables, residue reads) -> changed variables -> entry``.  Equal
#: protocols on equal-shaped networks share tables, so a campaign computes
#: each entry once, not once per run.  Cleared whole when it grows past
#: :data:`_STALE_MASK_TABLES` table sets.
_STALE_MASKS: dict[tuple, dict[tuple[str, ...] | None, MaskEntry]] = {}
_STALE_MASK_TABLES = 64


def _rule_shift(tables: tuple[tuple[Reads | None, ...], ...]) -> int:
    """How far above its part's bit a rule-stale bit sits: the longest table's length."""
    return max(map(len, tables), default=0)


def _stale_masks(
    tables: tuple[tuple[Reads | None, ...], ...],
    residue_reads: tuple[frozenset[str] | None, ...],
    pointers: tuple[str, ...],
    variables: tuple[str, ...] | None,
) -> MaskEntry:
    """The stale masks a change of ``variables`` (``None``: anything) at a node implies.

    A mask sets each bit twice: at the part's position, the guard-stale bit,
    and :func:`_rule_shift` positions higher, its rule-stale bit (a node's
    stale word, see :meth:`Scheduler._invalidate_enabled`).
    ``(own, neighbor, reaches, voids, pointed)``: ``own[t]`` for the changed
    node and ``neighbor[t]`` for each of its neighbors, where ``t`` is the
    marked node's table; ``reaches`` is whether any neighbor mask is
    nonzero; ``voids`` the leaf layers whose cached residue the change
    drops.  ``pointed`` is ``None`` when the change touches no declared
    pointer and no pointer-directed read; else ``(moved, via, named)``:
    the declared ``pointers`` among ``variables``, whose shadow must
    follow, and per pointer the masks for the holders whose pointer names
    the changed node (``via``) and for the nodes its own pointer named and
    names (``named_by``).  A ``named_by`` pointer stales its parts only
    there, not at every neighbor.  A whole-state change (``None``) stales
    every bit at the node and its neighbors, which covers every
    pointer-directed read the closed neighborhood allows.
    """

    shift = _rule_shift(tables)

    def masks(test: Callable[[Reads | None], bool]) -> tuple[int, ...]:
        parts = (
            sum(1 << position for position, reads in enumerate(table) if test(reads))
            for table in tables
        )
        return tuple(mask | mask << shift for mask in parts)

    def meets(names: frozenset[str]) -> bool:
        return variables is None or not names.isdisjoint(variables)

    def through(form: str, pointer: str) -> tuple[int, ...]:
        """The parts whose ``form`` reads through ``pointer`` meet ``variables``."""
        # A named_by part also tests whether the pointer names its node.
        tested = frozenset({pointer}) if form == "named_by" else frozenset()

        def test(reads: Reads | None) -> bool:
            names = None if reads is None else dict(getattr(reads, form)).get(pointer)
            return names is not None and meets(names | tested)

        return masks(test)

    own = masks(lambda reads: reads is None or meets(reads.own))
    neighbor = masks(
        lambda reads: reads is None
        or meets(reads.neighbor.difference(pointer for pointer, _ in reads.named_by))
    )
    voids = tuple(
        slot
        for slot, reads in enumerate(residue_reads)
        if reads is None or meets(reads)
    )
    pointed = None
    if variables is None:
        if pointers:
            pointed = (pointers, (), ())
    else:
        moved = tuple(pointer for pointer in pointers if pointer in variables)
        directed = tuple(
            tuple((pointer, bits) for pointer in pointers if any(bits := through(form, pointer)))
            for form in ("via", "named_by")
        )
        if moved or any(directed):
            pointed = (moved, *directed)
    return own, neighbor, any(neighbor), voids, pointed


class MoveRecord(NamedTuple):
    """One processor's move within a step: what executed and what it changed."""

    node: int
    action: str
    layer: str
    changes: Mapping[str, tuple[object, object]]  # variable -> (old, new)


class StepRecord(NamedTuple):
    """What happened during one computation step."""

    step: int
    round: int
    executed: tuple[tuple[int, str], ...]  # (node, action name) pairs
    changed_nodes: tuple[int, ...]
    moves: tuple[MoveRecord, ...] = ()


@dataclass
class RunResult:
    """Outcome of a (bounded) execution.

    Attributes
    ----------
    steps, moves, rounds:
        Totals over the executed portion.
    terminated:
        ``True`` when no action was enabled anymore (silent protocols).
    converged:
        ``True`` when the run stopped on a legitimate check.
    first_legitimate_step / first_legitimate_round:
        The step/round at which the protocol's legitimacy predicate first
        became true and then remained true until the end of the observed
        execution; ``None`` if it never did.
    substrate_step / substrate_round:
        The same for the ``substrate`` layer handed to
        :meth:`Scheduler.run_until_legitimate`; ``None`` without one.
    configuration:
        The final configuration.
    metrics:
        Full per-node / per-action counters.
    """

    steps: int
    moves: int
    rounds: int
    terminated: bool
    converged: bool
    first_legitimate_step: int | None
    first_legitimate_round: int | None
    configuration: Configuration
    metrics: ExecutionMetrics
    substrate_step: int | None = None
    substrate_round: int | None = None

    @property
    def stabilization_steps(self) -> int | None:
        """Alias for :attr:`first_legitimate_step` (readability in experiments)."""
        return self.first_legitimate_step

    @property
    def stabilization_rounds(self) -> int | None:
        """Alias for :attr:`first_legitimate_round`."""
        return self.first_legitimate_round


class Scheduler:
    """Drives a protocol on a network under a daemon.

    It keeps a persistent enabled-set and one truth value per distinct guard
    part, walked by each program's generated guard kernel
    (:func:`compile_kernels`).  A change of variables ``V`` at ``p`` stales
    the parts of ``p``'s guards whose declared
    :class:`~repro.runtime.actions.Reads` own-set meets ``V`` and the parts
    of its neighbors' guards whose neighbor-set does (a pointer-directed read
    only where its pointer points; an undeclared part reads everything); a
    processor is re-walked only when a bit its last walk consulted went
    stale.  That is sound because a guard reads only its closed
    neighborhood and what it declares.  The layers' violation rules share
    the tables and bits -- a rule part that tests a guard part's predicate
    under equal reads is the same bit -- so :meth:`legitimate` re-walks only
    the rules a change can flip.  The independent
    :class:`~repro.runtime.reference.ReferenceScheduler` (the
    ``scheduler-fullscan`` engine) is held to identical executions.

    Parameters
    ----------
    network:
        The rooted network the protocol runs on.
    protocol:
        The protocol (possibly a layered composition).
    daemon:
        Scheduling adversary; defaults to the paper's distributed daemon.
    configuration:
        Starting configuration.  Defaults to an *arbitrary* configuration
        drawn from the variables' domains (the self-stabilization setting);
        pass ``protocol.initial_configuration(network)`` for a clean start.
    seed / rng:
        Randomness used by the daemon and by arbitrary initialization.
    observers:
        Extra :class:`~repro.runtime.observers.Observer` instances notified of
        every step and completed round; each step's
        :class:`StepRecord` carries its moves.  Metrics are themselves an
        observer registered before these.
    check_guard_locality:
        Debug mode: track every configuration read during guard evaluation
        and raise :class:`~repro.errors.GuardLocalityError` (a
        :class:`~repro.errors.ProtocolError`, carrying the layer, action and
        offending variables) if a guard or violation rule reads outside its
        closed neighborhood (rule RL004) or outside its part's declared
        reads (RL008), or if a leaf's ``legitimacy_residue`` reads a
        variable none of its rule parts declares (RL008,
        :func:`check_residue_reads`) -- the invariants the stale-bit marking
        and the residue cache rely on.  Defaults to the
        ``REPRO_DEBUG_GUARDS`` environment variable.
    instrumentation:
        An :class:`~repro.obs.Instrumentation` registry the step loop feeds
        with phase timers (guard-eval, daemon-select, action-exec,
        observer-dispatch), guard-evaluation counters, and dirty/enabled-set
        gauges; the constructor's own work (drawing the configuration,
        validation, the action and rule tables, the views) books under the
        ``init`` phase.  Defaults to the shared no-op
        :data:`~repro.obs.NULL_INSTRUMENTATION`; the disabled path hoists its
        ``enabled`` flag once per call and skips all timing behind it.
    """

    def __init__(
        self,
        network: RootedNetwork,
        protocol: Protocol,
        daemon: Daemon | None = None,
        configuration: Configuration | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        observers: Sequence[Observer] = (),
        check_guard_locality: bool | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._instr = instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        started = time.perf_counter() if instr.enabled else 0.0
        self.network = network
        self.protocol = protocol
        self.daemon = daemon or DistributedDaemon()
        #: The daemon the run was configured with; :meth:`set_daemon` does not
        #: touch it, so scenario events can restore it after a switch.
        self.initial_daemon = self.daemon
        self.rng = rng or random.Random(seed)
        protocol.validate(network)
        self.daemon.reset()

        # A drawn configuration is the scheduler's own; only a caller's is copied.
        if configuration is None:
            self.configuration = protocol.random_configuration(network, rng=self.rng)
        else:
            self.configuration = configuration.copy()

        # The protocol's leaf layers, each with its violation rules, its
        # violation set and its residue.  A queried layer must be made of
        # them; the protocol keeps them alive, so the ids stay theirs.
        self._leaves: tuple[Protocol, ...] = tuple(dict.fromkeys(protocol.layers()))
        self._slots = {None: tuple(range(len(self._leaves)))}  # layer -> its leaves' slots
        if check_guard_locality is None:
            check_guard_locality = bool(os.environ.get("REPRO_DEBUG_GUARDS"))
        self.check_guard_locality = check_guard_locality
        self._index_actions()
        # Per-run counters, accumulated by an observer like any other; keeping
        # it first in the list preserves the historical update order
        # (counters before any external consumer sees the step).
        self.metrics = ExecutionMetrics()
        self._observers: list[Observer] = [MetricsObserver(self.metrics), *observers]

        self._step_index = 0
        self._round_index = 0
        self._round_pending: set[int] | None = None
        self._frozen: set[int] = set()

        self._invalidate_enabled()
        if instr.enabled:
            instr.phase_time(PHASE_INIT, time.perf_counter() - started)

        # The one point where an observer can still see the *initial*
        # configuration (the flight recorder captures it here).
        dispatch_safely(self._observers, "on_run_start", self, None)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    @property
    def instrumentation(self) -> Instrumentation:
        """The run's instrumentation registry (the shared no-op by default)."""
        return self._instr

    def _notify_mutation(self, kind: str, **payload: object) -> None:
        """Tell every observer about out-of-band state surgery."""
        dispatch_safely(self._observers, "on_mutation", self, {"kind": kind, **payload})

    def notify_converged(self, result: object) -> None:
        """Tell every observer the run's stop condition was reached."""
        dispatch_safely(self._observers, "on_converged", self, result)

    # ------------------------------------------------------------------
    # Enabled actions
    # ------------------------------------------------------------------
    def enabled_actions(self) -> dict[int, Action]:
        """The first enabled action of every enabled processor.

        Frozen (crashed) processors are treated as disabled: whatever their
        guards evaluate to, the daemon never sees them.  Reads the maintained
        enabled-set after folding in any journaled configuration changes.
        """
        order, lookup = self._enabled_view()
        return {node: lookup[node] for node in order}

    def _enabled_view(self) -> tuple[tuple[int, ...], Mapping[int, Action]]:
        """The enabled set as ``(ascending non-frozen nodes, node -> action)``.

        The step loop's view of the enabled processors.  The mapping is the
        maintained enabled-set, which also keeps frozen nodes.
        """
        self._refresh_enabled()
        # Sorting is enabled-set upkeep like the refresh, so it books under
        # the same phase.
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        enabled, frozen = self._enabled, self._frozen
        order = tuple(sorted(enabled.keys() - frozen if frozen else enabled))
        if timed:
            instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
        return order, enabled

    def enabled_nodes(self) -> tuple[int, ...]:
        """Identifiers of the processors with at least one enabled action."""
        return self._enabled_view()[0]

    def is_enabled(self, node: int) -> bool:
        """Whether ``node`` has an enabled action; a frozen (crashed) processor never has."""
        self._refresh_enabled()
        return node in self._enabled and node not in self._frozen

    def _invalidate_enabled(self) -> None:
        """Mark every guard and rule part stale and rebuild the processor views.

        The one reset for a new or replaced configuration or network: the
        next enabled-set access rescans every guard, and the next legitimacy
        query walks every rule.
        """
        network, configuration = self.network, self.configuration
        n = network.n
        # One read-only guard view and one statement view per node, sharing
        # the node's witness slots: the kernels keep each witness part's last
        # value there, and the statement reads it (ProcessorView.witness).
        self._views = [GuardView(node, network, configuration) for node in range(n)]
        writer = _CheckedWitnessView if self.check_guard_locality else ProcessorView
        self._writers = [writer(node, network, configuration) for node in range(n)]
        for view, statement_view in zip(self._views, self._writers):
            statement_view._witnesses = view._witnesses
        # The persistent enabled-set: node -> first enabled action, frozen
        # nodes included (freezing does not touch guards, so freeze/unfreeze
        # need no invalidation; the accessors filter them).
        self._enabled: dict[int, Action] = {}
        # Per node, bitmasks over its distinct guard and rule parts (see
        # compile_kernels): which parts held when last called and which a
        # change may have flipped since.  A node's stale word holds both the
        # parts a change may have flipped since they were last called, at
        # the parts' bits, and, ``_shift`` bits higher, the parts staled
        # since the node's last rule walk (what a rule walk re-walks and
        # ``legitimacy_nodes_checked`` counts by); one word makes a mark one
        # read-modify-write.  ``_watch`` and ``_rule_watch`` hold the bits
        # the last guard walk and the last rule walk consulted: only a
        # change there can change an answer; a stale bit elsewhere waits for
        # a walk that reaches it.  ``_frontier`` and ``_rule_frontier`` hold
        # the nodes a drained change staled a consulted guard or rule bit of.
        self._held = [0] * n
        self._stale = [-1] * n
        self._watch = [0] * n
        self._frontier = set(range(n))
        self._rule_watch = list(self._rule_masks)
        self._rule_frontier = set(range(n))
        # Per leaf layer: the nodes one of its rules holds at, and its
        # residue's cached verdict (dropped by a change to what its rules read).
        self._violations: list[set[int]] = [set() for _ in self._leaves]
        self._residues: dict[int, bool] = {}
        self._shadow_pointers()

    def _shadow_pointers(self) -> None:
        """Rebuild the shadow of every declared pointer from the configuration.

        ``_targets[pointer][node]`` is the node ``node``'s pointer named at the
        last drain (``None``: no node), and ``_holders[pointer][target]`` the
        nodes whose pointer names ``target``: the index that lets a change at
        ``target`` stale a ``via`` part only where the pointer names it.
        A pointer value names the node id it equals (``_node_ids`` maps each
        id to itself), as the views read it; any other value names none.
        """
        self._targets: dict[str, list[int | None]] = {}
        self._holders: dict[str, dict[int, set[int]]] = {}
        if not self._pointers:
            return
        n = self.network.n
        self._node_ids = {node: node for node in range(n)}
        for pointer in self._pointers:
            targets = self._targets[pointer] = [None] * n
            holders = self._holders[pointer] = {}
            for node in range(n):
                target = self._node_ids.get(self.configuration.peek_state(node).get(pointer))
                if target is not None:
                    targets[node] = target
                    holders.setdefault(target, set()).add(node)

    def _index_actions(self) -> None:
        """Compile each node's actions and rules (:func:`compile_program`).

        Nodes with equal actions and rules share the compiled program and
        its kernels (:func:`compile_kernels`), bound once per program.  A
        node's *table* is its distinct parts' reads in bit order; nodes with
        equal tables share one.  The stale masks a change implies are
        memoised per changed-variable tuple, shared by every scheduler with
        equal tables (:data:`_STALE_MASKS`), so marking costs a lookup per
        touched node.  A layer's residue is re-evaluated after
        a change to what its rule parts read, or after any change when the
        layer states no rules; never when it keeps Protocol's constant one.
        """
        network, leaves, check = self.network, self._leaves, self.check_guard_locality
        self._actions = {
            node: tuple(self.protocol.actions(network, node)) for node in network.nodes()
        }
        tables: dict[tuple[Reads | None, ...], int] = {}
        # Keyed by the actions and rules themselves (equal ones compile alike).
        compiled: dict[tuple, tuple] = {}
        # Per leaf: its rules at every node, for what its residue may read.
        declared: list[list[Rule]] = [[] for _ in leaves]
        # Per node: its table, its actions with None for "no action enabled"
        # (indexed by a guard kernel's answer), its kernels, and the bits
        # of its rule segments.
        self._table: list[int] = []
        self._choices: list[tuple[Action | None, ...]] = []
        self._guard_kernels: list[GuardKernel] = []
        self._rule_kernels: list[RuleKernel] = []
        self._rule_masks: list[int] = []
        for node in network.nodes():
            actions = self._actions[node]
            rules = tuple(tuple(leaf.violation_rules(network, node)) for leaf in leaves)
            entry = compiled.get((actions, rules))
            if entry is None:
                parts, walks, segments = compile_program(actions, rules, check)
                for slot, _, _ in segments:
                    declared[slot].extend(rules[slot])
                entry = compiled[actions, rules] = (
                    tables.setdefault(parts, len(tables)),
                    (*actions, None),
                    *compile_kernels(walks, segments),
                    reduce(or_, (mask for _, _, mask in segments), 0),
                )
            table, choices, guard_kernel, rule_kernel, rule_mask = entry
            self._table.append(table)
            self._choices.append(choices)
            self._guard_kernels.append(guard_kernel)
            self._rule_kernels.append(rule_kernel)
            self._rule_masks.append(rule_mask)
        self._tables: tuple[tuple[Reads | None, ...], ...] = tuple(tables)
        self._shift = _rule_shift(self._tables)
        residues = tuple(
            frozenset() if type(leaf).legitimacy_residue is Protocol.legitimacy_residue
            else residue_reads(rules)
            for leaf, rules in zip(leaves, declared)
        )
        # The pointers some part reads through: the shadow (_invalidate_enabled) follows them.
        self._pointers: tuple[str, ...] = tuple(
            sorted(
                {
                    pointer
                    for table in self._tables
                    for reads in table
                    if reads is not None
                    for pointer, _ in reads.via + reads.named_by
                }
            )
        )
        key = (self._tables, residues)
        memo = _STALE_MASKS.get(key)
        if memo is None:
            if len(_STALE_MASKS) >= _STALE_MASK_TABLES:
                _STALE_MASKS.clear()
            memo = _STALE_MASKS[key] = {}
        self._mask_memo = memo
        self._residue_reads = residues

    def _drain(self) -> None:
        """Mark stale the guard and rule parts the journaled changes can flip.

        The journal's only reader.  Every drained entry ``node -> variables``
        sets the guard- and rule-stale bits its declarations imply
        (:func:`_stale_masks`) at the node and its neighbors, and for pointer-directed reads at the
        nodes the pointer shadow picks out: the holders whose pointer names
        the node (``via``) and the nodes the node's own pointer named before
        and names now (``named_by``); the entry also moves the shadow.  A
        node joins the guard (rule) frontier
        when a newly stale bit is a guard (rule) bit its last walk
        consulted, since no other part can change which action is first or
        which rule holds.  The entry also drops the cached residues it can
        change.  Calls no guard or rule, so a legitimacy check can drain
        without moving guard work out of the step.  Its callers call it only
        when the journal holds a change, so a step is drained once.
        """
        changes = self.configuration.drain_dirty()
        actions, table, stale, watch = self._actions, self._table, self._stale, self._watch
        rule_watch, rule_frontier, shift = self._rule_watch, self._rule_frontier, self._shift
        residues = self._residues
        memo = self._mask_memo
        frontier = self._frontier
        # Neighbor masks -> the changed nodes whose neighbors they mark.
        spread: dict[tuple[int, ...], list[int]] = {}
        # (nodes, masks): mark each of the nodes with its table's mask.
        marks: list[tuple[Iterable[int], tuple[int, ...]]] = []
        for node, variables in changes.items():
            if node not in actions:
                continue  # a foreign node id journaled by hand-built state
            entry = memo.get(variables)
            if entry is None:
                entry = memo[variables] = _stale_masks(
                    self._tables, self._residue_reads, self._pointers, variables
                )
            own, neighbor, reaches, voids, directed = entry
            mask = own[table[node]]
            if mask:
                stale[node] |= mask
                # The watch masks hold parts' bits: the rule-stale copies miss them.
                if mask & watch[node]:
                    frontier.add(node)
                if mask & rule_watch[node]:
                    rule_frontier.add(node)
            if reaches:
                spread.setdefault(neighbor, []).append(node)
            if residues:
                for slot in voids:
                    residues.pop(slot, None)
            if directed is not None:
                self._follow_pointers(node, directed, marks)
        # Marking each neighbor once per mask, not once per changed node next
        # to it, keeps dense synchronous steps linear in n.
        neighbor_set = self.network.neighbor_set
        for neighbor, nodes in spread.items():
            if len(nodes) > 1:
                marks.append((set().union(*map(neighbor_set, nodes)), neighbor))
            else:
                marks.append((neighbor_set(nodes[0]), neighbor))
        # Only newly stale bits need the watch tests: a watched bit that was
        # stale already went stale after the node's last walk, which put the
        # node on the frontier it is still on (a walk clears every stale bit
        # it consults, and a rule walk all rule-stale bits).  Most marks of a
        # token move set no new bit.
        for others, masks in marks:
            for other in others:
                fresh = masks[table[other]] & ~stale[other]
                if fresh:
                    stale[other] |= fresh
                    if fresh & watch[other]:
                        frontier.add(other)
                    if fresh >> shift & rule_watch[other]:
                        rule_frontier.add(other)
        if self._instr.enabled:
            self._instr.gauge("dirty_set_size", len(changes))

    def _follow_pointers(
        self,
        node: int,
        directed: tuple[tuple[str, ...], PointerMasks, PointerMasks],
        marks: list[tuple[Iterable[int], tuple[int, ...]]],
    ) -> None:
        """Move ``node``'s pointer shadow and queue the pointer-directed marks of its change.

        ``directed`` is an entry's ``(moved, via, named)`` (:func:`_stale_masks`).
        """
        moved, via, named = directed
        targets, holders = self._targets, self._holders
        previous: dict[str, int | None] = {}
        if moved:
            state = self.configuration.peek_state(node)
            for pointer in moved:
                old = targets[pointer][node]
                new = self._node_ids.get(state.get(pointer))
                if new != old:
                    previous[pointer] = old
                    targets[pointer][node] = new
                    index = holders[pointer]
                    if old is not None:
                        index[old].discard(node)
                    if new is not None:
                        index.setdefault(new, set()).add(node)
        for pointer, masks in named:
            for target in (targets[pointer][node], previous.get(pointer)):
                if target is not None:
                    marks.append(((target,), masks))
        for pointer, masks in via:
            marks.append((tuple(holders[pointer].get(node, ())), masks))

    def _refresh_enabled(self) -> None:
        """Drain the journal if it holds a change, then re-walk the frontier.

        Attributes its own wall clock to the ``guard_eval`` phase, so
        callers -- including the nested re-check round bookkeeping performs
        -- never double-count it.
        """
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        if not self.configuration.journal_empty():
            self._drain()
        frontier = self._frontier
        if frontier:
            self._frontier = set()
            kernels, choices, views = self._guard_kernels, self._choices, self._views
            held, stale, watch, enabled = self._held, self._stale, self._watch, self._enabled
            calls = 0
            for node in frontier:
                index, held[node], stale[node], watch[node], called = kernels[node](
                    stale[node], held[node], views[node]
                )
                calls += called
                action = choices[node][index]
                if action is None:
                    enabled.pop(node, None)
                else:
                    enabled[node] = action
            if timed:
                instr.count("guards_evaluated", len(frontier))
                instr.count("guard_calls", calls)
                instr.gauge("frontier_size", len(frontier))
        if timed:
            instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Legitimacy
    # ------------------------------------------------------------------
    def legitimate(self, layer: Protocol | None = None) -> bool:
        """Whether ``layer`` (default: the whole protocol) is legitimate now.

        ``layer`` is the protocol, one of its :meth:`~Protocol.layers`, or a
        composition of some of them (a substrate such as the DFS tree); any
        other layer raises ``ValueError``.  The legitimacy pass
        (:meth:`_legitimacy`) over its leaves answers: no violation rule holds
        at any node and every residue holds (as in :meth:`Protocol.legitimate`).
        """
        return self._legitimacy(self._group(layer))[0]

    def _group(self, layer: Protocol | None) -> tuple[int, ...]:
        """The slots of ``layer``'s leaves (all of them for ``None``), checked once per layer."""
        slots = self._slots.get(layer)
        if slots is None:
            if not {id(leaf) for leaf in self._leaves}.issuperset(map(id, layer.layers())):
                raise ValueError(f"layer {layer.name!r} is not part of the scheduled protocol")
            slots = self._slots[layer] = tuple(map(self._leaves.index, layer.layers()))
        return slots

    def _legitimacy(self, group: tuple[int, ...], rest: tuple[int, ...] = ()) -> tuple[bool, bool]:
        """The one legitimacy pass over leaf slots: ``(group holds, group and rest hold)``.

        It drains the journal if it holds a change (walking no guard) and
        re-walks ``group``'s known violators first: one that still violates
        makes both verdicts False and leaves the rule frontier for a check it
        can change.  Otherwise it walks the rule frontier once and reads both
        verdicts off the violation sets and the residue cache.  Books one
        ``legitimacy`` phase sample.
        """
        instr = self._instr
        started = time.perf_counter() if instr.enabled else 0.0
        if not self.configuration.journal_empty():
            self._drain()
        verdicts = (False, False)
        if not self._violator_stands(group):
            self._walk_rule_frontier()
            holds = self._holds(group)
            verdicts = (holds, holds and self._holds(rest))
        if instr.enabled:
            instr.phase_time(PHASE_LEGITIMACY, time.perf_counter() - started)
        return verdicts

    def _violator_stands(self, slots: tuple[int, ...]) -> bool:
        """Whether a known violator of ``slots`` still violates (re-walked if on the frontier)."""
        frontier, violations = self._rule_frontier, self._violations
        for slot in slots:
            violating = violations[slot]
            if violating:
                for node in list(violating):
                    if node in frontier:
                        frontier.discard(node)
                        self._walk_rules((node,))
                    if node in violating:
                        return True
        return False

    def _holds(self, slots: tuple[int, ...]) -> bool:
        """No rule of ``slots`` holds at a node and their residues hold, from the walked sets."""
        violations, residues = self._violations, self._residues
        for slot in slots:
            if violations[slot]:
                return False
        for slot in slots:
            holds = residues.get(slot)
            if holds is None:
                holds = self._residue(slot)
            if not holds:
                return False
        return True

    def legitimacy_distance(self) -> int:
        """How far from legitimate the configuration is; 0 exactly when :meth:`legitimate`.

        The number of nodes at which some leaf layer's violation rule holds,
        plus 1 when a layer's residue fails -- read off the violation sets
        and residue cache :meth:`legitimate` answers from.
        """
        if not self.configuration.journal_empty():
            self._drain()
        self._walk_rule_frontier()
        violating = set().union(*self._violations)
        return len(violating) + (not all(map(self._residue, range(len(self._leaves)))))

    def _residue(self, slot: int) -> bool:
        """Leaf ``slot``'s residue, cached; its reads checked in ``check_guard_locality`` mode."""
        holds = self._residues.get(slot)
        if holds is None:
            holds = self._residues[slot] = check_residue_reads(
                self._leaves[slot],
                self.network,
                self.configuration,
                self._residue_reads[slot] if self.check_guard_locality else None,
            )
        return holds

    def _walk_rule_frontier(self) -> None:
        """Bring the violation sets up to date with the drained changes."""
        frontier = self._rule_frontier
        if frontier:
            self._rule_frontier = set()
            self._walk_rules(frontier)

    def _walk_rules(self, nodes: Iterable[int]) -> None:
        """Re-walk the rule segments of ``nodes`` with their rule kernels, calling only stale parts.

        A node is on the rule frontier when a drained change staled a bit
        its last rule walk consulted.  A guard walk may have re-called that
        part since and cleared its stale bit, and its value may have
        flipped, so the frontier (decided at drain time), not the stale
        bits, says which nodes to re-walk.  A segment none of whose consulted
        bits (those of its mask the node watches) was staled since the node's
        last rule walk would call nothing and keep its answer: it is skipped
        and its bits stay watched.  Books under ``legitimacy_nodes_checked``
        the segments whose walk consulted a bit staled since the node's last
        rule walk, and the part calls under ``rule_calls``, apart from the
        guard walks' ``guard_calls``.
        """
        views, kernels = self._views, self._rule_kernels
        held, stale, rule_watch = self._held, self._stale, self._rule_watch
        violations, shift = self._violations, self._shift
        # The walk clears the node's rule-stale bits.
        parts = (1 << shift) - 1
        walked = calls = 0
        for node in nodes:
            word = stale[node]
            held[node], word, rule_watch[node], segments, called = kernels[node](
                node, word >> shift, rule_watch[node], word, held[node], views[node], violations
            )
            stale[node] = word & parts
            walked += segments
            calls += called
        if self._instr.enabled:
            self._instr.count("legitimacy_nodes_checked", walked)
            self._instr.count("rule_calls", calls)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> StepRecord | None:
        """Execute one computation step; ``None`` if no processor is enabled."""
        instr = self._instr
        timed = instr.enabled
        step_started = time.perf_counter() if timed else 0.0

        order, enabled = self._enabled_view()
        if not order:
            return None

        tracer = instr.tracer if timed else None
        if self._round_pending is None:
            self._round_pending = set(order)
            if tracer is not None:
                tracer.current_round = tracer.span(
                    "round", kind="round", parent=tracer.current_run, round=self._round_index
                )
        step_span = None
        if tracer is not None:
            parent = tracer.current_round or tracer.current_run
            step_span = tracer.span("step", kind="step", parent=parent, step=self._step_index)

        if timed:
            instr.gauge("enabled_set_size", len(order))
            mark = time.perf_counter()
        selected = self.daemon.select(order, self._step_index, self.rng)
        chosen = set(selected)
        frozen = self._frozen
        if not selected or len(chosen) < len(selected) or not enabled.keys() >= chosen or (
            frozen and not frozen.isdisjoint(chosen)
        ):
            invalid = [node for node in selected if node not in enabled or node in frozen]
            repeated = sorted(node for node in chosen if selected.count(node) > 1)
            problem = (
                "an empty set" if not selected
                else f"processors that are not enabled: {invalid}" if invalid
                else f"processors more than once: {repeated}"
            )
            raise SchedulingError(f"daemon {self.daemon.name!r} selected {problem}")
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_DAEMON_SELECT, now - mark)
            mark = now

        # Run each selected processor's action against the beginning-of-step
        # configuration, collecting its writes; apply them all only then
        # (composite atomicity), in one apply_step call that journals the
        # changed variables, which is what marks the stale parts.
        written: list[dict[str, object]] = []
        writers = self._writers
        for node in selected:
            view = writers[node]
            written.append(view.begin_move())
            enabled[node].statement(view)
        applied = self.configuration.apply_step(zip(selected, written))
        # Records are built with tuple.__new__: the named tuples' own
        # constructor is a Python-level call per move.
        new = tuple.__new__
        executed: list[tuple[int, str]] = []
        changed_nodes: list[int] = []
        moves: list[MoveRecord] = []
        for node, changes in zip(selected, applied):
            action = enabled[node]
            name = action.name
            executed.append((node, name))
            if changes:
                changed_nodes.append(node)
            moves.append(new(MoveRecord, (node, name, action.layer, changes)))
        record = new(StepRecord, (
            self._step_index, self._round_index, tuple(executed), tuple(changed_nodes), tuple(moves)
        ))
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_ACTION_EXEC, now - mark)
            instr.gauge("selected_set_size", len(selected))

        self._step_index += 1
        completed_round = self._advance_round(chosen)
        if timed:
            mark = time.perf_counter()
        dispatch_safely(self._observers, "on_step", self, record)
        if completed_round is not None:
            dispatch_safely(self._observers, "on_round", self, completed_round)
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_OBSERVER_DISPATCH, now - mark)
            instr.count("steps_timed")
            instr.count("step_seconds", now - step_started)
            instr.count("moves_executed", len(selected))
            if step_span is not None:
                step_span.annotate(selected=len(selected), changed=len(changed_nodes))
                step_span.close()
            if completed_round is not None and tracer is not None:
                round_span = tracer.current_round
                if round_span is not None:
                    round_span.annotate(completed=completed_round)
                    round_span.close()
                tracer.current_round = None
        return record

    def _advance_round(self, executed_nodes: set[int]) -> int | None:
        """Round bookkeeping: a round ends when every processor that was
        enabled at its start has executed or become disabled.  Returns the
        just-completed round index, or ``None``."""
        pending = self._round_pending
        pending -= executed_nodes
        if pending:
            self._refresh_enabled()
            pending = self._round_pending = pending & self._enabled.keys()
            if self._frozen:
                # The enabled-set keeps frozen nodes; they count as disabled.
                pending -= self._frozen
        if not pending:
            self._round_index += 1
            self._round_pending = None
            return self._round_index
        return None

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------
    def run_until_legitimate(
        self,
        max_steps: int = 100_000,
        confirm_steps: int = 0,
        substrate: Protocol | None = None,
    ) -> RunResult:
        """Run until the protocol has been legitimate for ``confirm_steps + 1`` checks.

        Legitimacy is checked before the first step and after every step.
        The run stops at the first of: ``confirm_steps + 1`` consecutive
        legitimate checks (an empirical closure check over ``confirm_steps``
        steps), a silent configuration (no processor enabled;
        ``terminated``), or ``max_steps`` executed steps -- so the budget can
        run out mid-confirmation.  ``converged`` is whether the last check
        was legitimate, and ``first_legitimate_step`` / ``_round`` is where
        that final legitimate streak began.  With ``substrate`` (a layer of
        the protocol, or a composition of some of them) ``substrate_step`` /
        ``_round`` report where its own final streak began.  Each check is
        one legitimacy pass (:meth:`_legitimacy`) that answers for the
        substrate and for the whole protocol at once.
        """
        leaves = self._group(None)
        group = leaves if substrate is None else self._group(substrate)
        rest = tuple(slot for slot in leaves if slot not in group)
        first_step = first_round = substrate_step = substrate_round = None
        held_for = 0
        terminated = False
        while True:
            inner, whole = self._legitimacy(group, rest)
            if substrate is not None:
                if not inner:
                    substrate_step = substrate_round = None
                elif substrate_step is None:
                    substrate_step, substrate_round = self._step_index, self._round_index
            if not whole:
                first_step = first_round = None
                held_for = 0
            else:
                if first_step is None:
                    first_step, first_round = self._step_index, self._round_index
                held_for += 1
                if held_for > confirm_steps:
                    break
            if self._step_index >= max_steps:
                break
            if self.step() is None:
                terminated = True
                break
        return RunResult(
            steps=self._step_index,
            moves=self.metrics.moves,
            rounds=self._round_index,
            terminated=terminated,
            converged=first_step is not None,
            first_legitimate_step=first_step,
            first_legitimate_round=first_round,
            configuration=self.configuration.copy(),
            metrics=self.metrics,
            substrate_step=substrate_step,
            substrate_round=substrate_round,
        )

    # ------------------------------------------------------------------
    # State manipulation (fault injection, dynamic networks)
    # ------------------------------------------------------------------
    def set_configuration(self, configuration: Configuration) -> None:
        """Replace the current configuration (e.g. after injecting faults).

        An arbitrary replacement may change any processor's state, so the
        whole enabled-set is invalidated.
        """
        self.configuration = configuration.copy()
        self._round_pending = None
        self._invalidate_enabled()
        self._notify_mutation("set_configuration", configuration=self.configuration)

    def set_daemon(self, daemon: Daemon) -> None:
        """Switch the scheduling adversary mid-run (daemon-switch scenarios).

        The new daemon starts with fresh bookkeeping; steps, rounds, metrics
        and the configuration are untouched.  Enabled-status depends only on
        the configuration, so the enabled-set stays valid.
        """
        daemon.reset()
        self.daemon = daemon
        self._notify_mutation("set_daemon", daemon=daemon.name)

    def set_network(
        self, network: RootedNetwork, reinitialize: Iterable[int] = ()
    ) -> None:
        """Replace the topology mid-run (dynamic-network scenarios).

        The new network must keep the processor count and the root: the
        processors survive, only links change.  Per-node action tables are
        rebuilt (guards capture port orders, which a link change shifts) and
        the processors in ``reinitialize`` -- typically the endpoints of the
        changed link -- have their whole local state redrawn arbitrarily from
        the protocol's domains on the *new* network, modelling the transient
        disruption a topology change inflicts on the processors that feel it.
        """
        if network.n != self.network.n:
            raise SchedulingError(
                f"dynamic network change cannot alter the processor count "
                f"({self.network.n} -> {network.n})"
            )
        if network.root != self.network.root:
            raise SchedulingError(
                f"dynamic network change cannot move the root "
                f"({self.network.root} -> {network.root})"
            )
        reinitialized = self._known(reinitialize, "reinitialize")
        self.protocol.validate(network)
        self.network = network
        self._index_actions()
        for node in reinitialized:
            self.configuration.replace_node(
                node, self.protocol.random_state(network, node, self.rng)
            )
        self._round_pending = None
        # New links mean new guard dependencies everywhere the port orders
        # shifted; rebuild the enabled-set from scratch.
        self._invalidate_enabled()
        # The redrawn states came from the rng, so the mutation payload must
        # carry them for a replay to reproduce the change without it.
        self._notify_mutation(
            "set_network",
            network=network,
            reinitialized={
                node: self.configuration.state_of(node) for node in reinitialized
            },
        )

    def freeze(self, nodes: Iterable[int]) -> None:
        """Crash ``nodes``: they stay disabled until :meth:`unfreeze`.

        The enabled-set keeps tracking frozen nodes (their guards are a pure
        function of the configuration, which freezing does not touch); the
        accessors simply stop reporting them, so no invalidation is needed.
        """
        frozen = self._known(nodes, "freeze")
        self._frozen.update(frozen)
        self._round_pending = None
        self._notify_mutation("freeze", nodes=tuple(sorted(frozen)))

    def unfreeze(self, nodes: Iterable[int]) -> None:
        """Let crashed ``nodes`` rejoin the computation."""
        thawed = self._known(nodes, "unfreeze")
        self._frozen.difference_update(thawed)
        self._round_pending = None
        self._notify_mutation("unfreeze", nodes=tuple(sorted(thawed)))

    def replace_node(self, node: int, values: Mapping[str, object]) -> None:
        """Overwrite one processor's whole local state (crash-rejoin events).

        Delegates to
        :meth:`~repro.runtime.configuration.Configuration.replace_node` -- the
        write is journaled, so the enabled-set folds it in like any other
        change -- and notifies observers, which a
        direct ``scheduler.configuration.replace_node`` call would bypass.
        """
        self._known((node,), "replace")
        self.configuration.replace_node(node, values)
        self._notify_mutation(
            "replace_node", node=node, state=self.configuration.state_of(node)
        )

    def _known(self, nodes: Iterable[int], verb: str) -> tuple[int, ...]:
        """``nodes`` as a tuple; a :class:`SchedulingError` for an id outside ``0..n-1``."""
        nodes = tuple(nodes)
        for node in nodes:
            if node not in self.network.nodes():
                raise SchedulingError(f"cannot {verb} unknown processor {node}")
        return nodes

    @property
    def frozen_nodes(self) -> frozenset[int]:
        """Processors currently crashed (excluded from daemon selection)."""
        return frozenset(self._frozen)

    @property
    def steps_executed(self) -> int:
        """Number of computation steps executed so far."""
        return self._step_index

    @property
    def rounds_completed(self) -> int:
        """Number of asynchronous rounds completed so far."""
        return self._round_index

    def __repr__(self) -> str:
        return (
            f"Scheduler(protocol={self.protocol.name!r}, network={self.network.name!r}, "
            f"daemon={self.daemon.name!r}, steps={self._step_index})"
        )


__all__ = [
    "MoveRecord",
    "Scheduler",
    "RunResult",
    "StepRecord",
    "check_residue_reads",
    "compile_kernels",
    "compile_program",
    "residue_reads",
]
