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

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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
from repro.runtime.actions import Action, Conjunction, Reads, Rule
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.runtime.metrics import ExecutionMetrics
from repro.runtime.observers import MetricsObserver, Observer, dispatch_safely
from repro.runtime.processor import GuardView, ProcessorView, TrackingGuardView
from repro.runtime.protocol import Protocol


def evaluate_guards(
    node: int,
    network: RootedNetwork,
    configuration: Configuration,
    actions: Sequence[Action],
    stale: int,
    held: int,
    view: GuardView,
    check_guard_locality: bool = False,
    offset: int = 0,
) -> tuple[int, int, int, int, int]:
    """Find ``node``'s first enabled action, calling only its stale guard parts.

    The scheduler's single guard-evaluation primitive, for guards and for
    violation rules alike: ``actions`` may be a layer's
    :class:`~repro.runtime.actions.Rule` sequence, whose first "enabled"
    entry is the first rule that holds.  The bits of ``held`` and ``stale``
    from bit ``offset`` on index the guard *parts* (conjuncts, see
    :func:`~repro.runtime.actions.all_of`) of ``actions`` in order, a plain
    guard being one part; the other bits pass through untouched.  Bit ``i``
    of ``held`` records whether part ``i`` held when last called, and bit
    ``i`` of ``stale`` that a change since then may have flipped it (or that
    it was never called).  The walk goes
    through the actions in priority order and through each action's parts
    left to right; it calls a part only when its stale bit is set, stops an
    action at its first false part, and stops at the first action whose
    parts all hold -- so the answer equals a fresh scan, with at most as many
    calls.  A full scan is ``stale=-1`` (every bit set).

    Returns ``(index, held, stale, consulted, calls)``: the first enabled
    action's index (``len(actions)`` when none is), the updated masks, the
    bits the walk consulted, and the number of parts called (what the
    ``guard_calls`` counter adds up).  Only a change
    that stales a consulted bit can change the answer; the other bits, behind
    a false part or past the first enabled action, may stay stale until a
    walk reaches them.

    Guards run on ``view``, the node's read-only :class:`GuardView`.  With
    ``check_guard_locality`` every called part instead runs on a fresh
    :class:`~repro.runtime.processor.TrackingGuardView` and its read log is
    checked: a read outside the closed neighborhood raises
    :class:`~repro.errors.GuardLocalityError` with rule RL004, and a read
    outside the part's own declared :class:`~repro.runtime.actions.Reads`
    one with rule RL008.
    """
    calls = consulted = 0
    bit = 1 << offset
    index = 0
    for action in actions:
        if check_guard_locality:
            predicates = _checked_parts(node, network, configuration, action)
        else:
            guard = action.guard
            predicates = guard.predicates if type(guard) is Conjunction else (guard,)
        end = bit << len(predicates)
        for predicate in predicates:
            consulted |= bit
            if stale & bit:
                calls += 1
                stale ^= bit
                if predicate(view):
                    held |= bit
                else:
                    held &= ~bit
                    break
            elif not held & bit:
                break
            bit <<= 1
        else:
            return index, held, stale, consulted, calls
        bit = end
        index += 1
    return index, held, stale, consulted, calls


def _checked_parts(
    node: int, network: RootedNetwork, configuration: Configuration, action: Action | Rule
) -> tuple[Callable[[object], bool], ...]:
    """``action``'s (or a rule's) guard parts, each run on a fresh tracking view and checked."""

    def checked(predicate: Callable, declared: Reads | None) -> Callable[[object], bool]:
        def call(_: object) -> bool:
            tracked = TrackingGuardView(node, network, configuration)
            holds = predicate(tracked)
            _check_guard_reads(
                node, network, configuration, action, declared, tracked.read_variables
            )
            return holds

        return call

    return tuple(checked(predicate, declared) for predicate, declared in action.guard_parts)


def _check_guard_reads(
    node: int,
    network: RootedNetwork,
    configuration: Configuration,
    action: Action | Rule,
    declared: Reads | None,
    reads: frozenset[tuple[int, str]],
) -> None:
    """Raise :class:`GuardLocalityError` for a read a guard or rule part may not make.

    A pointer-directed read (``via``/``named_by``) is allowed only at the
    neighbor its pointer picks out in ``configuration``.
    """
    kind = "violation rule" if isinstance(action, Rule) else "guard of action"
    allowed = set(network.neighbor_set(node))
    allowed.add(node)
    illegal = sorted((source, name) for source, name in reads if source not in allowed)
    if illegal:
        listed = ", ".join(f"{name!r} of processor {source}" for source, name in illegal)
        raise GuardLocalityError(
            f"guard locality violated (RL004): {kind} {action.name!r} "
            f"(layer {action.layer!r}) on processor {node} read {listed} outside "
            f"its closed neighborhood {sorted(allowed)}",
            node=node,
            layer=action.layer,
            action=action.name,
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
            f"undeclared guard read (RL008): {kind} {action.name!r} "
            f"(layer {action.layer!r}) on processor {node} read {listed}, which its "
            f"declared reads (own {sorted(declared.own)}, neighbor "
            f"{sorted(declared.neighbor)}{pointers}) omit",
            node=node,
            layer=action.layer,
            action=action.name,
            rule="RL008",
            reads=undeclared,
        )


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


def _stale_masks(
    tables: tuple[tuple[Reads | None, ...], ...],
    residue_reads: tuple[frozenset[str] | None, ...],
    pointers: tuple[str, ...],
    variables: tuple[str, ...] | None,
) -> MaskEntry:
    """The stale masks a change of ``variables`` (``None``: anything) at a node implies.

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

    def masks(test: Callable[[Reads | None], bool]) -> tuple[int, ...]:
        return tuple(
            sum(1 << position for position, reads in enumerate(table) if test(reads))
            for table in tables
        )

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


@dataclass(frozen=True)
class MoveRecord:
    """One processor's move within a step: what executed and what it changed."""

    node: int
    action: str
    layer: str
    changes: Mapping[str, tuple[object, object]]  # variable -> (old, new)


@dataclass(frozen=True)
class StepRecord:
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

    It keeps a persistent enabled-set and one truth value per guard part
    (:func:`evaluate_guards`).  A change of variables ``V`` at ``p`` stales
    the parts of ``p``'s guards whose declared
    :class:`~repro.runtime.actions.Reads` own-set meets ``V`` and the parts
    of its neighbors' guards whose neighbor-set does (a pointer-directed read
    only where its pointer points; an undeclared part reads everything); a
    processor is re-walked only when a bit its last walk consulted went
    stale.  That is sound because a guard reads only its closed
    neighborhood and what it declares.  The layers' violation rules share
    the tables and stale bits, so :meth:`legitimate` re-walks only the rules
    a change can flip.  The independent
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
        reads (RL008) -- the invariants the stale-bit marking relies on.
        Defaults to the ``REPRO_DEBUG_GUARDS`` environment variable.
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
        self._leaf_ids = frozenset(map(id, self._leaves))
        self._slots: dict[Protocol, tuple[int, ...]] = {}
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

        if check_guard_locality is None:
            check_guard_locality = bool(os.environ.get("REPRO_DEBUG_GUARDS"))
        self.check_guard_locality = check_guard_locality
        # The persistent enabled-set: node -> first enabled action, frozen
        # nodes included (freezing does not touch guards, so freeze/unfreeze
        # need no invalidation; the accessors filter them).
        self._enabled: dict[int, Action] = {}
        # Per node, bitmasks over its guard parts and then its rule parts
        # (see evaluate_guards): which parts held when last called and which
        # a change may have flipped since.  ``_watch`` and ``_rule_watch``
        # are the guard and rule bits the last walks consulted: only a stale
        # bit there can change an answer; a stale bit elsewhere waits for a
        # walk that reaches it.  ``_frontier`` and ``_rule_frontier`` hold the
        # nodes a drained change staled a consulted guard or rule bit of.
        # All are (re)built by _invalidate_enabled, one read-only guard view
        # and one statement view per node included.
        self._held: list[int] = []
        self._stale: list[int] = []
        self._watch: list[int] = []
        self._rule_watch: list[int] = []
        self._views: list[GuardView] = []
        self._writers: list[ProcessorView] = []
        self._frontier: set[int] = set()
        self._rule_frontier: set[int] = set()
        # Per leaf layer: the nodes one of its rules holds at, and its
        # residue's cached verdict (dropped by a change to what its rules read).
        self._violations: list[set[int]] = []
        self._residues: dict[int, bool] = {}
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
        self._views = [GuardView(node, network, configuration) for node in range(n)]
        self._writers = [ProcessorView(node, network, configuration) for node in range(n)]
        self._held = [0] * n
        self._stale = [-1] * n
        self._watch = [0] * n
        self._enabled = {}
        self._frontier = set(range(n))
        self._shadow_pointers()
        self._reset_legitimacy()

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

    def _reset_legitimacy(self) -> None:
        """Queue every node's rules for a walk and drop every cached verdict.

        Sound only while every rule bit is stale: the walk then calls each
        part it consults.
        """
        self._rule_watch = [sum(bits for _, _, bits, _ in walks) for walks in self._rule_walks]
        self._rule_frontier = set(range(self.network.n))
        self._violations = [set() for _ in self._leaves]
        self._residues = {}

    def _index_actions(self) -> None:
        """Build the per-node action and rule tables and their read-declaration index.

        A node's *table* is the reads of its guard parts, in bit order, then
        those of each leaf layer's rule parts (one *segment* per layer);
        nodes with equal tables share one.  The stale masks a change implies
        are memoised per changed-variable tuple, shared by every scheduler
        with equal tables (:data:`_STALE_MASKS`), so marking costs a lookup
        per touched node.  A layer's residue is re-evaluated after a
        change to what its rule parts read; a layer without rules is checked
        whole, after any change.
        """
        network = self.network
        self._actions = {
            node: tuple(self.protocol.actions(network, node)) for node in network.nodes()
        }
        tables: dict[tuple[Reads | None, ...], int] = {}
        self._table: list[int] = []
        # Per node: ``(leaf slot, first bit, bit mask, rules)`` of each
        # nonempty rule segment; equal ones are stored once.
        walks_of: dict[tuple, tuple[tuple[int, int, int, tuple[Rule, ...]], ...]] = {}
        self._rule_walks: list[tuple[tuple[int, int, int, tuple[Rule, ...]], ...]] = []
        for node in network.nodes():
            parts = [reads for action in self._actions[node] for _, reads in action.guard_parts]
            walks = []
            for slot, leaf in enumerate(self._leaves):
                rules = tuple(leaf.violation_rules(network, node))
                offset = len(parts)
                parts.extend(reads for rule in rules for _, reads in rule.guard_parts)
                if len(parts) > offset:
                    walks.append((slot, offset, (1 << len(parts)) - (1 << offset), rules))
            self._table.append(tables.setdefault(tuple(parts), len(tables)))
            self._rule_walks.append(walks_of.setdefault(tuple(walks), tuple(walks)))
        self._tables: tuple[tuple[Reads | None, ...], ...] = tuple(tables)
        # Per leaf: what its rule parts read (``None``: anything) and how
        # its residue is checked.
        declared: list[set[Reads | None]] = [set() for _ in self._leaves]
        for walks in walks_of.values():
            for slot, _, _, rules in walks:
                declared[slot].update(reads for rule in rules for _, reads in rule.guard_parts)
        residue_reads = tuple(
            None
            if not reads or None in reads
            else frozenset().union(*(read.own | read.neighbor_reads for read in reads))
            for reads in declared
        )
        self._residue_checks: list[Callable[[RootedNetwork, Configuration], bool]] = [
            leaf.legitimacy_residue if reads else leaf.legitimate
            for leaf, reads in zip(self._leaves, declared)
        ]
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
        key = (self._tables, residue_reads)
        memo = _STALE_MASKS.get(key)
        if memo is None:
            if len(_STALE_MASKS) >= _STALE_MASK_TABLES:
                _STALE_MASKS.clear()
            memo = _STALE_MASKS[key] = {}
        self._mask_memo = memo
        self._residue_reads = residue_reads

    def _reevaluate(self, node: int) -> int:
        """Walk ``node``'s stale guard parts and update its enabled-set entry; returns part calls."""
        actions = self._actions[node]
        index, self._held[node], self._stale[node], self._watch[node], calls = evaluate_guards(
            node,
            self.network,
            self.configuration,
            actions,
            self._stale[node],
            self._held[node],
            self._views[node],
            self.check_guard_locality,
        )
        if index < len(actions):
            self._enabled[node] = actions[index]
        else:
            self._enabled.pop(node, None)
        return calls

    def _drain(self) -> None:
        """Mark stale the guard and rule parts the journaled changes can flip.

        The journal's only reader.  Every drained entry ``node -> variables``
        sets the stale bits its declarations imply (:func:`_stale_masks`) at
        the node and its neighbors, and for pointer-directed reads at the
        nodes the pointer shadow picks out: the holders whose pointer names
        the node (``via``) and the nodes the node's own pointer named before
        and names now (``named_by``); the entry also moves the shadow.  A
        node joins the guard (rule) frontier
        when a newly stale bit is a guard (rule) bit its last walk
        consulted, since no other part can change which action is first or
        which rule holds.  The entry also drops the cached residues it can
        change.  Calls no guard or rule, so :meth:`legitimate` can drain
        without moving guard work out of the step.
        """
        changes = self.configuration.drain_dirty()
        if not changes:
            return
        actions, table, stale, watch = self._actions, self._table, self._stale, self._watch
        rule_watch, rule_frontier = self._rule_watch, self._rule_frontier
        residues = self._residues
        memo = self._mask_memo
        frontier = self._frontier
        # Neighbor masks -> the changed nodes whose neighbors they mark.
        spread: dict[tuple[int, ...], list[int]] = {}
        # (node, masks) marks of the pointer-directed reads.
        pointed: list[tuple[int, tuple[int, ...]]] = []
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
                self._follow_pointers(node, directed, pointed)
        # Marking each neighbor once per mask, not once per changed node next
        # to it, keeps dense synchronous steps linear in n.
        neighbor_set = self.network.neighbor_set
        for neighbor, nodes in spread.items():
            for other in set().union(*map(neighbor_set, nodes)):
                mask = neighbor[table[other]]
                if mask:
                    stale[other] |= mask
                    if mask & watch[other]:
                        frontier.add(other)
                    if mask & rule_watch[other]:
                        rule_frontier.add(other)
        for other, masks in pointed:
            mask = masks[table[other]]
            if mask:
                stale[other] |= mask
                if mask & watch[other]:
                    frontier.add(other)
                if mask & rule_watch[other]:
                    rule_frontier.add(other)
        if self._instr.enabled:
            self._instr.gauge("dirty_set_size", len(changes))

    def _follow_pointers(
        self,
        node: int,
        directed: tuple[tuple[str, ...], PointerMasks, PointerMasks],
        marks: list[tuple[int, tuple[int, ...]]],
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
                    marks.append((target, masks))
        for pointer, masks in via:
            for holder in holders[pointer].get(node, ()):
                marks.append((holder, masks))

    def _refresh_enabled(self) -> None:
        """Drain the journal, then re-walk the frontier.

        Attributes its own wall clock to the ``guard_eval`` phase, so
        callers -- including the nested re-check round bookkeeping performs
        -- never double-count it.
        """
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        self._drain()
        frontier = self._frontier
        if frontier:
            self._frontier = set()
            calls = 0
            for node in frontier:
                calls += self._reevaluate(node)
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
        other layer raises ``ValueError``.  The answer is "no violation rule
        of its leaf layers holds at any node, and their residues hold"
        (:meth:`~repro.runtime.protocol.Protocol.legitimate`).  It drains
        the change journal (:meth:`_drain`, no guard is walked), re-walks
        only the rules whose consulted parts went stale and re-checks a
        residue only after a change to what its rules read.
        """
        if layer is not None and not self._leaf_ids.issuperset(map(id, layer.layers())):
            raise ValueError(f"layer {layer.name!r} is not part of the scheduled protocol")
        instr = self._instr
        if not instr.enabled:
            return self._legitimate(layer)
        started = time.perf_counter()
        holds = self._legitimate(layer)
        instr.phase_time(PHASE_LEGITIMACY, time.perf_counter() - started)
        return holds

    def _legitimate(self, layer: Protocol | None) -> bool:
        if layer is None:
            slots: Sequence[int] = range(len(self._leaves))
        else:
            slots = self._slots.get(layer)
            if slots is None:
                slots = self._slots[layer] = tuple(map(self._leaves.index, layer.layers()))
        self._drain()
        # One node that still violates settles the answer: re-walk the known
        # violators first, one at a time, and leave the rest of the frontier
        # for a query it can change.
        frontier, violations = self._rule_frontier, self._violations
        for slot in slots:
            violating = violations[slot]
            for node in list(violating):
                if node in frontier:
                    frontier.discard(node)
                    self._walk_rules((node,))
                if node in violating:
                    return False
        self._walk_rule_frontier()
        if any(violations[slot] for slot in slots):
            return False
        return all(self._residue(slot) for slot in slots)

    def legitimacy_distance(self) -> int:
        """How far from legitimate the configuration is; 0 exactly when :meth:`legitimate`.

        The number of nodes at which some leaf layer's violation rule holds,
        plus 1 when a layer's residue fails -- read off the violation sets
        and residue cache :meth:`legitimate` answers from.
        """
        self._drain()
        self._walk_rule_frontier()
        violating = set().union(*self._violations)
        return len(violating) + (not all(map(self._residue, range(len(self._leaves)))))

    def _residue(self, slot: int) -> bool:
        holds = self._residues.get(slot)
        if holds is None:
            holds = self._residues[slot] = self._residue_checks[slot](
                self.network, self.configuration
            )
        return holds

    def _walk_rule_frontier(self) -> None:
        """Bring the violation sets up to date with the drained changes."""
        frontier = self._rule_frontier
        if frontier:
            self._rule_frontier = set()
            self._walk_rules(frontier)

    def _walk_rules(self, nodes: Iterable[int]) -> None:
        """Re-walk each rule segment of ``nodes`` whose consulted bits went stale.

        Calls only the segment's stale parts; rule part calls are not guard
        calls and are not counted as such.
        """
        network, configuration = self.network, self.configuration
        check, views, rule_walks = self.check_guard_locality, self._views, self._rule_walks
        held, stale, watch = self._held, self._stale, self._rule_watch
        violations = self._violations
        walked = 0
        for node in nodes:
            hot = stale[node] & watch[node]
            for slot, offset, bits, rules in rule_walks[node]:
                if hot & bits:
                    walked += 1
                    index, held[node], stale[node], consulted, _ = evaluate_guards(
                        node, network, configuration, rules, stale[node], held[node],
                        views[node], check, offset,
                    )
                    watch[node] = watch[node] & ~bits | consulted
                    if index < len(rules):
                        violations[slot].add(node)
                    else:
                        violations[slot].discard(node)
        if self._instr.enabled:
            self._instr.count("legitimacy_nodes_checked", walked)

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
        if not selected:
            raise SchedulingError(f"daemon {self.daemon.name!r} selected an empty set")
        frozen = self._frozen
        invalid = [node for node in selected if node not in enabled or node in frozen]
        if invalid:
            raise SchedulingError(
                f"daemon {self.daemon.name!r} selected processors that are not enabled: {invalid}"
            )
        chosen = set(selected)
        if len(chosen) < len(selected):
            repeated = sorted(node for node in chosen if selected.count(node) > 1)
            raise SchedulingError(
                f"daemon {self.daemon.name!r} selected processors more than once: {repeated}"
            )
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_DAEMON_SELECT, now - mark)
            mark = now

        executed, pending_writes = self._execute_selected(enabled, selected)

        # Apply all writes after every selected processor has read the
        # beginning-of-step configuration (composite atomicity).  apply_writes
        # journals the changed variables, which is what marks the stale
        # guards.
        changed_nodes: list[int] = []
        moves: list[MoveRecord] = []
        apply_writes = self.configuration.apply_writes
        for node, writes in pending_writes.items():
            changes = apply_writes(node, writes)
            if changes:
                changed_nodes.append(node)
            action = enabled[node]
            # Positional: the frozen dataclass's keyword call costs more per move.
            moves.append(MoveRecord(node, action.name, action.layer, changes))

        record = StepRecord(
            step=self._step_index,
            round=self._round_index,
            executed=tuple(executed),
            changed_nodes=tuple(changed_nodes),
            moves=tuple(moves),
        )
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

    def _execute_selected(
        self, enabled: Mapping[int, Action], selected: Sequence[int]
    ) -> tuple[list[tuple[int, str]], dict[int, dict[str, object]]]:
        """Run the selected processors' actions against the beginning-of-step
        configuration and collect their writes (not yet applied).

        The execution half of a computation step, kept apart from daemon
        selection, write application and round bookkeeping.  Returns the
        ``(node, action name)`` pairs and the per-node pending writes, both in
        selection order.
        """
        executed: list[tuple[int, str]] = []
        pending_writes: dict[int, dict[str, object]] = {}
        writers = self._writers
        for node in selected:
            action = enabled[node]
            view = writers[node]
            pending_writes[node] = view.begin_move()
            action.statement(view)
            executed.append((node, action.name))
        return executed, pending_writes

    def _advance_round(self, executed_nodes: set[int]) -> int | None:
        """Round bookkeeping: a round ends when every processor that was
        enabled at its start has executed or become disabled.  Returns the
        just-completed round index, or ``None``."""
        self._round_pending -= executed_nodes
        if self._round_pending:
            self._refresh_enabled()
            # The enabled-set keeps frozen nodes; they count as disabled.
            pending = self._round_pending & self._enabled.keys()
            pending -= self._frozen
            self._round_pending = pending
        if not self._round_pending:
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
        the protocol, or a composition of some of them) its legitimacy is
        checked first at each check, and ``substrate_step`` / ``_round``
        report where its own final streak began.
        """
        first_step: int | None = None
        first_round: int | None = None
        substrate_step: int | None = None
        substrate_round: int | None = None
        held_for = 0
        terminated = False
        while True:
            if substrate is not None:
                if not self.legitimate(substrate):
                    substrate_step = substrate_round = None
                elif substrate_step is None:
                    substrate_step, substrate_round = self._step_index, self._round_index
            if not self.legitimate():
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
    "evaluate_guards",
]
