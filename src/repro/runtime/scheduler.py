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
    PHASE_LEGITIMACY,
    PHASE_OBSERVER_DISPATCH,
)
from repro.runtime.actions import Action, Reads
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.runtime.legitimacy import LegitimacyTracker
from repro.runtime.metrics import ExecutionMetrics
from repro.runtime.observers import MetricsObserver, Observer, dispatch_safely
from repro.runtime.processor import ProcessorView, TrackingProcessorView
from repro.runtime.protocol import Protocol


def evaluate_guards(
    node: int,
    network: RootedNetwork,
    configuration: Configuration,
    actions: Sequence[Action],
    stale: int,
    held: int,
    check_guard_locality: bool = False,
) -> tuple[int, int, int, int]:
    """Find ``node``'s first enabled action, calling only its stale guards.

    The single guard-evaluation primitive every scheduler core uses.  Bit
    ``i`` of ``held`` records whether guard ``i`` held when last evaluated,
    and bit ``i`` of ``stale`` that a change since then may have flipped it
    (or that it was never evaluated).  The walk goes through the actions in
    priority order, re-evaluates a guard only when its stale bit is set, and
    stops at the first enabled action -- so the answer equals a fresh scan,
    with at most as many guard calls.  A full scan is ``stale`` with every
    bit set.

    Returns ``(index, held, stale, calls)``: the first enabled action's
    index (``len(actions)`` when none is), the updated masks, and the number
    of guards called.

    With ``check_guard_locality`` every called guard runs on a fresh
    :class:`~repro.runtime.processor.TrackingProcessorView` and its read log
    is checked: a read outside the closed neighborhood raises
    :class:`~repro.errors.GuardLocalityError` with rule RL004, and a read
    outside the action's declared :class:`~repro.runtime.actions.Reads` one
    with rule RL008.
    """
    view = None if check_guard_locality else ProcessorView(node, network, configuration)
    calls = 0
    bit = 1
    index = 0
    for action in actions:
        if stale & bit:
            calls += 1
            stale ^= bit
            if view is None:
                tracked = TrackingProcessorView(node, network, configuration)
                holds = action.guard(tracked)
                _check_guard_reads(node, network, action, tracked.read_variables)
            else:
                holds = action.guard(view)
            if holds:
                return index, held | bit, stale, calls
            held &= ~bit
        elif held & bit:
            return index, held, stale, calls
        bit <<= 1
        index += 1
    return index, held, stale, calls


def _check_guard_reads(
    node: int,
    network: RootedNetwork,
    action: Action,
    reads: frozenset[tuple[int, str]],
) -> None:
    """Raise :class:`GuardLocalityError` for a read ``action``'s guard may not make."""
    allowed = set(network.neighbor_set(node))
    allowed.add(node)
    illegal = sorted((source, name) for source, name in reads if source not in allowed)
    if illegal:
        listed = ", ".join(f"{name!r} of processor {source}" for source, name in illegal)
        raise GuardLocalityError(
            f"guard locality violated (RL004): guard of action {action.name!r} "
            f"(layer {action.layer!r}) on processor {node} read {listed} outside "
            f"its closed neighborhood {sorted(allowed)}",
            node=node,
            layer=action.layer,
            action=action.name,
            rule="RL004",
            reads=illegal,
        )
    declared = action.reads
    if declared is None:
        return
    undeclared = sorted(
        (source, name)
        for source, name in reads
        if name not in (declared.own if source == node else declared.neighbor)
    )
    if undeclared:
        listed = ", ".join(
            f"{'own' if source == node else 'neighbor'} {name!r} (processor {source})"
            for source, name in undeclared
        )
        raise GuardLocalityError(
            f"undeclared guard read (RL008): guard of action {action.name!r} "
            f"(layer {action.layer!r}) on processor {node} read {listed}, which its "
            f"declared reads (own {sorted(declared.own)}, neighbor "
            f"{sorted(declared.neighbor)}) omit",
            node=node,
            layer=action.layer,
            action=action.name,
            rule="RL008",
            reads=undeclared,
        )


def first_enabled_action(
    node: int,
    network: RootedNetwork,
    configuration: Configuration,
    actions: Sequence[Action],
    check_guard_locality: bool = False,
) -> Action | None:
    """The first action of ``node`` whose guard holds in ``configuration``.

    A full scan through :func:`evaluate_guards` (every guard stale).
    """
    index = evaluate_guards(
        node, network, configuration, actions, (1 << len(actions)) - 1, 0, check_guard_locality
    )[0]
    return actions[index] if index < len(actions) else None


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
        ``True`` when the requested stop predicate (usually legitimacy) was
        reached.
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
    incremental:
        With ``True`` (the default) the scheduler maintains a persistent
        enabled-set and re-evaluates only the guards a journaled change can
        flip, instead of rescanning all ``n`` processors per step.  A change
        of variables ``V`` at ``p`` marks stale the guards of ``p`` whose
        declared :class:`~repro.runtime.actions.Reads` own-set meets ``V``
        and the guards of ``p``'s neighbors whose neighbor-set does (an
        action without a declaration counts as reading everything).  This is
        sound because a guard may read only its closed neighborhood
        (:class:`~repro.runtime.processor.ProcessorView` enforces it) and
        only what it declares, so results are bit-identical to
        ``incremental=False``, which keeps the historical full scan for
        differential testing (the ``scheduler-fullscan`` engine).  The same flag selects how
        :meth:`legitimate` answers: from a
        :class:`~repro.runtime.legitimacy.LegitimacyTracker` on the same
        change journal, or by evaluating the protocol's global predicate.
    check_guard_locality:
        Debug mode: track every configuration read during guard evaluation
        and raise :class:`~repro.errors.GuardLocalityError` (a
        :class:`~repro.errors.ProtocolError`, carrying the layer, action and
        offending variables) if a guard reads outside its closed
        neighborhood (rule RL004) or outside its action's declared reads
        (RL008) -- the invariants the incremental path relies on.  Defaults
        to the ``REPRO_DEBUG_GUARDS`` environment variable.
    instrumentation:
        An :class:`~repro.obs.Instrumentation` registry the step loop feeds
        with phase timers (guard-eval, daemon-select, action-exec,
        observer-dispatch), guard-evaluation counters, and dirty/enabled-set
        gauges.  Defaults to the shared no-op
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
        incremental: bool = True,
        check_guard_locality: bool | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.daemon = daemon or DistributedDaemon()
        #: The daemon the run was configured with; :meth:`set_daemon` does not
        #: touch it, so scenario events can restore it after a switch.
        self.initial_daemon = self.daemon
        self.rng = rng or random.Random(seed)
        protocol.validate(network)
        self.daemon.reset()

        if configuration is None:
            configuration = protocol.random_configuration(network, rng=self.rng)
        self.configuration = configuration.copy()

        self._index_actions()
        # Metrics are an observer like any other; keeping it first in the list
        # preserves the historical update order (counters before any external
        # consumer sees the step).
        self._metrics_observer = MetricsObserver()
        self._observers: list[Observer] = [self._metrics_observer, *observers]

        self._step_index = 0
        self._round_index = 0
        self._round_pending: set[int] | None = None
        self._frozen: set[int] = set()

        self._instr = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION

        self.incremental = incremental
        if check_guard_locality is None:
            check_guard_locality = bool(os.environ.get("REPRO_DEBUG_GUARDS"))
        self.check_guard_locality = check_guard_locality
        # The persistent enabled-set of the incremental path: node -> first
        # enabled action, for every node *ignoring* frozen status (freezing
        # does not touch guards, so keeping crashed nodes cached makes
        # freeze/unfreeze invalidation-free; the accessors filter them).
        self._enabled: dict[int, Action] = {}
        # Per node, bitmasks over its action tuple (see evaluate_guards):
        # which guards held when last evaluated, which a change may have
        # flipped since, and which can matter -- the bits up to the first
        # enabled action; a stale bit beyond it waits for a later walk.
        self._held: list[int] = []
        self._stale: list[int] = []
        self._watch: list[int] = []
        self._needs_full_rescan = True
        # Maintained sorted/immutable view of the non-frozen enabled nodes.
        # Steps used to re-sort the enabled-set (and daemons to copy it) every
        # step, which is what flattened the incremental core's win near ~5x in
        # BENCH_scheduler.json; the view is rebuilt only when enabled-set
        # *membership* (or the frozen set) actually changes.
        self._enabled_order: tuple[int, ...] | None = None
        self._enabled_members: frozenset[int] | None = None
        # Built on the first legitimacy query (see :meth:`legitimate`).
        self._legitimacy: LegitimacyTracker | None = None

        # The one point where an observer can still see the *initial*
        # configuration (the flight recorder captures it here).
        dispatch_safely(self._observers, "on_run_start", self, None)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ExecutionMetrics:
        """Per-run counters, accumulated by the built-in metrics observer."""
        return self._metrics_observer.metrics

    @property
    def observers(self) -> tuple[Observer, ...]:
        """Every registered observer (built-ins first)."""
        return tuple(self._observers)

    @property
    def instrumentation(self) -> Instrumentation:
        """The run's instrumentation registry (the shared no-op by default)."""
        return self._instr

    def add_observer(self, observer: Observer) -> None:
        """Register ``observer`` for subsequent step/round notifications."""
        self._observers.append(observer)

    def _notify_step(self, record: StepRecord) -> None:
        dispatch_safely(self._observers, "on_step", self, record)

    def _notify_mutation(self, kind: str, **payload: object) -> None:
        """Tell every observer about out-of-band state surgery."""
        mutation = {"kind": kind}
        mutation.update(payload)
        dispatch_safely(self._observers, "on_mutation", self, mutation)

    def _notify_round(self, round_index: int) -> None:
        dispatch_safely(self._observers, "on_round", self, round_index)

    def notify_converged(self, result: object) -> None:
        """Tell every observer the run's stop condition was reached."""
        dispatch_safely(self._observers, "on_converged", self, result)

    # ------------------------------------------------------------------
    # Enabled actions
    # ------------------------------------------------------------------
    def enabled_actions(self) -> dict[int, Action]:
        """The first enabled action of every enabled processor.

        Frozen (crashed) processors are treated as disabled: whatever their
        guards evaluate to, the daemon never sees them.  On the incremental
        path this reads the maintained enabled-set (after folding in any
        journaled configuration changes); with ``incremental=False`` it is
        the historical full scan.
        """
        order, lookup, _ = self._enabled_view()
        return {node: lookup[node] for node in order}

    def _enabled_view(self) -> tuple[tuple[int, ...], Mapping[int, Action], frozenset[int]]:
        """The enabled set as ``(sorted order, node -> action, member set)``.

        The step loop's view of the enabled processors.  On the incremental
        path the order tuple and member set are maintained across steps and
        rebuilt only when membership changed, so neither the per-step sort nor
        the daemon's selection copies scale with the enabled count; the
        full-scan path keeps its historical rebuild-per-call behavior.
        """
        if self.incremental:
            self._refresh_enabled()
            if self._enabled_order is None:
                # The rebuild is enabled-set maintenance like the refresh
                # itself, so it books under the same phase.
                instr = self._instr
                timed = instr.enabled
                started = time.perf_counter() if timed else 0.0
                order = tuple(
                    sorted(node for node in self._enabled if node not in self._frozen)
                )
                self._enabled_order = order
                self._enabled_members = frozenset(order)
                if timed:
                    instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
            assert self._enabled_members is not None
            return self._enabled_order, self._enabled, self._enabled_members
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        enabled: dict[int, Action] = {}
        network, configuration = self.network, self.configuration
        check = self.check_guard_locality
        calls = 0
        for node in network.nodes():
            if node in self._frozen:
                continue
            actions = self._actions[node]
            index, _, _, called = evaluate_guards(
                node, network, configuration, actions, (1 << len(actions)) - 1, 0, check
            )
            calls += called
            if index < len(actions):
                enabled[node] = actions[index]
        order = tuple(enabled)  # network.nodes() iterates ascending
        if timed:
            instr.count("guards_evaluated", network.n - len(self._frozen))
            instr.count("guard_calls", calls)
            instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
        return order, enabled, frozenset(order)

    def enabled_nodes(self) -> tuple[int, ...]:
        """Identifiers of the processors with at least one enabled action."""
        return self._enabled_view()[0]

    def is_enabled(self, node: int) -> bool:
        """Whether ``node`` has an enabled action in the current configuration.

        Frozen (crashed) processors are never enabled, matching
        :meth:`enabled_actions`.  Always evaluates the guards directly, so it
        is correct on both the incremental and the full-scan path.
        """
        return node not in self._frozen and self._first_enabled(node) is not None

    def _first_enabled(self, node: int) -> Action | None:
        return first_enabled_action(
            node,
            self.network,
            self.configuration,
            self._actions[node],
            check_guard_locality=self.check_guard_locality,
        )

    def _invalidate_enabled(self) -> None:
        """Force a full guard rescan on the next enabled-set access."""
        self._needs_full_rescan = True
        self._invalidate_enabled_view()

    def _invalidate_enabled_view(self) -> None:
        """Drop the maintained sorted view (membership or frozen set changed)."""
        self._enabled_order = None
        self._enabled_members = None

    def _index_actions(self) -> None:
        """Build the per-node action tables and their read-declaration index.

        Nodes whose actions declare the same reads share one *table*; the
        stale masks a change implies are memoised per changed-variable tuple
        and table, so marking costs a lookup per touched node.
        """
        network = self.network
        self._actions = {
            node: tuple(self.protocol.actions(network, node)) for node in network.nodes()
        }
        tables: dict[tuple[Reads | None, ...], int] = {}
        self._table: list[int] = [
            tables.setdefault(tuple(action.reads for action in self._actions[node]), len(tables))
            for node in network.nodes()
        ]
        self._tables: tuple[tuple[Reads | None, ...], ...] = tuple(tables)
        self._stale_masks: dict[
            tuple[str, ...] | None, tuple[tuple[int, ...], tuple[int, ...], bool]
        ] = {}

    def _masks_for(
        self, variables: tuple[str, ...] | None
    ) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
        """Stale masks a change of ``variables`` implies, per table.

        ``(own, neighbor, reaches)``: ``own[t]`` for the changed node and
        ``neighbor[t]`` for each of its neighbors, where ``t`` is the node's
        table; ``reaches`` is whether any neighbor mask is nonzero.
        """
        def mask(table: tuple[Reads | None, ...], neighbor: bool) -> int:
            bits = 0
            for position, reads in enumerate(table):
                if (
                    reads is None
                    or variables is None
                    or not (reads.neighbor if neighbor else reads.own).isdisjoint(variables)
                ):
                    bits |= 1 << position
            return bits

        own = tuple(mask(table, False) for table in self._tables)
        neighbor = tuple(mask(table, True) for table in self._tables)
        entry = (own, neighbor, any(neighbor))
        self._stale_masks[variables] = entry
        return entry

    def _reevaluate(self, node: int) -> int:
        """Walk ``node``'s stale guards and update its enabled-set entry; returns guard calls."""
        actions = self._actions[node]
        index, self._held[node], self._stale[node], calls = evaluate_guards(
            node,
            self.network,
            self.configuration,
            actions,
            self._stale[node],
            self._held[node],
            self.check_guard_locality,
        )
        self._watch[node] = (2 << index) - 1
        if index < len(actions):
            if node not in self._enabled:
                self._invalidate_enabled_view()
            self._enabled[node] = actions[index]
        elif self._enabled.pop(node, None) is not None:
            self._invalidate_enabled_view()
        return calls

    def _refresh_enabled(self) -> None:
        """Fold journaled configuration changes into the persistent enabled-set.

        Each journal entry ``node -> variables`` sets the stale bits its
        declarations imply (:meth:`_masks_for`) at the node and its
        neighbors; a node is re-walked only when a stale bit lies at or
        before its first enabled action, since no other guard can change
        which action is first.

        Attributes its own wall clock to the ``guard_eval`` phase, so
        callers -- including the nested re-check round bookkeeping performs
        -- never double-count it.
        """
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        if self._needs_full_rescan:
            self.configuration.drain_dirty()
            self._enabled = {}
            n = self.network.n
            self._held = [0] * n
            self._stale = [(1 << len(self._actions[node])) - 1 for node in range(n)]
            self._watch = [0] * n
            calls = 0
            for node in range(n):
                calls += self._reevaluate(node)
            self._needs_full_rescan = False
            self._invalidate_enabled_view()
            if timed:
                instr.count("guards_evaluated", n)
                instr.count("guard_calls", calls)
                instr.count("full_rescans")
                instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
            return
        changes = self.configuration.drain_dirty()
        if not changes:
            if timed:
                instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
            return
        actions, table, stale, watch = self._actions, self._table, self._stale, self._watch
        memo = self._stale_masks
        frontier: set[int] = set()
        # Neighbor masks -> the changed nodes whose neighbors they mark.
        spread: dict[tuple[int, ...], list[int]] = {}
        for node, variables in changes.items():
            if node not in actions:
                continue  # a foreign node id journaled by hand-built state
            entry = memo.get(variables)
            if entry is None:
                entry = self._masks_for(variables)
            own, neighbor, reaches = entry
            mask = own[table[node]]
            if mask:
                stale[node] |= mask
                if mask & watch[node]:
                    frontier.add(node)
            if reaches:
                spread.setdefault(neighbor, []).append(node)
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
        calls = 0
        for node in frontier:
            calls += self._reevaluate(node)
        if timed:
            instr.count("guards_evaluated", len(frontier))
            instr.count("guard_calls", calls)
            instr.gauge("dirty_set_size", len(changes))
            instr.gauge("frontier_size", len(frontier))
            instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Legitimacy
    # ------------------------------------------------------------------
    def legitimate(self, layer: Protocol | None = None) -> bool:
        """Whether ``layer`` (default: the whole protocol) is legitimate now.

        ``layer`` is the protocol, one of its :meth:`~Protocol.layers`, or a
        composition of some of them (a substrate such as the DFS tree).  On
        the incremental path the answer comes from a
        :class:`~repro.runtime.legitimacy.LegitimacyTracker`, built on the
        first call and rebuilt whenever the configuration or network object
        was replaced (:meth:`set_configuration`, :meth:`set_network`): its
        watcher must sit on the live configuration and its references match
        the live links.  With ``incremental=False`` it evaluates the layer's
        global predicate, the reference the tracker is tested against.
        """
        instr = self._instr
        if not instr.enabled:
            return self._legitimate(layer)
        started = time.perf_counter()
        holds = self._legitimate(layer)
        instr.phase_time(PHASE_LEGITIMACY, time.perf_counter() - started)
        return holds

    def _legitimate(self, layer: Protocol | None) -> bool:
        if not self.incremental:
            checked = self.protocol if layer is None else layer
            return checked.legitimate(self.network, self.configuration)
        tracker = self._legitimacy
        if (
            tracker is None
            or tracker.configuration is not self.configuration
            or tracker.network is not self.network
        ):
            if tracker is not None:
                tracker.detach()
            tracker = self._legitimacy = LegitimacyTracker(
                self.network, self.protocol, self.configuration, instrumentation=self._instr
            )
        return tracker.legitimate(layer)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> StepRecord | None:
        """Execute one computation step; ``None`` if no processor is enabled."""
        instr = self._instr
        timed = instr.enabled
        step_started = time.perf_counter() if timed else 0.0

        order, enabled, members = self._enabled_view()
        if not order:
            return None

        tracer = instr.tracer if timed else None
        if self._round_pending is None:
            self._round_pending = set(order)
            if tracer is not None:
                tracer.current_round = tracer.span(
                    "round", kind="round", parent=tracer.current_run, round=self._round_index
                )
        step_span = (
            tracer.span(
                "step",
                kind="step",
                parent=tracer.current_round or tracer.current_run,
                step=self._step_index,
            )
            if tracer is not None
            else None
        )

        if timed:
            instr.gauge("enabled_set_size", len(order))
            mark = time.perf_counter()
        selected = self.daemon.select(order, self._step_index, self.rng)
        if not selected:
            raise SchedulingError(f"daemon {self.daemon.name!r} selected an empty set")
        invalid = [node for node in selected if node not in members]
        if invalid:
            raise SchedulingError(
                f"daemon {self.daemon.name!r} selected processors that are not enabled: {invalid}"
            )
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_DAEMON_SELECT, now - mark)
            mark = now

        executed, pending_writes = self._execute_selected(enabled, selected)

        # Apply all writes after every selected processor has read the
        # beginning-of-step configuration (composite atomicity).  apply_writes
        # journals the changed variables, which is what marks the incremental
        # path's stale guards.
        changed_nodes: list[int] = []
        moves: list[MoveRecord] = []
        action_names = dict(executed)
        for node, writes in pending_writes.items():
            changes = self.configuration.apply_writes(node, writes)
            if changes:
                changed_nodes.append(node)
            moves.append(
                MoveRecord(
                    node=node,
                    action=action_names[node],
                    layer=enabled[node].layer,
                    changes=changes,
                )
            )

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
        completed_round = self._advance_round(set(selected))
        if timed:
            mark = time.perf_counter()
        self._notify_step(record)
        if completed_round is not None:
            self._notify_round(completed_round)
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
        for node in selected:
            action = enabled[node]
            view = ProcessorView(node, self.network, self.configuration)
            action.statement(view)
            pending_writes[node] = view.pending_writes
            executed.append((node, action.name))
        return executed, pending_writes

    def _advance_round(self, executed_nodes: set[int]) -> int | None:
        """Round bookkeeping: a round ends when every processor that was
        enabled at its start has executed or become disabled.  Returns the
        just-completed round index, or ``None``."""
        if self._round_pending is None:
            return None
        self._round_pending -= executed_nodes
        if self._round_pending:
            self._round_pending &= self._enabled_view()[2]
        if not self._round_pending:
            self._round_index += 1
            self._round_pending = None
            return self._round_index
        return None

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------
    def run(
        self,
        max_steps: int = 100_000,
        stop_predicate: Callable[["Scheduler"], bool] | None = None,
    ) -> RunResult:
        """Execute until termination, ``stop_predicate`` holds, or ``max_steps``.

        The returned :class:`RunResult` also reports the first step/round at
        which the protocol's legitimacy predicate became true and stayed true
        for the rest of the observed execution.
        """
        first_legitimate_step: int | None = None
        first_legitimate_round: int | None = None

        def note_legitimacy() -> None:
            nonlocal first_legitimate_step, first_legitimate_round
            if self.legitimate():
                if first_legitimate_step is None:
                    first_legitimate_step = self._step_index
                    first_legitimate_round = self._round_index
            else:
                first_legitimate_step = None
                first_legitimate_round = None

        note_legitimacy()
        converged = bool(stop_predicate and stop_predicate(self))
        terminated = False

        while not converged and self._step_index < max_steps:
            record = self.step()
            if record is None:
                terminated = True
                break
            note_legitimacy()
            if stop_predicate is not None and stop_predicate(self):
                converged = True

        if terminated:
            # A terminated (silent) execution trivially converged if legitimate.
            converged = converged or self.legitimate()

        return RunResult(
            steps=self._step_index,
            moves=self.metrics.moves,
            rounds=self._round_index,
            terminated=terminated,
            converged=converged,
            first_legitimate_step=first_legitimate_step,
            first_legitimate_round=first_legitimate_round,
            configuration=self.configuration.copy(),
            metrics=self.metrics,
        )

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
        self.protocol.validate(network)
        self.network = network
        self._index_actions()
        reinitialized = tuple(reinitialize)
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
        frozen = tuple(nodes)
        for node in frozen:
            if not 0 <= node < self.network.n:
                raise SchedulingError(f"cannot freeze unknown processor {node}")
            self._frozen.add(node)
        self._round_pending = None
        self._invalidate_enabled_view()
        self._notify_mutation("freeze", nodes=tuple(sorted(frozen)))

    def unfreeze(self, nodes: Iterable[int]) -> None:
        """Let crashed ``nodes`` rejoin the computation."""
        thawed = tuple(nodes)
        self._frozen.difference_update(thawed)
        self._round_pending = None
        self._invalidate_enabled_view()
        self._notify_mutation("unfreeze", nodes=tuple(sorted(thawed)))

    def replace_node(self, node: int, values: Mapping[str, object]) -> None:
        """Overwrite one processor's whole local state (crash-rejoin events).

        Delegates to
        :meth:`~repro.runtime.configuration.Configuration.replace_node` -- the
        write is journaled, so the incremental enabled-set folds it in like
        any other change -- and notifies observers, which a
        direct ``scheduler.configuration.replace_node`` call would bypass.
        """
        self.configuration.replace_node(node, values)
        self._notify_mutation(
            "replace_node", node=node, state=self.configuration.state_of(node)
        )

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
    "first_enabled_action",
]
