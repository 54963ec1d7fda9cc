"""An independent reference interpreter of the paper's execution model.

:class:`~repro.runtime.scheduler.Scheduler`'s semantics with no part bits, pointer shadow or
read tables, and no step, round, daemon-check or run-loop code shared with it, so a lockstep
run of the two checks that code.  It backs the ``scheduler-fullscan`` engine.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Collection, Iterable, Mapping, Sequence

from repro.errors import SchedulingError
from repro.graphs.network import RootedNetwork
from repro.obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.runtime.metrics import ExecutionMetrics
from repro.runtime.observers import MetricsObserver, Observer, dispatch_safely
from repro.runtime.processor import GuardView, ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import MoveRecord, RunResult, StepRecord


def enabled(network: RootedNetwork, protocol: Protocol, configuration: Configuration,
            frozen: Collection[int] = ()) -> dict[int, Action]:
    """Each non-``frozen`` processor's first action whose guard, called whole, holds."""
    found: dict[int, Action] = {}
    for node in network.nodes():
        if node not in frozen:
            view = GuardView(node, network, configuration)
            for action in protocol.actions(network, node):
                if action.guard(view):
                    found[node] = action
                    break
    return found


def _writes(network: RootedNetwork, configuration: Configuration, actions: Mapping[int, Action],
            selection: Sequence[int]) -> dict[int, dict[str, object]]:
    """Each selected processor's writes, its action run against ``configuration``."""
    writes: dict[int, dict[str, object]] = {}
    for node in selection:
        view = ProcessorView(node, network, configuration)
        writes[node] = view.begin_move()
        actions[node].statement(view)
    return writes


def successors(network: RootedNetwork, protocol: Protocol, configuration: Configuration,
               selection: Collection[int]) -> Configuration:
    """A copy of ``configuration`` after ``selection`` moves, writes applied at step end."""
    actions = enabled(network, protocol, configuration)
    idle = [node for node in selection if node not in actions]
    if idle:
        raise SchedulingError(f"selected processors that are not enabled: {idle}")
    following = configuration.copy()
    following.apply_step(_writes(network, configuration, actions, selection).items())
    return following


class ReferenceScheduler:
    """The reference twin of :class:`~repro.runtime.scheduler.Scheduler`.

    The same constructor, random draws, records, rounds and mutations;
    ``check_guard_locality`` is ignored, and ``instrumentation`` books only
    ``steps_timed`` and ``moves_executed``.
    """

    def __init__(
        self, network: RootedNetwork, protocol: Protocol, daemon: Daemon | None = None,
        configuration: Configuration | None = None, seed: int | None = None,
        rng: random.Random | None = None, observers: Sequence[Observer] = (),
        check_guard_locality: bool | None = None, instrumentation: Instrumentation | None = None,
    ) -> None:
        self.network, self.protocol = network, protocol
        self.daemon = self.initial_daemon = daemon or DistributedDaemon()
        self.rng = rng or random.Random(seed)
        self.instrumentation = instrumentation or NULL_INSTRUMENTATION
        protocol.validate(network)
        self.daemon.reset()
        self.configuration = (
            protocol.random_configuration(network, rng=self.rng)
            if configuration is None else configuration.copy()
        )
        self.metrics = ExecutionMetrics()
        self._observers: list[Observer] = [MetricsObserver(self.metrics), *observers]
        self.steps_executed = self.rounds_completed = 0
        self._round: set[int] | None = None  # enabled since the round began; None between
        self._frozen: set[int] = set()
        dispatch_safely(self._observers, "on_run_start", self, None)

    @property
    def frozen_nodes(self) -> frozenset[int]:
        return frozenset(self._frozen)

    def notify_converged(self, result: object) -> None:
        dispatch_safely(self._observers, "on_converged", self, result)

    def enabled_actions(self) -> dict[int, Action]:
        """The first enabled action of every enabled, non-frozen processor."""
        self.configuration.drain_dirty()
        return enabled(self.network, self.protocol, self.configuration, self._frozen)

    def enabled_nodes(self) -> tuple[int, ...]:
        return tuple(self.enabled_actions())

    def is_enabled(self, node: int) -> bool:
        return node in self.enabled_actions()

    def step(self) -> StepRecord | None:
        """Execute one computation step; ``None`` if no processor is enabled."""
        actions = self.enabled_actions()
        if not actions:
            return None
        if self._round is None:
            self._round = set(actions)
        name = self.daemon.name
        selected = list(self.daemon.select(tuple(actions), self.steps_executed, self.rng))
        if not selected:
            raise SchedulingError(f"daemon {name!r} selected an empty set")
        for problem, nodes in (
            ("that are not enabled", [node for node in selected if node not in actions]),
            ("more than once", sorted(n for n, k in Counter(selected).items() if k > 1)),
        ):
            if nodes:
                raise SchedulingError(f"daemon {name!r} selected processors {problem}: {nodes}")
        writes = _writes(self.network, self.configuration, actions, selected)
        moves = tuple(
            MoveRecord(node, actions[node].name, actions[node].layer, changes)
            for node, changes in zip(writes, self.configuration.apply_step(writes.items()))
        )
        executed = tuple((node, actions[node].name) for node in selected)
        changed = tuple(move.node for move in moves if move.changes)
        record = StepRecord(self.steps_executed, self.rounds_completed, executed, changed, moves)
        self.steps_executed += 1
        # A round ends once each processor enabled at its start has moved or been disabled.
        self._round.difference_update(selected)
        if self._round:
            self._round.intersection_update(self.enabled_actions())
        completed = not self._round
        if completed:
            self.rounds_completed += 1
            self._round = None
        dispatch_safely(self._observers, "on_step", self, record)
        if completed:
            dispatch_safely(self._observers, "on_round", self, self.rounds_completed)
        self.instrumentation.count("steps_timed")
        self.instrumentation.count("moves_executed", len(selected))
        return record

    def legitimate(self, layer: Protocol | None = None) -> bool:
        """Whether ``layer`` (default: the protocol), made of the protocol's layers, holds."""
        leaves = {id(leaf) for leaf in self.protocol.layers()}
        if layer is not None and not leaves.issuperset(map(id, layer.layers())):
            raise ValueError(f"layer {layer.name!r} is not part of the scheduled protocol")
        self.configuration.drain_dirty()
        checked = self.protocol if layer is None else layer
        return checked.legitimate(self.network, self.configuration)

    def legitimacy_distance(self) -> int:
        """Nodes where a violation rule holds, plus 1 if a residue fails."""
        network, configuration = self.network, self.configuration
        violating, residues = set(), True
        for leaf in dict.fromkeys(self.protocol.layers()):
            for node in network.nodes():
                view = GuardView(node, network, configuration)
                if any(rule.guard(view) for rule in leaf.violation_rules(network, node)):
                    violating.add(node)
            residues = residues and leaf.legitimacy_residue(network, configuration)
        return len(violating) + (not residues)

    def run_until_legitimate(self, max_steps: int = 100_000, confirm_steps: int = 0,
                             substrate: Protocol | None = None) -> RunResult:
        """Step to ``confirm_steps + 1`` legitimate checks in a row, silence or ``max_steps``."""
        streak = substrate_streak = None
        held, terminated = 0, False
        while not terminated:
            now = (self.steps_executed, self.rounds_completed)
            if substrate is not None:
                substrate_streak = (substrate_streak or now) if self.legitimate(substrate) else None
            streak = (streak or now) if self.legitimate() else None
            held = held + 1 if streak else 0
            if held > confirm_steps or self.steps_executed >= max_steps:
                break
            terminated = self.step() is None
        return RunResult(
            self.steps_executed, self.metrics.moves, self.rounds_completed, terminated,
            streak is not None, *(streak or (None, None)), self.configuration.copy(),
            self.metrics, *(substrate_streak or (None, None)),
        )

    def _mutated(self, kind: str, **payload: object) -> None:
        dispatch_safely(self._observers, "on_mutation", self, {"kind": kind, **payload})

    def _known(self, nodes: Iterable[int], verb: str) -> tuple[int, ...]:
        nodes = tuple(nodes)
        for node in nodes:
            if node not in self.network.nodes():
                raise SchedulingError(f"cannot {verb} unknown processor {node}")
        return nodes

    def set_configuration(self, configuration: Configuration) -> None:
        self.configuration = configuration.copy()
        self._round = None
        self._mutated("set_configuration", configuration=self.configuration)

    def set_daemon(self, daemon: Daemon) -> None:
        daemon.reset()
        self.daemon = daemon
        self._mutated("set_daemon", daemon=daemon.name)

    def set_network(self, network: RootedNetwork, reinitialize: Iterable[int] = ()) -> None:
        if (network.n, network.root) != (self.network.n, self.network.root):
            raise SchedulingError("a network change cannot alter the processor count or root")
        redrawn = self._known(reinitialize, "reinitialize")
        self.protocol.validate(network)
        self.network = network
        for node in redrawn:
            state = self.protocol.random_state(network, node, self.rng)
            self.configuration.replace_node(node, state)
        self._round = None
        states = {node: self.configuration.state_of(node) for node in redrawn}
        self._mutated("set_network", network=network, reinitialized=states)

    def freeze(self, nodes: Iterable[int]) -> None:
        self._crash("freeze", nodes, self._frozen.update)

    def unfreeze(self, nodes: Iterable[int]) -> None:
        self._crash("unfreeze", nodes, self._frozen.difference_update)

    def _crash(self, kind: str, nodes: Iterable[int], change: Callable[[tuple], None]) -> None:
        nodes = self._known(nodes, kind)
        change(nodes)
        self._round = None
        self._mutated(kind, nodes=tuple(sorted(nodes)))

    def replace_node(self, node: int, values: Mapping[str, object]) -> None:
        self._known((node,), "replace")
        self.configuration.replace_node(node, values)
        self._mutated("replace_node", node=node, state=self.configuration.state_of(node))


__all__ = ["ReferenceScheduler", "enabled", "successors"]
