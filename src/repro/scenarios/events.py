"""The event vocabulary of fault-injection and dynamic-network scenarios.

Each event is a small frozen dataclass -- a declarative description of one
perturbation -- with an :meth:`~ScenarioEvent.apply` method that performs it
against a running :class:`~repro.runtime.scheduler.Scheduler`:

* :class:`CorruptionBurst` -- replace a fraction of the shared variables at a
  fraction of the processors with arbitrary values (the transient fault of
  Definition 2.1.2 made concrete);
* :class:`CrashRejoin` -- crash the root, a leaf, or a random processor for a
  number of steps (it is unschedulable while down) and let it rejoin with an
  arbitrary local state (its memory did not survive);
* :class:`LinkChange` -- add or remove one link, keeping the network
  connected, and redraw the local state of the two endpoints from the
  protocol's domains on the new topology (their port orders, and possibly
  their variable domains, changed under them);
* :class:`DaemonSwitch` -- swap the scheduling adversary mid-run.

Events resolve their concrete targets (which processors, which link) only at
application time, from the run's random stream -- so one scenario object is
reusable across every network, protocol, daemon and seed of a campaign grid.

Every event mutates the run exclusively through the scheduler's journaled
mutation seams -- :meth:`~repro.runtime.scheduler.Scheduler.set_configuration`
and :meth:`~repro.runtime.scheduler.Scheduler.set_network` invalidate the
maintained enabled-set wholesale, while ``freeze``/``unfreeze`` and
:meth:`~repro.runtime.scheduler.Scheduler.replace_node` writes feed its
change journal -- so the scheduler stays bit-identical to the reference
interpreter under any scenario (the equivalence suite drives every library
scenario through both), and every mutation reaches the
observers' ``on_mutation`` hook, which is what makes a recorded scenario
execution replayable.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.graphs.network import RootedNetwork
from repro.runtime.daemon import make_daemon
from repro.runtime.faults import corrupt_configuration
from repro.runtime.scheduler import Scheduler


@dataclass(frozen=True)
class EventOutcome:
    """What applying an event actually did."""

    kind: str
    description: str
    affected_nodes: tuple[int, ...] = ()
    applied: bool = True
    steps_consumed: int = 0


class ScenarioEvent(ABC):
    """One perturbation a scenario can inflict on a running execution."""

    #: Stable identifier used for grouping in recovery aggregates.
    kind: str = "event"

    @abstractmethod
    def apply(self, scheduler: Scheduler, rng: random.Random) -> EventOutcome:
        """Perform the perturbation against ``scheduler``.

        Implementations may drive the scheduler themselves (a crash keeps the
        system running while the processor is down) and must report any steps
        they consumed in the returned outcome.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class CorruptionBurst(ScenarioEvent):
    """Corrupt ``variable_fraction`` of the variables at ``node_fraction`` of
    the processors with arbitrary values from their domains."""

    node_fraction: float = 1.0
    variable_fraction: float = 1.0
    kind = "corruption"

    def apply(self, scheduler: Scheduler, rng: random.Random) -> EventOutcome:
        before = scheduler.configuration
        corrupted = corrupt_configuration(
            before,
            scheduler.protocol,
            scheduler.network,
            node_fraction=self.node_fraction,
            variable_fraction=self.variable_fraction,
            rng=rng,
        )
        affected = tuple(sorted(before.diff(corrupted)))
        scheduler.set_configuration(corrupted)
        return EventOutcome(
            kind=self.kind,
            description=(
                f"corrupt {self.node_fraction:.0%} of processors "
                f"({self.variable_fraction:.0%} of their variables)"
            ),
            affected_nodes=affected,
        )


@dataclass(frozen=True)
class CrashRejoin(ScenarioEvent):
    """Crash one processor for ``downtime_steps`` steps, then rejoin it.

    ``target`` selects the victim: ``"root"``, ``"leaf"`` (a random
    degree-one processor; falls back to a random non-root one on leafless
    networks) or ``"random"`` (any non-root processor; the root on a
    single-processor network).  While down the processor is frozen -- the
    daemon cannot select it, but its neighbors keep reading its last-written
    variables, exactly like a stalled processor in the shared-variable model.
    On rejoin its local state is redrawn arbitrarily: crashes do not preserve
    memory, which is precisely the transient fault the protocols claim to
    absorb.
    """

    target: str = "random"
    downtime_steps: int = 10
    kind = "crash"

    def __post_init__(self) -> None:
        if self.target not in ("root", "leaf", "random"):
            raise ValueError(
                f"unknown crash target {self.target!r}; choose root, leaf or random"
            )
        if self.downtime_steps < 0:
            raise ValueError("downtime_steps must be >= 0")

    def _pick_victim(self, network: RootedNetwork, rng: random.Random) -> int:
        if self.target == "root":
            return network.root
        non_root = [node for node in network.nodes() if node != network.root]
        if not non_root:
            return network.root
        if self.target == "leaf":
            leaves = [node for node in non_root if network.degree(node) == 1]
            if leaves:
                return rng.choice(leaves)
        return rng.choice(non_root)

    def apply(self, scheduler: Scheduler, rng: random.Random) -> EventOutcome:
        victim = self._pick_victim(scheduler.network, rng)
        scheduler.freeze((victim,))
        consumed = 0
        try:
            for _ in range(self.downtime_steps):
                if scheduler.step() is None:
                    break  # everyone else is disabled; the wait is over early
                consumed += 1
        finally:
            scheduler.unfreeze((victim,))
        scheduler.replace_node(
            victim, scheduler.protocol.random_state(scheduler.network, victim, rng)
        )
        return EventOutcome(
            kind=self.kind,
            description=(
                f"crash {self.target} processor {victim} for {consumed} steps, "
                f"rejoin with arbitrary state"
            ),
            affected_nodes=(victim,),
            steps_consumed=consumed,
        )


@dataclass(frozen=True)
class MultiCrash(ScenarioEvent):
    """Crash a whole *set* of processors simultaneously, then rejoin them all.

    The correlated-failure counterpart of :class:`CrashRejoin`: a rack loss,
    a partition-wide power event.  ``fraction`` of the processors (at least
    one; the root only with ``include_root``) freeze in the same instant,
    stay down together for ``downtime_steps`` steps while the survivors keep
    executing against their last-written variables, and rejoin *in one
    event* with arbitrarily redrawn local states -- the multi-node transient
    fault the protocols claim to absorb.
    """

    fraction: float = 0.3
    downtime_steps: int = 10
    include_root: bool = False
    kind = "multi_crash"

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        if self.downtime_steps < 0:
            raise ValueError("downtime_steps must be >= 0")

    def _pick_victims(self, network: RootedNetwork, rng: random.Random) -> tuple[int, ...]:
        pool = [
            node
            for node in network.nodes()
            if self.include_root or node != network.root
        ]
        if not pool:
            pool = [network.root]
        count = max(1, round(self.fraction * len(pool)))
        count = min(count, len(pool))
        return tuple(sorted(rng.sample(pool, count)))

    def apply(self, scheduler: Scheduler, rng: random.Random) -> EventOutcome:
        victims = self._pick_victims(scheduler.network, rng)
        scheduler.freeze(victims)
        consumed = 0
        try:
            for _ in range(self.downtime_steps):
                if scheduler.step() is None:
                    break  # every survivor is disabled; the wait is over early
                consumed += 1
        finally:
            scheduler.unfreeze(victims)
        for victim in victims:
            scheduler.replace_node(
                victim, scheduler.protocol.random_state(scheduler.network, victim, rng)
            )
        return EventOutcome(
            kind=self.kind,
            description=(
                f"crash {len(victims)} processors {list(victims)} for {consumed} "
                f"steps, rejoin all with arbitrary state"
            ),
            affected_nodes=victims,
            steps_consumed=consumed,
        )


@dataclass(frozen=True)
class LinkChange(ScenarioEvent):
    """Add or remove one link, keeping the network connected.

    ``mode`` is ``"add"`` (a uniformly chosen missing link) or ``"remove"``
    (a uniformly chosen non-bridge link -- removing a bridge would disconnect
    the network, which the model forbids).  When no legal link exists (adding
    on a clique, removing on a tree) the event reports ``applied=False`` and
    leaves the system untouched.

    The two endpoints of the changed link get fresh arbitrary states drawn on
    the *new* topology: their degree and port order changed, so their old
    pointer/label values may no longer even lie in their domains -- the
    re-randomization is the honest worst case the protocols must absorb.
    """

    mode: str = "remove"
    kind = "link_change"

    def __post_init__(self) -> None:
        if self.mode not in ("add", "remove"):
            raise ValueError(f"unknown link change mode {self.mode!r}; choose add or remove")

    @staticmethod
    def _removable_edges(network: RootedNetwork) -> list[tuple[int, int]]:
        """Links whose removal keeps the network connected (non-bridges)."""
        removable = []
        for u, v in sorted(network.edges()):
            # BFS from u avoiding the edge (u, v): if v is still reachable,
            # the edge lies on a cycle and can go.
            seen = {u}
            frontier = [u]
            while frontier and v not in seen:
                node = frontier.pop()
                for neighbor in network.neighbor_set(node):
                    if (node, neighbor) in ((u, v), (v, u)):
                        continue
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            if v in seen:
                removable.append((u, v))
        return removable

    @staticmethod
    def _missing_edges(network: RootedNetwork) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in network.nodes()
            for v in range(u + 1, network.n)
            if not network.has_edge(u, v)
        ]

    def apply(self, scheduler: Scheduler, rng: random.Random) -> EventOutcome:
        network = scheduler.network
        if self.mode == "remove":
            candidates = self._removable_edges(network)
        else:
            candidates = self._missing_edges(network)
        if not candidates:
            return EventOutcome(
                kind=self.kind,
                description=f"no link to {self.mode} on {network.name}",
                applied=False,
            )
        u, v = candidates[rng.randrange(len(candidates))]
        edges = set(network.edges())
        if self.mode == "remove":
            edges.discard((u, v))
        else:
            edges.add((u, v))
        # Port orders are part of the protocols' semantics (guards scan
        # neighbors in port order), so every unaffected processor keeps its
        # order verbatim; only the two endpoints see their port list change --
        # a removed neighbor drops out, an added one takes the last port.
        port_orders: dict[int, tuple[int, ...]] = {}
        for node in network.nodes():
            order = network.neighbors(node)
            if self.mode == "remove":
                if node == u:
                    order = tuple(q for q in order if q != v)
                elif node == v:
                    order = tuple(q for q in order if q != u)
            else:
                if node == u:
                    order = order + (v,)
                elif node == v:
                    order = order + (u,)
            port_orders[node] = order
        changed = RootedNetwork(
            network.n,
            edges,
            root=network.root,
            name=f"{network.name}{'-' if self.mode == 'remove' else '+'}({u},{v})",
            port_orders=port_orders,
        )
        scheduler.set_network(changed, reinitialize=(u, v))
        return EventOutcome(
            kind=self.kind,
            description=f"{self.mode} link ({u}, {v}); endpoints re-randomized",
            affected_nodes=(u, v),
        )


@dataclass(frozen=True)
class DaemonSwitch(ScenarioEvent):
    """Swap the scheduling adversary mid-run (e.g. distributed -> adversarial).

    ``daemon`` names the kind to switch to; ``None`` restores the daemon the
    run was configured with -- so a scenario can visit an adversary and hand
    control back without hard-coding (and thereby contaminating) the daemon
    axis of the grid cell under test.
    """

    daemon: str | None = "adversarial"
    kind = "daemon_switch"

    def apply(self, scheduler: Scheduler, rng: random.Random) -> EventOutcome:
        previous = scheduler.daemon.name
        if self.daemon is None:
            scheduler.set_daemon(scheduler.initial_daemon)
        else:
            scheduler.set_daemon(make_daemon(self.daemon))
        return EventOutcome(
            kind=self.kind,
            description=f"switch daemon {previous} -> {scheduler.daemon.name}",
        )


__all__ = [
    "CorruptionBurst",
    "CrashRejoin",
    "DaemonSwitch",
    "EventOutcome",
    "LinkChange",
    "MultiCrash",
    "ScenarioEvent",
]
