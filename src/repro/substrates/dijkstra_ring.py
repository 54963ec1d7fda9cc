"""Dijkstra's K-state self-stabilizing token ring.

The introduction of the thesis traces self-stabilization back to Dijkstra's
1974 token-ring mutual-exclusion protocol [11]; this module implements it both
as a validation workload for the runtime (its behaviour is fully understood:
from any configuration it converges to exactly one privilege circulating
forever, provided ``K >= n``) and as a teaching example in the documentation.

The ring is taken from the ``RootedNetwork`` it runs on (which must be a
cycle); processor ``i`` reads the counter of its predecessor in the ring.  The
distinguished root plays Dijkstra's "bottom" machine.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import PerNetwork, Protocol
from repro.runtime.variables import VariableSpec, int_variable

VAR_COUNTER = "dk_x"


def ring_order(network: RootedNetwork) -> list[int]:
    """The processors of a cycle network in ring order, starting at the root.

    Raises
    ------
    ProtocolError
        If the network is not a simple cycle.
    """
    if any(network.degree(node) != 2 for node in network.nodes()) or network.num_edges() != network.n:
        raise ProtocolError("Dijkstra's token ring requires a cycle topology")
    order = [network.root]
    previous = None
    current = network.root
    while len(order) < network.n:
        candidates = [q for q in network.neighbors(current) if q != previous]
        previous, current = current, candidates[0]
        order.append(current)
    return order


class DijkstraTokenRing(Protocol):
    """Dijkstra's first (K-state) self-stabilizing mutual exclusion protocol.

    Parameters
    ----------
    k:
        Number of counter states.  ``None`` chooses ``n + 1`` at run time,
        which satisfies Dijkstra's ``K >= n`` requirement on any ring.
    """

    name = "dijkstra-ring"

    ACTION_ROOT = "DK-Root"
    ACTION_COPY = "DK-Copy"

    def __init__(self, k: int | None = None) -> None:
        self._k = k
        # The ring order and every processor's program, built once per network.
        self._ring = PerNetwork(self._build, k, self.name)

    @staticmethod
    def _states(network: RootedNetwork, k: int | None) -> int:
        return k if k is not None else network.n + 1

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        k = self._states(network, self._k)
        return [
            int_variable(VAR_COUNTER, 0, k - 1, initial=0, description="Dijkstra counter in 0..K-1")
        ]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._ring(network)[1][node]

    @staticmethod
    def _build(
        network: RootedNetwork, k: int | None, layer: str
    ) -> tuple[list[int], dict[int, tuple[Action, ...]]]:
        states = DijkstraTokenRing._states(network, k)
        order = ring_order(network)
        return order, {
            node: DijkstraTokenRing._program(network.is_root(node), order[index - 1], states, layer)
            for index, node in enumerate(order)
        }

    @staticmethod
    def _program(is_root: bool, predecessor: int, k: int, layer: str) -> tuple[Action, ...]:
        if is_root:

            def root_guard(view: ProcessorView) -> bool:
                return view.read(VAR_COUNTER) == view.read_neighbor(predecessor, VAR_COUNTER)

            def root_step(view: ProcessorView) -> None:
                view.write(VAR_COUNTER, (view.read(VAR_COUNTER) + 1) % k)

            return (Action(DijkstraTokenRing.ACTION_ROOT, root_guard, root_step, layer=layer),)

        def copy_guard(view: ProcessorView) -> bool:
            return view.read(VAR_COUNTER) != view.read_neighbor(predecessor, VAR_COUNTER)

        def copy_step(view: ProcessorView) -> None:
            view.write(VAR_COUNTER, view.read_neighbor(predecessor, VAR_COUNTER))

        return (Action(DijkstraTokenRing.ACTION_COPY, copy_guard, copy_step, layer=layer),)

    def privileged(self, network: RootedNetwork, configuration: Configuration) -> list[int]:
        """Processors currently holding a privilege (an enabled guard)."""
        order, _ = self._ring(network)
        privileged = []
        for index, node in enumerate(order):
            predecessor = order[index - 1]
            same = configuration.get(node, VAR_COUNTER) == configuration.get(predecessor, VAR_COUNTER)
            if network.is_root(node):
                if same:
                    privileged.append(node)
            elif not same:
                privileged.append(node)
        return privileged

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Mutual exclusion: exactly one privilege in the ring.

        A global fact, so the layer states no rules and the scheduler
        re-checks this residue after any change.
        """
        return len(self.privileged(network, configuration)) == 1


__all__ = ["DijkstraTokenRing", "ring_order", "VAR_COUNTER"]
