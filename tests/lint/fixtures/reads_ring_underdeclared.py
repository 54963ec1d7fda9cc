"""Fixture ring layer whose guard under-declares a neighbor read.

Like :class:`~repro.substrates.dijkstra_ring.DijkstraTokenRing`, the layer
refuses any network that is not a ring.  The guard of ``RR-Copy`` reads
``rr_x`` at the processor and at its ring predecessor but declares only the
own read.  The default ``repro-lint`` run must flag it as RL008 (and
nothing else): the read probe runs the layer on its ring network.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable

VAR_X = "rr_x"

_OWN_ONLY = Reads(own=frozenset({VAR_X}))


class ReadsRingUnderdeclared(Protocol):
    """Copy the ring predecessor's value; the declaration misses the neighbor read."""

    name = "reads-ring-underdeclared"

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable(VAR_X, 0, 3, initial=0, description="copied value")]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        if network.n < 3 or any(network.degree(q) != 2 for q in network.nodes()):
            raise ProtocolError(f"{self.name} requires a ring")
        predecessor = (node - 1) % network.n

        def copy_guard(view: ProcessorView) -> bool:
            return view.read(VAR_X) != view.read_neighbor(predecessor, VAR_X)

        def copy(view: ProcessorView) -> None:
            view.write(VAR_X, view.read_neighbor(predecessor, VAR_X))

        return [Action("RR-Copy", copy_guard, copy, layer=self.name, reads=_OWN_ONLY)]
