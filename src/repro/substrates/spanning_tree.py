"""Self-stabilizing spanning-tree construction (substrate for STNO).

STNO (Chapter 4) assumes "an underlying protocol [that] maintains a spanning
tree of the rooted network", classifying processors as root, internal or leaf
nodes and exposing, at every processor, its parent ``A_p`` and its children
``D_p``.  The thesis points at the classic constructions ([1, 2, 8, 12]); this
module provides two of them:

* :class:`BFSSpanningTree` -- breadth-first tree by distance relaxation
  (Dolev-Israeli-Moran / Chen-Yu-Huang style): every non-root processor keeps
  ``dist = 1 + min(dist of neighbors)`` and points its parent at the first
  neighbor (port order) realizing the minimum; the root pins ``dist = 0``.
  Silent, stabilizes in O(diameter) rounds under any weakly fair daemon, uses
  O(log N + log Delta) bits per processor.
* :class:`DFSSpanningTree` -- the depth-first tree induced by the
  deterministic token circulation of
  :mod:`~repro.substrates.token_circulation`: every time a processor is
  forwarded the token it records the sender as its tree parent.  After the
  token layer stabilizes the recorded tree is exactly the DFS tree of the
  deterministic traversal, which is what the conclusion of the thesis uses to
  argue that STNO run over a DFS tree names processors like DFTNO does
  (experiment EXP-A2).

Both expose the common :class:`SpanningTreeProtocol` interface (the name of
the parent-pointer variable plus helpers to extract parents/children), which
is all STNO needs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.graphs.properties import bfs_distances
from repro.runtime.actions import Action, Reads, Rule, Witness, all_of
from repro.runtime.composition import HookedComposition, HookingLayer
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import PerNetwork, Protocol
from repro.runtime.variables import VariableSpec, int_variable, pointer_variable
from repro.substrates import token_circulation as tc
from repro.substrates.token_circulation import DepthFirstTokenCirculation, dfs_tree_parents

# Variable names.
VAR_BFS_DIST = "bt_dist"
VAR_BFS_PARENT = "bt_par"
VAR_DFS_PARENT = "dfst_par"

_BFS_ROOT_READS = Reads(own=frozenset({VAR_BFS_DIST, VAR_BFS_PARENT}))
_DFS_READS = Reads(own=frozenset({VAR_DFS_PARENT}))
_BFS_RELAX_READS = Reads(
    own=frozenset({VAR_BFS_DIST, VAR_BFS_PARENT}), neighbor=frozenset({VAR_BFS_DIST})
)


class SpanningTreeProtocol(Protocol):
    """Common interface of spanning-tree substrates.

    Attribute :attr:`parent_variable` names the locally shared variable that
    holds each processor's tree parent (``None`` at the root); everything STNO
    needs (children sets ``D_p``, the whole parent map, the tree height) is
    derived from it.
    """

    #: Name of the parent-pointer variable maintained by the protocol.
    parent_variable: str = VAR_BFS_PARENT

    # -- view-level helpers (used inside guards/statements) -------------
    def parent(self, view: ProcessorView) -> int | None:
        """The processor's current tree parent ``A_p`` (``None`` at the root)."""
        return view.read(self.parent_variable)

    def children(self, view: ProcessorView) -> tuple[int, ...]:
        """The processor's current tree children ``D_p`` in port order."""
        try_read_neighbor, parent, node = view.try_read_neighbor, self.parent_variable, view.node
        return tuple([q for q in view.neighbors if try_read_neighbor(q, parent) == node])

    # -- configuration-level helpers (used by legitimacy checks/reports) -
    def parents(self, network: RootedNetwork, configuration: Configuration) -> dict[int, int | None]:
        """The full parent map recorded in ``configuration``."""
        return {
            node: configuration.get(node, self.parent_variable) for node in network.nodes()
        }

    def children_map(
        self, network: RootedNetwork, configuration: Configuration
    ) -> dict[int, tuple[int, ...]]:
        """Children (port order) of every processor as recorded in ``configuration``."""
        parents = self.parents(network, configuration)
        result: dict[int, tuple[int, ...]] = {}
        for node in network.nodes():
            result[node] = tuple(
                q for q in network.neighbors(node) if parents.get(q) == node
            )
        return result

    def is_spanning_tree(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Whether the recorded parent pointers form a spanning tree rooted at ``r``."""
        parents = self.parents(network, configuration)
        if parents.get(network.root) is not None:
            return False
        reached = 0
        for node in network.nodes():
            seen: set[int] = set()
            current: int | None = node
            while current is not None and current != network.root:
                if current in seen:
                    return False
                seen.add(current)
                parent = parents.get(current)
                if parent is None or parent not in network.neighbor_set(current):
                    return False
                current = parent
            reached += 1
        return reached == network.n


def tree_parents_from_configuration(
    protocol: SpanningTreeProtocol, network: RootedNetwork, configuration: Configuration
) -> dict[int, int | None]:
    """Convenience alias for ``protocol.parents(network, configuration)``."""
    return protocol.parents(network, configuration)


class BFSSpanningTree(SpanningTreeProtocol):
    """Breadth-first spanning tree by self-stabilizing distance relaxation."""

    name = "bfstree"
    parent_variable = VAR_BFS_PARENT

    ACTION_ROOT = "ST-Root"
    ACTION_RELAX = "ST-Relax"

    def __init__(self) -> None:
        self._variables = PerNetwork(self._schema)
        truth = PerNetwork(bfs_distances)

        def off_tree(view: ProcessorView) -> bool:
            """The distance is not the true one, or the parent not one hop closer.

            The reference distances come from the network, not from neighbors.
            """
            node, network = view.node, view.network
            distances = truth(network)
            if view.read(VAR_BFS_DIST) != distances[node]:
                return True
            parent = view.read(VAR_BFS_PARENT)
            if node == network.root:
                return parent is not None
            # ``None`` is never a neighbor.
            return parent not in view.neighbor_set or distances[parent] != distances[node] - 1

        self._rules = (
            Rule("ST-OffTree", all_of((off_tree, _BFS_ROOT_READS)), layer=self.name),
        )
        # Guards read the network through the view: one program for the
        # root, one for everyone else, of static methods (no cycle through
        # the instance).
        self._programs = (
            (
                Action(
                    self.ACTION_RELAX, Witness(self._relax_target), self._relax,
                    layer=self.name, reads=_BFS_RELAX_READS,
                ),
            ),
            (
                Action(
                    self.ACTION_ROOT, self._root_guard, self._root_set,
                    layer=self.name, reads=_BFS_ROOT_READS,
                ),
            ),
        )

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return self._variables(network)

    @staticmethod
    def _schema(network: RootedNetwork) -> tuple[VariableSpec, ...]:
        max_dist = max(network.n - 1, 0)
        return (
            int_variable(
                VAR_BFS_DIST,
                0,
                max_dist,
                initial=lambda net, p: 0,
                description="believed hop distance to the root",
            ),
            pointer_variable(
                VAR_BFS_PARENT,
                allow_none=True,
                description="tree parent A_p (neighbor one hop closer to the root)",
            ),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _desired(view: ProcessorView) -> tuple[int, int | None]:
        """The (distance, parent) pair the relaxation rule prescribes."""
        read_neighbor = view.read_neighbor
        best_dist = best_parent = None
        for q in view.neighbors:
            dist_q = read_neighbor(q, VAR_BFS_DIST)
            if best_dist is None or dist_q < best_dist:
                best_dist, best_parent = dist_q, q
        if best_dist is None:  # isolated root-only network
            return 0, None
        dist, max_dist = best_dist + 1, view.network.n - 1
        return (max_dist if max_dist < dist else dist), best_parent

    @staticmethod
    def _root_guard(view: ProcessorView) -> bool:
        return view.read(VAR_BFS_DIST) != 0 or view.read(VAR_BFS_PARENT) is not None

    @staticmethod
    def _root_set(view: ProcessorView) -> None:
        view.write(VAR_BFS_DIST, 0)
        view.write(VAR_BFS_PARENT, None)

    @staticmethod
    def _relax_target(view: ProcessorView) -> tuple[int, int | None] | None:
        """The relaxation's (distance, parent) pair where it differs from the held one.

        The relax guard's witness: ``_relax`` adopts it without rescanning.
        """
        desired = dist, parent = BFSSpanningTree._desired(view)
        if view.read(VAR_BFS_DIST) != dist or view.read(VAR_BFS_PARENT) != parent:
            return desired
        return None

    @staticmethod
    def _relax(view: ProcessorView) -> None:
        dist, parent = view.witness(BFSSpanningTree._relax_target)
        view.write(VAR_BFS_DIST, dist)
        view.write(VAR_BFS_PARENT, parent)

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._programs[network.is_root(node)]

    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        """True distances everywhere and every parent one hop closer to the root."""
        return self._rules


class _DFSTreeOverlay(HookingLayer):
    """Records the token's traversal parents into a stable tree variable."""

    name = "dfstree-overlay"

    def __init__(self) -> None:
        self._variables = PerNetwork(self._schema)
        reference = PerNetwork(dfs_tree_parents)

        def misrecorded(view: ProcessorView) -> bool:
            """The recorded parent is not the reference DFS tree's."""
            return view.read(VAR_DFS_PARENT) != reference(view.network)[view.node]

        self._rules = (
            Rule("DFST-Misrecorded", all_of((misrecorded, _DFS_READS)), layer=self.name),
        )

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return self._variables(network)

    @staticmethod
    def _schema(network: RootedNetwork) -> tuple[VariableSpec, ...]:
        return (
            pointer_variable(
                VAR_DFS_PARENT,
                allow_none=True,
                description="DFS tree parent recorded at the last token visit",
            ),
        )

    @staticmethod
    def _record_root(view: ProcessorView) -> None:
        view.write(VAR_DFS_PARENT, None)

    @staticmethod
    def _record_parent(view: ProcessorView) -> None:
        view.write(VAR_DFS_PARENT, view.read(tc.VAR_PARENT))

    def hooks(self, network: RootedNetwork, node: int) -> Mapping[str, object]:
        if network.is_root(node):
            return {DepthFirstTokenCirculation.ACTION_ROOT_START: self._record_root}
        return {DepthFirstTokenCirculation.ACTION_FORWARD: self._record_parent}

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return []

    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        """``node`` records its parent in the reference DFS tree."""
        return self._rules


class DFSSpanningTree(HookedComposition, SpanningTreeProtocol):
    """The DFS spanning tree maintained by the token-circulation substrate.

    Composes :class:`~repro.substrates.token_circulation.DepthFirstTokenCirculation`
    with a small overlay that freezes the traversal parents into the variable
    ``dfst_par``.  Unlike the BFS tree this layer is not silent (the token
    keeps circulating), but after stabilization the recorded parents are the
    constant DFS tree of the deterministic traversal, which is exactly the
    kind of tree the conclusion of the thesis discusses.
    """

    name = "dfstree"
    parent_variable = VAR_DFS_PARENT

    def __init__(self) -> None:
        super().__init__(DepthFirstTokenCirculation(), _DFSTreeOverlay(), name=self.name)

    @property
    def token_layer(self) -> DepthFirstTokenCirculation:
        """The underlying token-circulation protocol."""
        return self.base

    def reference_parents(self, network: RootedNetwork) -> dict[int, int | None]:
        """The DFS tree the protocol converges to on ``network``."""
        return dfs_tree_parents(network)


__all__ = [
    "SpanningTreeProtocol",
    "BFSSpanningTree",
    "DFSSpanningTree",
    "dfs_tree_parents",
    "tree_parents_from_configuration",
    "VAR_BFS_DIST",
    "VAR_BFS_PARENT",
    "VAR_DFS_PARENT",
]
