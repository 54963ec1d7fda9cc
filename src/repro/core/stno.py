"""STNO: network orientation using a spanning tree (Chapter 4).

The protocol runs over any spanning-tree substrate exposing parent pointers
(:class:`~repro.substrates.spanning_tree.SpanningTreeProtocol`) and proceeds
in the two phases of Algorithm 4.1.2:

1. **Weights, bottom-up.**  Every leaf fixes ``Weight = 1``; every internal
   processor and the root fix ``Weight = 1 + sum of the children's weights``,
   so after O(h) rounds the root's weight is the network size.
2. **Names, top-down.**  The root names itself ``0`` and distributes the
   remaining names over its children: each child receives a contiguous
   interval of exactly ``Weight_child`` names, recorded in the parent's
   ``Start`` table.  Each processor adopts the first name of its interval and
   recursively splits the rest among its own children, so after another O(h)
   rounds every processor has a unique name -- the preorder index of the tree
   traversal that visits children in port order.

Once a processor's name agrees with the interval its parent assigned it, it
repairs any incident edge label (tree *and* non-tree edges) that disagrees
with the chordal rule ``pi_p[q] = (eta_p - eta_q) mod N``.

Divergence from the thesis text (recorded in DESIGN.md): the guards printed in
Algorithm 4.1.2 only trigger recomputation when a processor's *own* name or
weight looks wrong, which is not sufficient to recover from a corrupted
``Start`` table (children would happily adopt stale intervals).  We strengthen
the guards so that a processor also recomputes whenever its ``Start`` table
disagrees with what ``Distribute`` would produce from its current name and its
children's weights.  This is the natural reading of the algorithm's intent and
is required for convergence from arbitrary states; it does not change the
space usage or the O(h) round complexity.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.chordal import chordal_edge_label
from repro.core.specification import (
    VAR_EDGE_LABELS,
    VAR_NAME,
    OrientationSpecification,
)
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads, Rule, all_of
from repro.runtime.composition import LayeredProtocol
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import PerNetwork, Protocol
from repro.runtime.variables import VariableSpec, int_variable, map_variable
from repro.substrates.spanning_tree import (
    BFSSpanningTree,
    DFSSpanningTree,
    SpanningTreeProtocol,
)

#: Shared-variable name of the subtree weight ``Weight_p``.
VAR_WEIGHT = "no_weight"
#: Shared-variable name of the per-child interval table ``Start_p``.
VAR_START = "no_start"


class STNO(Protocol):
    """The orientation layer of Algorithm 4.1.2 (runs over a spanning tree).

    Use :func:`build_stno` to obtain the full composed protocol (tree
    substrate + this layer).

    Parameters
    ----------
    tree:
        The spanning-tree substrate whose parent pointers define ``A_p`` and
        ``D_p``.  Defaults to a fresh BFS tree.
    modulus:
        The ``N`` of the chordal arithmetic; ``None`` means the network size.
    """

    name = "stno"

    ACTION_WEIGHT = "STNO-Weight"
    ACTION_ROOT_WEIGHT = "STNO-RootWeight"
    ACTION_NAME = "STNO-Name"
    ACTION_ROOT_NAME = "STNO-RootName"
    ACTION_EDGE_LABEL = "STNO-EdgeLabel"

    def __init__(self, tree: SpanningTreeProtocol | None = None, modulus: int | None = None) -> None:
        self._tree = tree or BFSSpanningTree()
        self._modulus = modulus
        self._specification = OrientationSpecification(modulus=modulus)
        self._rules = (self._specification.violation_rule("STNO-Misoriented", self.name),)
        self._variables = PerNetwork(self._schema, modulus)
        self._programs = self._build_programs(self._tree, modulus)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def tree_layer(self) -> SpanningTreeProtocol:
        """The spanning-tree substrate this layer reads parents/children from."""
        return self._tree

    @property
    def specification(self) -> OrientationSpecification:
        """The SP_NO checker configured with this layer's modulus."""
        return self._specification

    def modulus(self, network: RootedNetwork) -> int:
        """The effective chordal modulus on ``network``."""
        return self._modulus if self._modulus is not None else network.n

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return self._variables(network)

    @staticmethod
    def _schema(network: RootedNetwork, modulus: int | None) -> tuple[VariableSpec, ...]:
        top = (modulus if modulus is not None else network.n) - 1
        return (
            int_variable(
                VAR_WEIGHT,
                1,
                lambda net, p: net.n,
                initial=1,
                description="subtree weight Weight_p",
            ),
            int_variable(VAR_NAME, 0, top, initial=0, description="node label eta_p"),
            map_variable(
                VAR_START,
                0,
                top,
                initial_value=0,
                description="per-child name-interval starts Start_p[q]",
            ),
            map_variable(
                VAR_EDGE_LABELS,
                0,
                top,
                initial_value=0,
                description="chordal edge labels pi_p[q]",
            ),
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._programs[network.is_root(node)]

    def _build_programs(
        self, tree: SpanningTreeProtocol, fixed_modulus: int | None
    ) -> tuple[tuple[Action, ...], tuple[Action, ...]]:
        """The non-root and the root program, built once per instance.

        Guards and statements are plain functions over ``tree`` and
        ``fixed_modulus`` (``None``: the network size), not methods: the
        instance keeps the programs, and a method bound to it would make a
        reference cycle.  The two programs share them and differ only in
        the weight and name actions' labels.  The edge guard is gated on the
        name being valid, as in the paper.
        """
        parent_of, children_of = tree.parent, tree.children
        # What each guard part reads; the tree helpers read the parent
        # pointer, own (``parent_of``) or the neighbors' (``children_of``).
        parent = tree.parent_variable
        weight_reads = Reads(own=frozenset({VAR_WEIGHT}), neighbor=frozenset({VAR_WEIGHT, parent}))
        name_reads = Reads(
            own=frozenset({VAR_NAME, VAR_START, parent}),
            neighbor=frozenset({VAR_START, VAR_WEIGHT, parent}),
        )
        name_valid_reads = Reads(own=frozenset({VAR_NAME, parent}), neighbor=frozenset({VAR_START}))
        label_reads = Reads(
            own=frozenset({VAR_NAME, VAR_EDGE_LABELS}), neighbor=frozenset({VAR_NAME})
        )

        def modulus_of(view: ProcessorView) -> int:
            return fixed_modulus if fixed_modulus is not None else view.network.n

        def child_weight(view: ProcessorView, child: int) -> int:
            weight = view.try_read_neighbor(child, VAR_WEIGHT, default=1)
            if not isinstance(weight, int) or weight < 1:
                return 1
            return min(weight, view.network.n)

        def desired_weight(view: ProcessorView) -> int:
            """``CalcWeight``: one (for itself) plus the children's weights, capped at n."""
            total = 1 + sum(child_weight(view, child) for child in children_of(view))
            return min(total, view.network.n)

        def desired_name(view: ProcessorView) -> int:
            """The name the parent's ``Start`` table assigns to this processor (root: 0)."""
            if view.is_root:
                return 0
            parent = parent_of(view)
            if parent is None or parent not in view.neighbor_set:
                return view.read(VAR_NAME)  # no parent yet: keep the current name
            table = view.try_read_neighbor(parent, VAR_START, default={})
            table = table if isinstance(table, dict) else {}
            assigned = table.get(view.node, 0)
            if not isinstance(assigned, int):
                return 0
            return assigned % modulus_of(view)

        def desired_start(view: ProcessorView, own_name: int) -> dict[int, int]:
            """``Distribute``: contiguous, non-overlapping intervals for the children."""
            modulus = modulus_of(view)
            given = own_name
            table: dict[int, int] = {}
            for child in children_of(view):
                table[child] = (given + 1) % modulus
                given += child_weight(view, child)
            return table

        def desired_labels(view: ProcessorView, own_name: int) -> dict[int, int]:
            modulus = modulus_of(view)
            return {
                neighbor: chordal_edge_label(
                    own_name, view.try_read_neighbor(neighbor, VAR_NAME, default=0), modulus
                )
                for neighbor in view.neighbors
            }

        def start_consistent(view: ProcessorView, own_name: int) -> bool:
            desired = desired_start(view, own_name)
            stored = view.read(VAR_START)
            stored = stored if isinstance(stored, dict) else {}
            return all(stored.get(child) == value for child, value in desired.items())

        def weight_wrong(view: ProcessorView) -> bool:
            return view.read(VAR_WEIGHT) != desired_weight(view)

        def set_weight(view: ProcessorView) -> None:
            view.write(VAR_WEIGHT, desired_weight(view))

        def name_wrong(view: ProcessorView) -> bool:
            desired = desired_name(view)
            if view.read(VAR_NAME) != desired:
                return True
            return not start_consistent(view, desired)

        def set_name(view: ProcessorView) -> None:
            desired = desired_name(view)
            view.write(VAR_NAME, desired)
            view.write(VAR_START, desired_start(view, desired))

        def name_valid(view: ProcessorView) -> bool:
            """The paper labels edges only once the name is valid."""
            return view.read(VAR_NAME) == desired_name(view)

        def labels_wrong(view: ProcessorView) -> bool:
            stored = view.read(VAR_EDGE_LABELS)
            stored = stored if isinstance(stored, dict) else {}
            desired = desired_labels(view, view.read(VAR_NAME))
            return any(stored.get(q) != label for q, label in desired.items())

        def set_labels(view: ProcessorView) -> None:
            view.write(VAR_EDGE_LABELS, desired_labels(view, view.read(VAR_NAME)))

        layer = self.name
        edge_label = Action(
            self.ACTION_EDGE_LABEL,
            all_of((name_valid, name_valid_reads), (labels_wrong, label_reads)),
            set_labels,
            layer=layer, priority=2,
        )
        non_root, root = (
            (
                Action(weight, weight_wrong, set_weight, layer=layer, priority=0, reads=weight_reads),
                Action(name, name_wrong, set_name, layer=layer, priority=1, reads=name_reads),
                edge_label,
            )
            for weight, name in (
                (self.ACTION_WEIGHT, self.ACTION_NAME),
                (self.ACTION_ROOT_WEIGHT, self.ACTION_ROOT_NAME),
            )
        )
        return non_root, root

    # ------------------------------------------------------------------
    # Legitimacy and reference values
    # ------------------------------------------------------------------
    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        """The orientation part of ``L_NO``: SP1's range condition and SP2 at ``node``."""
        return self._rules

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """SP1's name uniqueness."""
        return self._specification.names_unique(network, configuration)

    def expected_names(
        self, network: RootedNetwork, parents: dict[int, int | None] | None = None
    ) -> dict[int, int]:
        """The names STNO converges to on a given spanning tree.

        These are the preorder indices of the tree traversal that visits
        children in port order, starting with ``0`` at the root.  ``parents``
        defaults to the reference tree of the configured substrate when it is
        deterministic (BFS or DFS trees of this library).
        """
        if parents is None:
            if isinstance(self._tree, DFSSpanningTree):
                parents = self._tree.reference_parents(network)
            elif isinstance(self._tree, BFSSpanningTree):
                parents = _bfs_reference_parents(network)
            else:
                raise ValueError(
                    "expected_names needs an explicit parent map for this tree substrate"
                )
        children: dict[int, list[int]] = {node: [] for node in network.nodes()}
        for node in network.nodes():
            parent = parents.get(node)
            if parent is not None:
                children[parent].append(node)
        for node in children:
            order = {q: network.port(node, q) for q in children[node]}
            children[node].sort(key=lambda q: order[q])

        names: dict[int, int] = {}
        counter = 0
        stack = [network.root]
        while stack:
            node = stack.pop()
            names[node] = counter
            counter += 1
            stack.extend(reversed(children[node]))
        return names

    def subtree_weights(
        self, network: RootedNetwork, parents: dict[int, int | None]
    ) -> dict[int, int]:
        """Reference subtree sizes for a given spanning tree (used by tests/figures)."""
        children: dict[int, list[int]] = {node: [] for node in network.nodes()}
        for node in network.nodes():
            parent = parents.get(node)
            if parent is not None:
                children[parent].append(node)
        weights: dict[int, int] = {}

        def weight_of(node: int) -> int:
            if node not in weights:
                weights[node] = 1 + sum(weight_of(child) for child in children[node])
            return weights[node]

        for node in network.nodes():
            weight_of(node)
        return weights


def _bfs_reference_parents(network: RootedNetwork) -> dict[int, int | None]:
    """The parent map the BFS substrate converges to (first minimal neighbor in port order)."""
    from repro.graphs.properties import bfs_distances

    distances = bfs_distances(network)
    parents: dict[int, int | None] = {network.root: None}
    for node in network.nodes():
        if node == network.root:
            continue
        parents[node] = next(
            q for q in network.neighbors(node) if distances[q] == distances[node] - 1
        )
    return parents


def build_stno(
    tree: str | SpanningTreeProtocol = "bfs", modulus: int | None = None
) -> LayeredProtocol:
    """The full STNO protocol: a spanning-tree substrate with the orientation layer on top.

    ``tree`` is either a ready :class:`SpanningTreeProtocol` instance or one of
    the strings ``"bfs"`` (distance-relaxation BFS tree) and ``"dfs"`` (the DFS
    tree maintained by the token circulation -- the variant the conclusion of
    the thesis compares against DFTNO).
    """
    if isinstance(tree, str):
        if tree == "bfs":
            tree = BFSSpanningTree()
        elif tree == "dfs":
            tree = DFSSpanningTree()
        else:
            raise ValueError(f"unknown tree substrate {tree!r}; use 'bfs' or 'dfs'")
    overlay = STNO(tree=tree, modulus=modulus)
    return LayeredProtocol([tree, overlay], name=f"stno[{tree.name}]")


__all__ = ["STNO", "build_stno", "VAR_WEIGHT", "VAR_START"]
