"""DFTNO: network orientation using depth-first token circulation (Chapter 3).

The protocol is layered on the self-stabilizing depth-first token circulation
of :mod:`~repro.substrates.token_circulation` exactly as Algorithm 3.1.1
prescribes:

* ``Forward(p)  --> Nodelabel_p``  -- when a processor receives the token for
  the first time in a round, it names itself.  The root names itself ``0`` and
  resets its counter; every other processor names itself
  ``Max_{A_p} + 1`` (one past the highest name its parent has seen) and
  records that value in its own counter ``Max_p``.
* ``Backtrack(p) --> UpdateMax_p`` -- when the token returns from a descendant
  ``D_p``, the processor adopts the descendant's counter, so the counter
  always carries the number of processors named so far on the current branch.
* ``~Forward(p) /\\ ~Backtrack(p) /\\ InvalidEdgelabel(p) --> Edgelabel_p`` --
  a processor that does not hold the token repairs any incident edge label
  that disagrees with the chordal rule ``pi_p[q] = (eta_p - eta_q) mod N``.
  ``InvalidEdgelabel`` is the specification's SP2 part, also a violation rule.

Because the underlying traversal is deterministic (first unvisited neighbor in
port order), the names converge to the DFS preorder index of each processor
and then never change again; the edge labels follow within one extra round.
The composed protocol therefore stabilizes O(n) steps after the token layer
does, with O(Delta * log N) bits per processor for the orientation variables
-- the bounds of Section 3.2.3.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.specification import (
    SP2_READS,
    VAR_EDGE_LABELS,
    VAR_NAME,
    OrientationSpecification,
)
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Rule, StatementFn, Witness, all_of
from repro.runtime.composition import HookedComposition, HookingLayer
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import PerNetwork
from repro.runtime.variables import VariableSpec, int_variable, map_variable
from repro.substrates import token_circulation as tc
from repro.substrates.token_circulation import DepthFirstTokenCirculation, dfs_preorder

#: Shared-variable name of the running maximum ``Max_p``.
VAR_MAX = "no_max"


class DFTNO(HookingLayer):
    """The orientation layer of Algorithm 3.1.1 (hooks onto the token layer).

    Use :func:`build_dftno` to obtain the full composed protocol (token
    circulation + this layer); the layer alone cannot run because its naming
    macros fire on the token layer's actions.

    Parameters
    ----------
    token:
        The token-circulation substrate instance the layer is composed with
        (needed for the token-holding predicate and the hook action labels).
    modulus:
        The ``N`` of the chordal arithmetic; ``None`` means the network size.
    """

    name = "dftno"

    ACTION_EDGE_LABEL = "NO-EdgeLabel"

    def __init__(self, token: DepthFirstTokenCirculation | None = None, modulus: int | None = None) -> None:
        self._token = token or DepthFirstTokenCirculation()
        self._modulus = modulus
        self._specification = OrientationSpecification(modulus=modulus)
        self._rules = self._specification.violation_rules("NO", self.name)
        self._variables = PerNetwork(self._schema, modulus)
        self._program = (self._edge_label_action(),)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def token_layer(self) -> DepthFirstTokenCirculation:
        """The token-circulation substrate this layer is designed for."""
        return self._token

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
            int_variable(VAR_NAME, 0, top, initial=0, description="node label eta_p"),
            int_variable(VAR_MAX, 0, top, initial=0, description="running maximum Max_p"),
            map_variable(
                VAR_EDGE_LABELS,
                0,
                top,
                initial_value=0,
                description="chordal edge labels pi_p[q]",
            ),
        )

    # ------------------------------------------------------------------
    # Macros (hooked onto the token layer's actions)
    # ------------------------------------------------------------------
    def _node_label_root(self, view: ProcessorView) -> None:
        """``Nodelabel`` at the root: name 0, counter reset (fires on RootStart)."""
        view.write(VAR_NAME, 0)
        view.write(VAR_MAX, 0)

    def _node_label(self, view: ProcessorView) -> None:
        """``Nodelabel`` at a non-root processor (fires on Forward)."""
        parent = view.read(tc.VAR_PARENT)
        if parent is None or parent not in view.neighbor_set:
            return
        modulus = self.modulus(view.network)
        parent_max = view.try_read_neighbor(parent, VAR_MAX, default=0)
        if not isinstance(parent_max, int):
            parent_max = 0
        name = (parent_max + 1) % modulus
        view.write(VAR_NAME, name)
        view.write(VAR_MAX, name)

    def _update_max(self, view: ProcessorView) -> None:
        """``UpdateMax``: adopt the counter of the descendant the token returned from."""
        returned_child = view.read_pre(tc.VAR_CHILD)
        if returned_child is None or returned_child not in view.neighbor_set:
            return
        child_max = view.try_read_neighbor(returned_child, VAR_MAX, default=None)
        if isinstance(child_max, int):
            view.write(VAR_MAX, child_max % self.modulus(view.network))

    def hooks(self, network: RootedNetwork, node: int) -> Mapping[str, StatementFn]:
        if network.is_root(node):
            return {
                DepthFirstTokenCirculation.ACTION_ROOT_START: self._node_label_root,
                DepthFirstTokenCirculation.ACTION_ROOT_DELEGATE: self._update_max,
                DepthFirstTokenCirculation.ACTION_ROOT_FINISH: self._update_max,
            }
        return {
            DepthFirstTokenCirculation.ACTION_FORWARD: self._node_label,
            DepthFirstTokenCirculation.ACTION_DELEGATE: self._update_max,
            DepthFirstTokenCirculation.ACTION_FINISH: self._update_max,
        }

    # ------------------------------------------------------------------
    # Stand-alone action: edge relabeling
    # ------------------------------------------------------------------
    @staticmethod
    def _token_free(view: ProcessorView) -> bool:
        """The paper's ``~Forward /\\ ~Backtrack``: the processor does not hold the token."""
        return not DepthFirstTokenCirculation.holds_token(view)

    def _edge_label_action(self) -> Action:
        """The edge-relabeling action every processor runs, built once.

        The guard gates the O(degree) label scan, the specification's SP2
        part, on not holding the token, so a token move re-calls the scan
        only where it can matter.
        """
        return Action(
            self.ACTION_EDGE_LABEL,
            all_of(
                (self._token_free, tc.HOLDS_TOKEN_READS),
                (Witness(self._specification.sp2_violated), SP2_READS),
            ),
            self._specification.relabel,
            layer=self.name,
            priority=10,
        )

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._program

    # ------------------------------------------------------------------
    # Legitimacy and reference values
    # ------------------------------------------------------------------
    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        """The orientation part of ``L_NO``: SP1's range condition and SP2 at ``node``."""
        return self._rules

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """SP1's name uniqueness."""
        return self._specification.names_unique(network, configuration)

    def expected_names(self, network: RootedNetwork) -> dict[int, int]:
        """The names DFTNO converges to: the deterministic DFS preorder index."""
        return {node: index for index, node in enumerate(dfs_preorder(network))}


def build_dftno(
    modulus: int | None = None, token: DepthFirstTokenCirculation | None = None
) -> HookedComposition:
    """The full DFTNO protocol: token circulation with the orientation layer on top.

    The returned protocol's legitimacy predicate is the thesis's
    ``L_NO = L_TC /\\ SP1 /\\ SP2``.
    """
    token = token or DepthFirstTokenCirculation()
    overlay = DFTNO(token=token, modulus=modulus)
    return HookedComposition(token, overlay, name="dftno")


__all__ = ["DFTNO", "build_dftno", "VAR_MAX"]
