"""Propagation of Information with Feedback (PIF) on a rooted tree.

The related-work chapter lists PIF waves among the classic building blocks
that have been self-stabilized.  We include a compact implementation for two
reasons: it exercises the runtime with a protocol whose rounds-based analysis
is textbook material (a full wave takes Theta(h) rounds, the same quantity
STNO's bound is stated in), and it doubles as the broadcast-with-acknowledgement
baseline in the sense-of-direction message-complexity discussion.

The protocol runs on a *tree* network (or on the tree edges selected by a
spanning-tree substrate, supplied as an explicit parent map).  States:

* ``C`` (clean)     -- idle;
* ``B`` (broadcast) -- the wave is travelling down;
* ``F`` (feedback)  -- the subtree below has acknowledged.

Error states (a child in ``B`` whose parent is ``C``, etc.) collapse back to
``C`` by local checking, so the wave sequence is self-stabilizing.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.graphs.properties import is_tree
from repro.runtime.actions import Action, Reads, Rule, all_of
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import PerNetwork, Protocol
from repro.runtime.variables import VariableSpec, enum_variable

CLEAN = "C"
BROADCAST = "B"
FEEDBACK = "F"

VAR_PHASE = "pif_phase"

_PHASE_READS = Reads(own=frozenset({VAR_PHASE}), neighbor=frozenset({VAR_PHASE}))


class PIFWave(Protocol):
    """Self-stabilizing broadcast-with-feedback waves on a rooted tree.

    Parameters
    ----------
    parents:
        Optional explicit parent map (e.g. extracted from a spanning-tree
        substrate).  When omitted, the network itself must be a tree and the
        parent of a processor is its neighbor on the unique path to the root.
    """

    name = "pif"

    ACTION_ERROR = "PIF-Error"
    ACTION_BROADCAST = "PIF-Broadcast"
    ACTION_FEEDBACK = "PIF-Feedback"
    ACTION_CLEAN = "PIF-Clean"
    ACTION_ROOT_START = "PIF-RootStart"
    ACTION_ROOT_RESET = "PIF-RootReset"

    def __init__(self, parents: Mapping[int, int | None] | None = None) -> None:
        explicit = dict(parents) if parents is not None else None
        # Every node's program and violation rules, built once per network.
        self._programs = PerNetwork(self._build, explicit, self.name)

    # ------------------------------------------------------------------
    @staticmethod
    def _parents(
        network: RootedNetwork, explicit: Mapping[int, int | None] | None
    ) -> dict[int, int | None]:
        if explicit is not None:
            return dict(explicit)
        if not is_tree(network):
            raise ProtocolError(
                "PIFWave needs a tree network or an explicit spanning-tree parent map"
            )
        parents: dict[int, int | None] = {network.root: None}
        stack = [network.root]
        while stack:
            node = stack.pop()
            for neighbor in network.neighbors(node):
                if neighbor not in parents:
                    parents[neighbor] = node
                    stack.append(neighbor)
        return parents

    @staticmethod
    def _build(
        network: RootedNetwork, explicit: Mapping[int, int | None] | None, layer: str
    ) -> dict[int, tuple[tuple[Action, ...], tuple[Rule, ...]]]:
        """Every node's ``(program, violation rules)`` on ``network``."""
        parents = PIFWave._parents(network, explicit)
        return {node: PIFWave._program(network, node, parents, layer) for node in network.nodes()}

    # ------------------------------------------------------------------
    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [
            enum_variable(
                VAR_PHASE,
                (CLEAN, BROADCAST, FEEDBACK),
                initial=CLEAN,
                description="PIF wave phase",
            )
        ]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._programs(network)[node][0]

    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        """Wave consistency: exactly the configurations normal waves visit.

        ``node`` violates it when

        * it is the root and in feedback (the root resets to clean instead),
        * it broadcasts below a *non-broadcasting* parent (broadcasts enter
          a subtree only through its top), or
        * it is not in feedback below a feedback parent (a processor
          acknowledges only after its whole subtree has).

        These are invariants of normal operation -- closed under every
        action, from any daemon's scheduling -- which is what lets recovery
        measurements demand the predicate hold over a whole closure window.
        The scenario-driven corruption hunt caught an earlier phrasing
        being too strict *and* too loose: it flagged the legal top-down
        cleaning phase (feedback below clean) as illegitimate, so confirmed
        re-stabilization could never be observed, while accepting a stale
        broadcast sitting below a feedback processor.
        """
        return self._programs(network)[node][1]

    @staticmethod
    def _program(
        network: RootedNetwork, node: int, parents: dict[int, int | None], layer: str
    ) -> tuple[tuple[Action, ...], tuple[Rule, ...]]:
        children = tuple(q for q in network.neighbors(node) if parents.get(q) == node)
        parent = parents.get(node)

        def phase(view: ProcessorView) -> str:
            return view.read(VAR_PHASE)

        def children_phases(view: ProcessorView) -> list[str]:
            return [view.read_neighbor(child, VAR_PHASE) for child in children]

        if network.is_root(node):

            def start_guard(view: ProcessorView) -> bool:
                return phase(view) == CLEAN and all(p == CLEAN for p in children_phases(view))

            def start(view: ProcessorView) -> None:
                view.write(VAR_PHASE, BROADCAST)

            def reset_guard(view: ProcessorView) -> bool:
                return phase(view) == BROADCAST and all(
                    p == FEEDBACK for p in children_phases(view)
                )

            def reset(view: ProcessorView) -> None:
                view.write(VAR_PHASE, CLEAN)

            def root_error_guard(view: ProcessorView) -> bool:
                return phase(view) == FEEDBACK

            def root_error(view: ProcessorView) -> None:
                view.write(VAR_PHASE, CLEAN)

            return (
                Action(PIFWave.ACTION_ERROR, root_error_guard, root_error, layer=layer, priority=0),
                Action(PIFWave.ACTION_ROOT_RESET, reset_guard, reset, layer=layer, priority=1),
                Action(PIFWave.ACTION_ROOT_START, start_guard, start, layer=layer, priority=2),
            ), (Rule("PIF-RootFeedback", all_of((root_error_guard, _PHASE_READS)), layer=layer),)

        def parent_phase(view: ProcessorView) -> str:
            return view.read_neighbor(parent, VAR_PHASE)

        def error_guard(view: ProcessorView) -> bool:
            # A non-clean processor whose parent is clean is a leftover of a
            # corrupted wave and collapses.
            return phase(view) != CLEAN and parent_phase(view) == CLEAN

        def error(view: ProcessorView) -> None:
            view.write(VAR_PHASE, CLEAN)

        def broadcast_guard(view: ProcessorView) -> bool:
            return phase(view) == CLEAN and parent_phase(view) == BROADCAST

        def broadcast(view: ProcessorView) -> None:
            view.write(VAR_PHASE, BROADCAST)

        def feedback_guard(view: ProcessorView) -> bool:
            return (
                phase(view) == BROADCAST
                and parent_phase(view) == BROADCAST
                and all(p == FEEDBACK for p in children_phases(view))
            )

        def feedback(view: ProcessorView) -> None:
            view.write(VAR_PHASE, FEEDBACK)

        def clean_guard(view: ProcessorView) -> bool:
            return phase(view) == FEEDBACK and parent_phase(view) == CLEAN

        def stray_broadcast(view: ProcessorView) -> bool:
            return phase(view) == BROADCAST and parent_phase(view) != BROADCAST

        def early_feedback(view: ProcessorView) -> bool:
            return parent_phase(view) == FEEDBACK and phase(view) != FEEDBACK

        return (
            Action(PIFWave.ACTION_ERROR, error_guard, error, layer=layer, priority=0),
            Action(PIFWave.ACTION_CLEAN, clean_guard, error, layer=layer, priority=1),
            Action(PIFWave.ACTION_BROADCAST, broadcast_guard, broadcast, layer=layer, priority=2),
            Action(PIFWave.ACTION_FEEDBACK, feedback_guard, feedback, layer=layer, priority=3),
        ), (
            Rule("PIF-StrayBroadcast", all_of((stray_broadcast, _PHASE_READS)), layer=layer),
            Rule("PIF-EarlyFeedback", all_of((early_feedback, _PHASE_READS)), layer=layer),
        )


__all__ = ["PIFWave", "CLEAN", "BROADCAST", "FEEDBACK", "VAR_PHASE"]
