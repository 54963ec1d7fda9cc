"""Self-stabilizing depth-first token circulation on an arbitrary rooted network.

DFTNO (Chapter 3) assumes an underlying protocol in the style of Datta,
Johnen, Petit and Villain [10]: a single token circulates forever in a
*deterministic* depth-first order, every processor receives it exactly once
per round after stabilization, and the layer above can observe

* ``Forward(p)`` -- the step at which ``p`` receives the token for the first
  time in the current round (from its parent ``A_p``), and
* ``Backtrack(p)`` -- the steps at which the token returns to ``p`` from a
  descendant ``D_p``.

This module implements such a layer from scratch.

Design
------
Each wave (round of token circulation) is a depth-first traversal identified
by a parity bit.  Every processor stores:

* ``tc_st``   -- ``ACTIVE`` while the processor is on the DFS stack (the
  deepest active processor holds the token), ``WAIT`` otherwise;
* ``tc_wave`` -- the parity of the last wave the processor joined.  A
  processor is *unvisited* for a traversal of parity ``w`` exactly when it is
  waiting with ``tc_wave != w``; finishing a wave therefore needs no explicit
  cleaning phase -- the next wave simply uses the opposite parity;
* ``tc_par`` / ``tc_child`` -- the ancestor the token arrived from (``A_p``)
  and the descendant currently delegated to (``D_p``);
* ``tc_lvl``  -- the processor's depth on the current stack, used for local
  error detection.

The root starts a wave by flipping its parity and becoming active; an active
processor delegates the token to its first unvisited neighbor in port order
(the determinism DFTNO relies on) and returns to ``WAIT`` (backtracks) when
none remains.  When the root returns to ``WAIT`` the wave is over and the next
one may start immediately.

Self-stabilization is by local checking: an active non-root processor whose
parent pointer, parent's child pointer, wave parity or level (``lvl =
lvl_parent + 1 <= n - 1``) are inconsistent -- or whose *delegated child* is
active under a different parent (a delegation that was never accepted, the
signature of a corrupted child pointer aiming back into the stack) -- resets
to ``WAIT``.  Spurious active segments therefore erode from their top (a
parent cycle can never have consistent strictly increasing levels, and a
child-pointer cycle always contains a never-accepted delegation), and can
only recruit boundedly many processors before hitting the level bound; once they are gone, every wave
started by the root visits every processor exactly once and the composed
system satisfies the interface the thesis assumes of [10].  The construction
matches the *interface and complexity class* of [10] (O(log N) bits per
processor), not its exact rule set, which the thesis does not reproduce
either; the substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Not, Reads, Rule, all_of
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import PerNetwork, Protocol
from repro.runtime.variables import VariableSpec, enum_variable, int_variable, pointer_variable

# Traversal states.
WAIT = "wait"
ACTIVE = "active"

# Variable names (prefixed to keep composed namespaces disjoint).
VAR_STATE = "tc_st"
VAR_WAVE = "tc_wave"
VAR_PARENT = "tc_par"
VAR_CHILD = "tc_child"
VAR_LEVEL = "tc_lvl"

_ALL = frozenset({VAR_STATE, VAR_WAVE, VAR_PARENT, VAR_CHILD, VAR_LEVEL})

# What each guard part reads (``all_of`` parts); ``check_guard_locality``
# and ``repro-lint``'s read probe hold each part's reads to them (RL008).
_NORMALIZE_READS = Reads(own=frozenset({VAR_PARENT, VAR_LEVEL}))
#: ``_level_out_of_range``.
_LEVEL_READS = Reads(own=frozenset({VAR_LEVEL}))
#: The own-state gate every guard but the root's normalization opens with.
_STATE_READS = Reads(own=frozenset({VAR_STATE}))
#: ``_valid_delegation``: the delegated child's state and parent pointer.
_DELEGATION_READS = Reads(
    own=frozenset({VAR_CHILD}), via={VAR_CHILD: frozenset({VAR_STATE, VAR_PARENT})}
)
#: ``_child_settled``: the delegated child visited and waiting.
_SETTLED_READS = Reads(
    own=frozenset({VAR_CHILD, VAR_WAVE}), via={VAR_CHILD: frozenset({VAR_STATE, VAR_WAVE})}
)
#: ``_first_unvisited``.
_UNVISITED_READS = Reads(own=frozenset({VAR_WAVE}), neighbor=frozenset({VAR_STATE, VAR_WAVE}))
#: ``_forwarding_parent``: every neighbor's child pointer, and the rest only
#: at a neighbor whose child pointer names the processor.
_FORWARDING_READS = Reads(
    own=frozenset({VAR_WAVE}),
    neighbor=frozenset({VAR_CHILD}),
    named_by={VAR_CHILD: frozenset({VAR_STATE, VAR_WAVE, VAR_LEVEL})},
)
#: ``_valid_active``: the whole stack consistency check, at the parent and
#: (through ``_valid_delegation``) at the delegated child.
_STACKED_READS = Reads(
    own=_ALL - {VAR_STATE},
    via={
        VAR_PARENT: frozenset({VAR_STATE, VAR_CHILD, VAR_WAVE, VAR_LEVEL}),
        VAR_CHILD: frozenset({VAR_STATE, VAR_PARENT}),
    },
)

#: What :meth:`DepthFirstTokenCirculation.holds_token` reads, for guards of
#: other layers that call it.
HOLDS_TOKEN_READS = Reads(
    own=frozenset({VAR_STATE, VAR_CHILD}), via={VAR_CHILD: frozenset({VAR_STATE})}
)


def dfs_tree_parents(network: RootedNetwork) -> dict[int, int | None]:
    """DFS-tree parents of the deterministic traversal the token follows.

    Each processor's parent (``None`` for the root), keyed in the order the
    token first reaches them (:func:`dfs_preorder`; root first, port order).
    """
    root = network.root
    parents: dict[int, int | None] = {root: None}
    # Explicit stack mirroring the token's behaviour: the holder repeatedly
    # delegates to its first *currently* unvisited neighbor in port order and
    # backtracks when none remains.
    stack: list[int] = [root]
    while stack:
        node = stack[-1]
        next_child = None
        for neighbor in network.neighbors(node):
            if neighbor not in parents:
                next_child = neighbor
                break
        if next_child is None:
            stack.pop()
        else:
            parents[next_child] = node
            stack.append(next_child)
    return parents


def dfs_preorder(network: RootedNetwork) -> list[int]:
    """The deterministic DFS preorder the token follows (root first, port order).

    This is the reference order used by correctness checks and by the
    DFTNO <-> STNO equivalence experiment: after stabilization, the token
    visits processors exactly in this order every round, and DFTNO names the
    ``i``-th processor of this list ``i``.
    """
    return list(dfs_tree_parents(network))


class DepthFirstTokenCirculation(Protocol):
    """Deterministic, self-stabilizing DFS token circulation (see module docstring).

    Action labels exposed for composition hooks (used by DFTNO):

    * :attr:`ACTION_ROOT_START` -- the root creates the token (the root's
      ``Forward``);
    * :attr:`ACTION_FORWARD` -- a non-root processor receives the token for
      the first time in the wave (``Forward(p)``);
    * :attr:`ACTION_DELEGATE` / :attr:`ACTION_ROOT_DELEGATE` -- the holder
      passes the token to its next unvisited neighbor; when the previous
      delegation just completed this is the moment the token *backtracked* to
      the processor (``Backtrack(p)``);
    * :attr:`ACTION_FINISH` / :attr:`ACTION_ROOT_FINISH` -- no unvisited
      neighbor remains; the processor backtracks the token to its parent (the
      root instead ends the wave).
    """

    name = "dftc"

    ACTION_ROOT_NORMALIZE = "TC-RootNormalize"
    ACTION_ROOT_START = "TC-RootStart"
    ACTION_ROOT_DELEGATE = "TC-RootDelegate"
    ACTION_ROOT_FINISH = "TC-RootFinish"
    ACTION_ROOT_ERROR = "TC-RootError"
    ACTION_ERROR = "TC-Error"
    ACTION_FORWARD = "TC-Forward"
    ACTION_DELEGATE = "TC-Delegate"
    ACTION_FINISH = "TC-Finish"

    #: Action labels that correspond to the paper's ``Forward(p)`` predicate.
    FORWARD_ACTIONS = (ACTION_ROOT_START, ACTION_FORWARD)
    #: Action labels after which the token has just returned from a descendant.
    BACKTRACK_ACTIONS = (
        ACTION_ROOT_DELEGATE,
        ACTION_ROOT_FINISH,
        ACTION_DELEGATE,
        ACTION_FINISH,
    )

    def __init__(self) -> None:
        # Guards read the network through the view, so all non-root
        # processors share one program and the root another, built once.
        # The programs hold plain functions only: a bound method would make
        # a reference cycle through the instance, which only a full garbage
        # collection frees.
        self._programs = (tuple(self._non_root_actions()), tuple(self._root_actions()))
        self._rules = (self._non_root_rules(), self._root_rules())
        self._variables = PerNetwork(self._schema)

    # ------------------------------------------------------------------
    # Variable declarations
    # ------------------------------------------------------------------
    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return self._variables(network)

    @staticmethod
    def _schema(network: RootedNetwork) -> tuple[VariableSpec, ...]:
        max_level = max(network.n - 1, 0)
        return (
            enum_variable(
                VAR_STATE,
                (WAIT, ACTIVE),
                initial=WAIT,
                description="ACTIVE while on the DFS stack of the current wave",
            ),
            enum_variable(
                VAR_WAVE,
                (0, 1),
                initial=0,
                description="parity of the last wave this processor joined",
            ),
            pointer_variable(
                VAR_PARENT,
                allow_none=True,
                description="ancestor A_p: the neighbor the token arrived from",
            ),
            pointer_variable(
                VAR_CHILD,
                allow_none=True,
                description="descendant D_p: the neighbor currently delegated to",
            ),
            int_variable(
                VAR_LEVEL,
                0,
                max_level,
                initial=0,
                description="depth on the current DFS stack (error detection)",
            ),
        )

    # ------------------------------------------------------------------
    # Local predicates
    # ------------------------------------------------------------------
    @staticmethod
    def _unnormalized(view: ProcessorView) -> bool:
        """The root carries a parent pointer or a nonzero level."""
        return view.read(VAR_PARENT) is not None or view.read(VAR_LEVEL) != 0

    @staticmethod
    def _level_out_of_range(view: ProcessorView) -> bool:
        return view.read(VAR_LEVEL) > view.network.n - 1

    @staticmethod
    def _active(view: ProcessorView) -> bool:
        """The own-state gate of the error, delegate and finish guards."""
        return view.read(VAR_STATE) == ACTIVE

    @staticmethod
    def _waiting(view: ProcessorView) -> bool:
        """The own-state gate of the root's start and of the forward guard."""
        return view.read(VAR_STATE) == WAIT

    @staticmethod
    def _first_unvisited(view: ProcessorView) -> int | None:
        """The first neighbor (port order) not yet visited by this processor's wave."""
        wave, read_neighbor = view.read(VAR_WAVE), view.read_neighbor
        for q in view.neighbors:
            if read_neighbor(q, VAR_STATE) == WAIT and read_neighbor(q, VAR_WAVE) != wave:
                return q
        return None

    @staticmethod
    def _child_settled(view: ProcessorView) -> bool:
        """The current delegation, if any, has completed (child visited and waiting)."""
        child = view.read(VAR_CHILD)
        if child is None:
            return True
        if child not in view.neighbor_set:
            return True
        return (
            view.read_neighbor(child, VAR_STATE) == WAIT
            and view.read_neighbor(child, VAR_WAVE) == view.read(VAR_WAVE)
        )

    @staticmethod
    def _valid_active(view: ProcessorView) -> bool:
        """Consistency of an ACTIVE non-root processor with its parent and child."""
        parent = view.read(VAR_PARENT)
        if parent is None or parent not in view.neighbor_set:
            return False
        level = view.read(VAR_LEVEL)
        if level > view.network.n - 1:
            return False
        if view.read_neighbor(parent, VAR_STATE) != ACTIVE:
            return False
        if view.read_neighbor(parent, VAR_CHILD) != view.node:
            return False
        if view.read_neighbor(parent, VAR_WAVE) != view.read(VAR_WAVE):
            return False
        if level != view.read_neighbor(parent, VAR_LEVEL) + 1:
            return False
        return DepthFirstTokenCirculation._valid_delegation(view)

    @staticmethod
    def _has_unvisited(view: ProcessorView) -> bool:
        return DepthFirstTokenCirculation._first_unvisited(view) is not None

    @staticmethod
    def _has_forwarding_parent(view: ProcessorView) -> bool:
        return DepthFirstTokenCirculation._forwarding_parent(view) is not None

    @staticmethod
    def _valid_delegation(view: ProcessorView) -> bool:
        """The current delegation, if accepted, was accepted *from us*.

        A processor only ever delegates to an unvisited (waiting) neighbor,
        and a neighbor that accepts becomes active with its parent pointer set
        to the delegator.  A child that is active under a *different* parent
        can therefore never settle for us -- it is the local signature of a
        corrupted child pointer aiming back into the active stack (e.g. a
        child/parent 2-cycle), which would otherwise deadlock the wave.
        """
        child = view.read(VAR_CHILD)
        if child is None or child not in view.neighbor_set:
            return True
        if view.read_neighbor(child, VAR_STATE) != ACTIVE:
            return True
        return view.read_neighbor(child, VAR_PARENT) == view.node

    @staticmethod
    def holds_token(view: ProcessorView) -> bool:
        """Whether the processor currently holds the circulating token.

        A processor holds the token when it is on the DFS stack and is not
        waiting on an active descendant; DFTNO uses the negation of this as
        part of its edge-relabeling guard (the paper's ``~Forward /\\
        ~Backtrack``).
        """
        if view.read(VAR_STATE) != ACTIVE:
            return False
        child = view.read(VAR_CHILD)
        if child is None or child not in view.neighbor_set:
            return True
        return view.read_neighbor(child, VAR_STATE) != ACTIVE

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    @staticmethod
    def _delegate(view: ProcessorView) -> None:
        child = DepthFirstTokenCirculation._first_unvisited(view)
        if child is not None:
            view.write(VAR_CHILD, child)

    @staticmethod
    def _retire(view: ProcessorView) -> None:
        view.write(VAR_STATE, WAIT)
        view.write(VAR_CHILD, None)

    # ------------------------------------------------------------------
    # Programs
    # ------------------------------------------------------------------
    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._programs[network.is_root(node)]

    def _root_actions(self) -> list[Action]:
        """The root's program.

        Each guard but the normalization opens with the own ``tc_st`` gate:
        the parts behind a closed gate are not called until it opens.
        """

        def normalize(view: ProcessorView) -> None:
            view.write(VAR_PARENT, None)
            view.write(VAR_LEVEL, 0)

        def start(view: ProcessorView) -> None:
            view.write(VAR_STATE, ACTIVE)
            view.write(VAR_WAVE, 1 - view.read(VAR_WAVE))
            view.write(VAR_CHILD, None)
            view.write(VAR_PARENT, None)
            view.write(VAR_LEVEL, 0)

        def delegation_error(view: ProcessorView) -> None:
            # The root never abandons its wave; it only forgets the bogus
            # delegation and re-delegates (or finishes) normally.
            view.write(VAR_CHILD, None)

        layer = self.name
        return [
            Action(
                self.ACTION_ROOT_NORMALIZE, self._unnormalized, normalize,
                layer=layer, priority=0, reads=_NORMALIZE_READS,
            ),
            Action(
                self.ACTION_ROOT_ERROR,
                all_of(
                    (self._active, _STATE_READS),
                    (Not(self._valid_delegation), _DELEGATION_READS),
                ),
                delegation_error,
                layer=layer, priority=1,
            ),
            Action(
                self.ACTION_ROOT_DELEGATE,
                all_of(
                    (self._active, _STATE_READS),
                    (self._child_settled, _SETTLED_READS),
                    (self._has_unvisited, _UNVISITED_READS),
                ),
                self._delegate,
                layer=layer, priority=2,
            ),
            Action(
                self.ACTION_ROOT_FINISH,
                all_of(
                    (self._active, _STATE_READS),
                    (self._child_settled, _SETTLED_READS),
                    (Not(self._has_unvisited), _UNVISITED_READS),
                ),
                self._retire,
                layer=layer, priority=3,
            ),
            Action(
                self.ACTION_ROOT_START, self._waiting, start,
                layer=layer, priority=4, reads=_STATE_READS,
            ),
        ]

    def _non_root_actions(self) -> list[Action]:
        """A non-root processor's program.

        Every guard opens with the own ``tc_st`` gate, so a token move next to
        a waiting processor re-calls only its forward guard's second part.
        Delegate and finish test the cheap ``_child_settled`` before the
        stack check: while the token is delegated below, that part is false.
        The error guard (and the ``TC-Unstacked`` rule) negate the stack check
        with :class:`~repro.runtime.actions.Not` and finish negates
        ``_has_unvisited``, so each fact is one part the scheduler calls once
        for every guard and rule that tests it.
        """

        def forward(view: ProcessorView) -> None:
            parent = DepthFirstTokenCirculation._forwarding_parent(view)
            if parent is None:  # pragma: no cover - guarded by the forward guard
                return
            view.write(VAR_STATE, ACTIVE)
            view.write(VAR_WAVE, view.read_neighbor(parent, VAR_WAVE))
            view.write(VAR_PARENT, parent)
            view.write(VAR_CHILD, None)
            view.write(VAR_LEVEL, view.read_neighbor(parent, VAR_LEVEL) + 1)

        layer = self.name
        return [
            Action(
                self.ACTION_ERROR,
                all_of((self._active, _STATE_READS), (Not(self._valid_active), _STACKED_READS)),
                self._retire,
                layer=layer, priority=0,
            ),
            Action(
                self.ACTION_FORWARD,
                all_of(
                    (self._waiting, _STATE_READS),
                    (self._has_forwarding_parent, _FORWARDING_READS),
                ),
                forward,
                layer=layer, priority=1,
            ),
            Action(
                self.ACTION_DELEGATE,
                all_of(
                    (self._active, _STATE_READS),
                    (self._child_settled, _SETTLED_READS),
                    (self._valid_active, _STACKED_READS),
                    (self._has_unvisited, _UNVISITED_READS),
                ),
                self._delegate,
                layer=layer, priority=2,
            ),
            Action(
                self.ACTION_FINISH,
                all_of(
                    (self._active, _STATE_READS),
                    (self._child_settled, _SETTLED_READS),
                    (self._valid_active, _STACKED_READS),
                    (Not(self._has_unvisited), _UNVISITED_READS),
                ),
                self._retire,
                layer=layer, priority=3,
            ),
        ]

    @staticmethod
    def _forwarding_parent(view: ProcessorView) -> int | None:
        """The first neighbor (port order) currently delegating the token to us."""
        max_level = view.network.n - 1
        node, own_wave, read_neighbor = view.node, view.read(VAR_WAVE), view.read_neighbor
        for q in view.neighbors:
            # The child pointer first: the rest is read only where it names us.
            if (
                read_neighbor(q, VAR_CHILD) == node
                and read_neighbor(q, VAR_STATE) == ACTIVE
                and read_neighbor(q, VAR_WAVE) != own_wave
                and read_neighbor(q, VAR_LEVEL) + 1 <= max_level
            ):
                return q
        return None

    # ------------------------------------------------------------------
    # Legitimacy
    # ------------------------------------------------------------------
    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        """Structural legitimacy of the token layer (``L_TC`` in the thesis).

        The root carries no parent pointer and level 0, levels are in range,
        every active non-root processor is consistently stacked under an
        active parent of the same wave, and every accepted delegation was
        accepted from its delegator (no child pointer aims back into the
        stack).  The stacking rules are the guards of ``TC-Error`` and
        ``TC-RootError``.  They leave no global residue: levels rise by
        exactly one along the parent links of active processors and each
        parent's single child pointer points back, so the active processors
        form one path from an active root, whose last processor is the only
        token holder.
        """
        return self._rules[network.is_root(node)]

    def _root_rules(self) -> tuple[Rule, ...]:
        layer = self.name
        return (
            Rule(
                "TC-RootUnnormalized",
                all_of((self._unnormalized, _NORMALIZE_READS)),
                layer=layer,
            ),
            Rule(
                "TC-RootBadDelegation",
                all_of(
                    (self._active, _STATE_READS),
                    (Not(self._valid_delegation), _DELEGATION_READS),
                ),
                layer=layer,
            ),
        )

    def _non_root_rules(self) -> tuple[Rule, ...]:
        layer = self.name
        return (
            Rule(
                "TC-LevelRange",
                all_of((self._level_out_of_range, _LEVEL_READS)),
                layer=layer,
            ),
            Rule(
                "TC-Unstacked",
                all_of((self._active, _STATE_READS), (Not(self._valid_active), _STACKED_READS)),
                layer=layer,
            ),
        )

    # ------------------------------------------------------------------
    # Introspection helpers used by experiments and by DFTNO
    # ------------------------------------------------------------------
    @staticmethod
    def token_holders(network: RootedNetwork, configuration: Configuration) -> list[int]:
        """Processors currently holding the token (exactly one once legitimate and active)."""
        holders = []
        for node in network.nodes():
            if configuration.get(node, VAR_STATE) != ACTIVE:
                continue
            child = configuration.get(node, VAR_CHILD)
            if child is None or child not in network.neighbor_set(node):
                holders.append(node)
            elif configuration.get(child, VAR_STATE) != ACTIVE:
                holders.append(node)
        return holders

    @staticmethod
    def traversal_parents(
        network: RootedNetwork, configuration: Configuration
    ) -> dict[int, int | None]:
        """Current parent pointers ``A_p`` (the DFS tree being traced out)."""
        return {node: configuration.get(node, VAR_PARENT) for node in network.nodes()}


__all__ = [
    "DepthFirstTokenCirculation",
    "HOLDS_TOKEN_READS",
    "dfs_preorder",
    "dfs_tree_parents",
    "WAIT",
    "ACTIVE",
    "VAR_STATE",
    "VAR_WAVE",
    "VAR_PARENT",
    "VAR_CHILD",
    "VAR_LEVEL",
]
