"""Fixture protocol whose pointer-directed reads omit their pointers.

Each processor keeps a pointer ``rp_ptr`` to a neighbor and a value
``rp_x``.  The guard of ``RP-Follow`` reads ``rp_x`` at the neighbor its own
pointer names and declares that as ``via`` the pointer, but leaves the
pointer out of its own reads; the violation rule ``RP-Named`` reads ``rp_x``
at the neighbors whose pointer names the processor and declares that as
``named_by`` the pointer, but leaves the pointer out of its neighbor reads.
The default ``repro-lint`` run must flag both declarations (RL009) and the
pointer reads they omit (RL008), and a scheduler in ``check_guard_locality``
mode must raise RL008 on the guard.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads, Rule, all_of
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable, pointer_variable

VAR_POINTER = "rp_ptr"
VAR_X = "rp_x"

_VIA_WITHOUT_POINTER = Reads(own=frozenset({VAR_X}), via={VAR_POINTER: frozenset({VAR_X})})
_NAMED_BY_WITHOUT_POINTER = Reads(
    own=frozenset({VAR_X}), named_by={VAR_POINTER: frozenset({VAR_X})}
)


def _below_target(view: ProcessorView) -> bool:
    target = view.read(VAR_POINTER)
    if target is None or target not in view.neighbor_set:
        return False
    return view.read(VAR_X) < view.read_neighbor(target, VAR_X)


def _below_a_follower(view: ProcessorView) -> bool:
    own = view.read(VAR_X)
    return any(
        view.read_neighbor(q, VAR_POINTER) == view.node and view.read_neighbor(q, VAR_X) > own
        for q in view.neighbors
    )


class ReadsPointerUndeclared(Protocol):
    """Copy the value the pointer names; declarations miss the pointer reads."""

    name = "reads-pointer-undeclared"

    ACTION_FOLLOW = "RP-Follow"

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [
            pointer_variable(VAR_POINTER, allow_none=True, description="followed neighbor"),
            int_variable(VAR_X, 0, 3, initial=0, description="copied value"),
        ]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        def copy(view: ProcessorView) -> None:
            view.write(VAR_X, view.read_neighbor(view.read(VAR_POINTER), VAR_X))

        return [
            Action(
                self.ACTION_FOLLOW,
                all_of((_below_target, _VIA_WITHOUT_POINTER)),
                copy,
                layer=self.name,
            )
        ]

    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        return (
            Rule(
                "RP-Named", all_of((_below_a_follower, _NAMED_BY_WITHOUT_POINTER)), layer=self.name
            ),
        )
