"""Fixture protocol whose read declarations omit reads it makes.

The guard of ``RU-Copy`` reads ``ru_x`` at the processor and at its
neighbors but declares only the own read; the ``all_of`` guard of
``RU-Raise`` declares the neighbor read in its first part, but its second
part reads it while declaring only the own read; the violation rule
``RU-Below`` reads the neighbors' ``ru_x`` while declaring only the own
one.  The default ``repro-lint`` run must flag all three as RL008 (and
nothing else), and a scheduler in ``check_guard_locality`` mode must raise
RL008 on the first guard and, on a legitimacy query, on the rule.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads, Rule, all_of
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable

VAR_X = "ru_x"

_OWN_ONLY = Reads(own=frozenset({VAR_X}))
_OWN_AND_NEIGHBORS = Reads(own=frozenset({VAR_X}), neighbor=frozenset({VAR_X}))


def _below_a_neighbor(view: ProcessorView) -> bool:
    own = view.read(VAR_X)
    return any(view.read_neighbor(q, VAR_X) > own for q in view.neighbors)


class ReadsUnderdeclared(Protocol):
    """Copy the largest neighbor value; declarations miss the neighbor reads."""

    name = "reads-underdeclared"

    ACTION_COPY = "RU-Copy"
    ACTION_RAISE = "RU-Raise"

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable(VAR_X, 0, 3, initial=0, description="copied value")]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        def copy_guard(view: ProcessorView) -> bool:
            highest = max(view.read_neighbor(q, VAR_X) for q in view.neighbors)
            return view.read(VAR_X) < highest

        def copy(view: ProcessorView) -> None:
            view.write(VAR_X, max(view.read_neighbor(q, VAR_X) for q in view.neighbors))

        def below_top(view: ProcessorView) -> bool:
            return view.read(VAR_X) < 3

        def neighbor_above(view: ProcessorView) -> bool:
            own = view.read(VAR_X)
            return any(view.read_neighbor(q, VAR_X) > own for q in view.neighbors)

        return [
            Action(self.ACTION_COPY, copy_guard, copy, layer=self.name, reads=_OWN_ONLY),
            Action(
                self.ACTION_RAISE,
                all_of((below_top, _OWN_AND_NEIGHBORS), (neighbor_above, _OWN_ONLY)),
                copy,
                layer=self.name,
            ),
        ]

    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        return (Rule("RU-Below", all_of((_below_a_neighbor, _OWN_ONLY)), layer=self.name),)
