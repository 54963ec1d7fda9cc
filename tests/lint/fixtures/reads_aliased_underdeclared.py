"""Fixture protocol that reads its neighbors through local aliases of the view.

The guard of ``RA-Copy`` binds ``read_neighbor = view.read_neighbor`` and
reads every neighbor's ``ra_x`` through it; the violation rule ``RA-Below``
binds the same method by tuple unpacking, as
``OrientationSpecification.misoriented`` does.  Both declare only the own
read, so the default ``repro-lint`` run must flag each as RL008 (and nothing
else).
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads, Rule, all_of
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable

VAR_X = "ra_x"

_OWN_ONLY = Reads(own=frozenset({VAR_X}))


def _below_a_neighbor(view: ProcessorView) -> bool:
    own, read_neighbor = view.read(VAR_X), view.read_neighbor
    return any(read_neighbor(q, VAR_X) > own for q in view.neighbors)


class ReadsAliasedUnderdeclared(Protocol):
    """Copy the largest neighbor value; declarations miss the aliased neighbor reads."""

    name = "reads-aliased-underdeclared"

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable(VAR_X, 0, 3, initial=0, description="copied value")]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        def copy_guard(view: ProcessorView) -> bool:
            read_neighbor = view.read_neighbor
            return view.read(VAR_X) < max(read_neighbor(q, VAR_X) for q in view.neighbors)

        def copy(view: ProcessorView) -> None:
            view.write(VAR_X, max(view.read_neighbor(q, VAR_X) for q in view.neighbors))

        return [Action("RA-Copy", copy_guard, copy, layer=self.name, reads=_OWN_ONLY)]

    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        return (Rule("RA-Below", all_of((_below_a_neighbor, _OWN_ONLY)), layer=self.name),)
