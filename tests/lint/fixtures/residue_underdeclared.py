"""Fixture layer whose legitimacy residue reads a variable no rule part declares.

The violation rule ``RD-Above`` reads only ``rd_x``, so the scheduler keeps
the layer's cached residue until ``rd_x`` changes.  The residue reads
``rd_mark`` as well, through a helper method, so a change to ``rd_mark``
alone would leave a stale residue in place.  The default ``repro-lint`` run
must flag the residue as RL008 (and nothing else), and a scheduler in
``check_guard_locality`` mode must raise RL008 on a legitimacy query.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads, Rule, all_of
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable

VAR_X = "rd_x"
VAR_MARK = "rd_mark"

_OWN_X = Reads(own=frozenset({VAR_X}))


def _above_zero(view: ProcessorView) -> bool:
    return view.read(VAR_X) > 0


def _lower(view: ProcessorView) -> None:
    view.write(VAR_X, view.read(VAR_X) - 1)


class ResidueUnderdeclared(Protocol):
    """Count ``rd_x`` down to 0; the residue also wants every ``rd_mark`` clear."""

    name = "residue-underdeclared"

    def __init__(self) -> None:
        self._program = (Action("RD-Lower", all_of((_above_zero, _OWN_X)), _lower, layer=self.name),)
        self._rules = (Rule("RD-Above", all_of((_above_zero, _OWN_X)), layer=self.name),)

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [
            int_variable(VAR_X, 0, 3, initial=0, description="counter"),
            int_variable(VAR_MARK, 0, 1, initial=0, description="mark"),
        ]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._program

    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        return self._rules

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        return self._unmarked(network, configuration)

    def _unmarked(self, network: RootedNetwork, configuration: Configuration) -> bool:
        return all(configuration.get(node, VAR_MARK) == 0 for node in network.nodes())
