"""Fixture protocol whose negated guard part under-declares its reads.

``RN-Raise`` fires while ``Not(_settled)`` holds: the processor is below
some neighbor.  ``_settled`` reads ``rn_x`` at the processor and at every
neighbor, but the negated part declares only the own read.  Negation does
not change what a part reads, so the default ``repro-lint`` run must flag
the part as RL008 (and nothing else), and a scheduler in
``check_guard_locality`` mode must raise RL008 on it.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Not, Reads, all_of
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable

VAR_X = "rn_x"

_OWN_ONLY = Reads(own=frozenset({VAR_X}))


def _settled(view: ProcessorView) -> bool:
    own = view.read(VAR_X)
    return all(view.read_neighbor(q, VAR_X) <= own for q in view.neighbors)


def _raise(view: ProcessorView) -> None:
    view.write(VAR_X, view.read(VAR_X) + 1)


class ReadsNegatedUnderdeclared(Protocol):
    """Raise the value while a neighbor is above it; the negated part misses the neighbor read."""

    name = "reads-negated-underdeclared"

    ACTION_RAISE = "RN-Raise"

    def __init__(self) -> None:
        self._program = (
            Action(self.ACTION_RAISE, all_of((Not(_settled), _OWN_ONLY)), _raise, layer=self.name),
        )

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable(VAR_X, 0, 3, initial=0, description="raised value")]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._program
