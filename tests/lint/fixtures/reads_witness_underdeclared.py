"""Fixture protocol whose witness guard part under-declares its reads.

``RW-Follow`` copies the value of the first neighbor above the processor.
Its guard is the witness part ``Witness(_higher)``, whose value the
statement adopts with ``view.witness``.  ``_higher`` reads ``rw_x`` at the
processor and at every neighbor, but the part declares only the own read.
A witness part reads what its function reads, so the default ``repro-lint``
run must flag the part as RL008 (and nothing else).
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads, Witness, all_of
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable

VAR_X = "rw_x"

_OWN_ONLY = Reads(own=frozenset({VAR_X}))


def _higher(view: ProcessorView) -> int | None:
    own = view.read(VAR_X)
    for q in view.neighbors:
        if view.read_neighbor(q, VAR_X) > own:
            return q
    return None


def _follow(view: ProcessorView) -> None:
    view.write(VAR_X, view.read_neighbor(view.witness(_higher), VAR_X))


class ReadsWitnessUnderdeclared(Protocol):
    """Follow a higher neighbor; the witness part misses the neighbor read."""

    name = "reads-witness-underdeclared"

    ACTION_FOLLOW = "RW-Follow"

    def __init__(self) -> None:
        self._program = (
            Action(self.ACTION_FOLLOW, all_of((Witness(_higher), _OWN_ONLY)), _follow,
                   layer=self.name),
        )

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable(VAR_X, 0, 3, initial=0, description="followed value")]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._program
