"""The reference interpreter: hand-worked rounds, pure functions, and the seam it guards.

:mod:`repro.runtime.reference` restates the execution model without any of
the scheduler's machinery, so the equivalence suite compares two programs
rather than two branches of one.  These tests pin the reference itself to a
round count worked out by hand, check that its pure :func:`enabled` and
:func:`successors` leave their input alone, and show that a fault in the
scheduler's round bookkeeping -- code the two used to share -- now shows up
in the lockstep harness.
"""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.api.engines import build_protocol
from repro.errors import SchedulingError
from repro.graphs import generators
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, SynchronousDaemon
from repro.runtime.protocol import Protocol
from repro.runtime.reference import ReferenceScheduler, enabled, successors
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import VariableSpec, int_variable
from tests.api.test_engine_equivalence import _lockstep

CORES = pytest.mark.parametrize(
    "core", (Scheduler, ReferenceScheduler), ids=("scheduler", "fullscan")
)


class ScriptedCentralDaemon(Daemon):
    """A central daemon that executes the given processors, one per step, in order."""

    name = "scripted-central"

    def __init__(self, script: Sequence[int]) -> None:
        self.script = list(script)

    def select(self, enabled: Sequence[int], step: int, rng) -> list[int]:
        return [self.script[step]]


class MaxPropagation(Protocol):
    """Each processor adopts the largest value in its closed neighborhood."""

    name = "maxprop"

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable("v", 0, 2, initial=0)]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        def top(view) -> int:
            return max([view.read("v")] + [view.read_neighbor(q, "v") for q in view.neighbors])

        return [
            Action(
                "Adopt",
                lambda view: view.read("v") != top(view),
                lambda view: view.write("v", top(view)),
                layer=self.name,
            )
        ]

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        return len({configuration.get(node, "v") for node in network.nodes()}) == 1


class Claim(Protocol):
    """A processor claims (``b := 1``) while it and all its neighbors are unclaimed."""

    name = "claim"

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable("b", 0, 1, initial=0)]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return [
            Action(
                "Claim",
                lambda view: view.read("b") == 0
                and all(view.read_neighbor(q, "b") == 0 for q in view.neighbors),
                lambda view: view.write("b", 1),
                layer=self.name,
            )
        ]


@CORES
def test_rounds_of_a_hand_worked_central_execution(core):
    # Path 0-1-2 with v = (0, 1, 2): processors 0 and 1 are enabled, so round
    # 0 waits for both.  Step 0 moves 0 (v = 1, 1, 2), and 1 is still
    # enabled; step 1 moves 1 (v = 1, 2, 2), which ends round 0.  Only 0 is
    # enabled now: step 2 moves it (v = 2, 2, 2) and ends round 1.
    network = generators.path(3)
    configuration = Configuration({0: {"v": 0}, 1: {"v": 1}, 2: {"v": 2}})
    scheduler = core(
        network, MaxPropagation(), daemon=ScriptedCentralDaemon([0, 1, 0]),
        configuration=configuration,
    )
    records = [scheduler.step() for _ in range(3)]
    assert [record.round for record in records] == [0, 0, 1]
    assert [record.executed for record in records] == [
        ((0, "Adopt"),), ((1, "Adopt"),), ((0, "Adopt"),)
    ]
    assert scheduler.rounds_completed == 2
    assert scheduler.step() is None
    assert scheduler.metrics.rounds == 2 and scheduler.metrics.moves == 3


@CORES
def test_a_round_ends_when_its_pending_processors_are_disabled(core):
    # Path 0-1-2, nobody has claimed: all three are enabled.  Processor 1
    # claims in step 0, which disables 0 and 2 without their moving, so
    # round 0 ends with that one move and the run falls silent.
    network = generators.path(3)
    scheduler = core(
        network, Claim(), daemon=ScriptedCentralDaemon([1]),
        configuration=Claim().initial_configuration(network),
    )
    assert scheduler.enabled_nodes() == (0, 1, 2)
    assert scheduler.step().round == 0
    assert scheduler.rounds_completed == 1
    assert scheduler.step() is None


def test_enabled_and_successors_leave_their_input_untouched():
    network = generators.random_connected(7, seed=3)
    protocol = build_protocol("dftno")
    configuration = protocol.random_configuration(network, seed=4)
    snapshot = configuration.copy()
    actions = enabled(network, protocol, configuration)
    assert actions and list(actions) == sorted(actions)
    following = successors(network, protocol, configuration, actions)
    assert configuration == snapshot
    assert configuration.drain_dirty() == {}
    assert following != configuration
    # The same step on the scheduler: every enabled processor moves.
    scheduler = Scheduler(
        network, protocol, daemon=SynchronousDaemon(), configuration=configuration
    )
    assert scheduler.enabled_actions() == actions
    scheduler.step()
    assert scheduler.configuration == following
    assert enabled(network, protocol, configuration, frozen=set(actions)) == {}


def test_successors_rejects_a_processor_that_is_not_enabled():
    network = generators.path(3)
    configuration = Configuration({0: {"v": 2}, 1: {"v": 2}, 2: {"v": 2}})
    with pytest.raises(SchedulingError, match=r"not enabled: \[1\]"):
        successors(network, MaxPropagation(), configuration, (1,))


def test_a_round_fault_in_the_scheduler_shows_in_lockstep(monkeypatch):
    original = Scheduler._advance_round

    def counts_the_first_round_twice(self, executed_nodes):
        completed = original(self, executed_nodes)
        if completed == 1:
            self._round_index += 1
            return self._round_index
        return completed

    monkeypatch.setattr(Scheduler, "_advance_round", counts_the_first_round_twice)
    with pytest.raises(AssertionError, match="diverged"):
        _lockstep("dftno", "distributed", seed=11, n=7)
