"""What building a scheduler costs: programs and variable specs are built once.

Every layer of the shipped stacks builds its programs once per instance and
its variable specs once per network, so constructing a
:class:`~repro.runtime.scheduler.Scheduler` -- validation, the drawn
configuration, the action and rule tables -- constructs a fixed number of
:class:`~repro.runtime.actions.Action` and
:class:`~repro.runtime.variables.VariableSpec` objects, whatever the
network's size.  The scheduler also keeps one statement view per processor,
rebuilt with the guard views whenever the configuration or network object is
replaced.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api.engines import build_protocol
from repro.graphs import generators
from repro.obs import PHASE_INIT, Instrumentation
from repro.runtime.actions import Action
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import VariableSpec
from repro.substrates import dijkstra_ring, pif

STACKS = ("stno-bfs", "stno-dfs", "dftno")


def _constructions(monkeypatch, stack: str, n: int) -> Counter:
    """``Action``s and ``VariableSpec``s built by the protocol and one scheduler on n nodes."""
    network = generators.random_connected(n, seed=1)
    built: Counter = Counter()
    for cls in (Action, VariableSpec):
        original = cls.__init__

        def counted(self, *args, _original=original, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    Scheduler(network, build_protocol(stack), seed=2)
    monkeypatch.undo()
    return built


@pytest.mark.parametrize("stack", STACKS)
def test_construction_builds_a_fixed_number_of_actions_and_specs(monkeypatch, stack):
    small = _constructions(monkeypatch, stack, 50)
    large = _constructions(monkeypatch, stack, 500)
    assert small["Action"] > 0 and small["VariableSpec"] > 0
    assert large == small


@pytest.mark.parametrize(
    "module, walk, build, network",
    [
        (dijkstra_ring, "ring_order", dijkstra_ring.DijkstraTokenRing, generators.ring(200)),
        (pif, "is_tree", pif.PIFWave, generators.random_tree(200, seed=1)),
    ],
    ids=["dijkstra", "pif"],
)
def test_ring_and_tree_are_walked_once_per_network(monkeypatch, module, walk, build, network):
    # The ring order and the PIF tree, with every node's program and rules,
    # are built once per network, not once per node.
    walks = []
    original = getattr(module, walk)
    monkeypatch.setattr(module, walk, lambda net: walks.append(net) or original(net))
    scheduler = Scheduler(network, build(), seed=2)
    scheduler.run_until_legitimate(max_steps=2_000)
    assert walks == [network]


def test_construction_is_booked_under_the_init_phase():
    network = generators.random_connected(20, seed=1)
    instrumentation = Instrumentation()
    scheduler = Scheduler(network, build_protocol("stno-bfs"), seed=2, instrumentation=instrumentation)
    init = instrumentation.summary()["phases"][PHASE_INIT]
    assert init["count"] == 1 and init["seconds"] > 0.0
    scheduler.run_until_legitimate(max_steps=5_000)
    # Booked once per scheduler, not per step.
    assert instrumentation.summary()["phases"][PHASE_INIT]["count"] == 1


@pytest.mark.parametrize("stack", STACKS)
def test_statement_views_follow_a_replaced_configuration_and_network(stack):
    network = generators.random_connected(12, seed=1)
    protocol = build_protocol(stack)
    scheduler = Scheduler(network, protocol, seed=2)

    def bound_to_the_scheduler() -> bool:
        return all(
            view._configuration is scheduler.configuration and view._network is scheduler.network
            for view in scheduler._writers
        )

    assert bound_to_the_scheduler()
    scheduler.step()
    scheduler.set_configuration(protocol.random_configuration(network, seed=9))
    assert bound_to_the_scheduler()
    moved = generators.random_connected(12, seed=5)
    scheduler.set_network(moved, reinitialize=(1,))
    assert bound_to_the_scheduler()
    # A step after the swaps equals the same step of a scheduler built on them.
    fresh = Scheduler(moved, protocol, configuration=scheduler.configuration, seed=3)
    scheduler.rng.seed(3)
    scheduler.daemon.reset()
    assert scheduler.step().moves == fresh.step().moves
