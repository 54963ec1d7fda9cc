"""Unit tests for the scheduler: steps, rounds, convergence detection."""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from repro.api.engines import build_protocol
from repro.errors import SchedulingError
from repro.graphs import generators
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import CentralDaemon, Daemon, SynchronousDaemon
from repro.runtime.observers import CallbackObserver, Observer
from repro.runtime.protocol import Protocol
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import VariableSpec, int_variable


class CountdownProtocol(Protocol):
    """Every processor decrements its own counter to zero (silent, converges)."""

    name = "countdown"

    def __init__(self, start: int = 3, variable: str = "c") -> None:
        self.start = start
        self.variable = variable

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable(self.variable, 0, self.start, initial=self.start)]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        counter = self.variable
        return [
            Action(
                "Dec",
                lambda view: view.read(counter) > 0,
                lambda view: view.write(counter, view.read(counter) - 1),
                layer=self.name,
            )
        ]

    def legitimate(self, network: RootedNetwork, configuration: Configuration) -> bool:
        return all(configuration.get(node, self.variable) == 0 for node in network.nodes())


class MaxPropagation(Protocol):
    """Each processor adopts the maximum value seen in its neighborhood (silent)."""

    name = "maxprop"

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable("v", 0, network.n, initial=lambda net, p: p)]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        def desired(view):
            return max([view.read("v")] + [view.read_neighbor(q, "v") for q in view.neighbors])

        return [
            Action(
                "Adopt",
                lambda view: view.read("v") != desired(view),
                lambda view: view.write("v", desired(view)),
                layer=self.name,
            )
        ]

    def legitimate(self, network: RootedNetwork, configuration: Configuration) -> bool:
        top = max(configuration.get(node, "v") for node in network.nodes())
        return all(configuration.get(node, "v") == top for node in network.nodes())


class EmptySelectionDaemon(Daemon):
    name = "empty"

    def select(self, enabled, step, rng):
        return []


class RogueDaemon(Daemon):
    name = "rogue"

    def select(self, enabled, step, rng):
        return [max(enabled) + 1000]


class StutteringDaemon(Daemon):
    name = "stutter"

    def select(self, enabled, step, rng):
        return [enabled[0], *enabled, enabled[0]]


def test_run_terminates_when_silent(small_ring):
    scheduler = Scheduler(
        small_ring,
        CountdownProtocol(start=2),
        daemon=SynchronousDaemon(),
        configuration=CountdownProtocol(start=2).initial_configuration(small_ring),
    )
    # A confirmation window as long as the budget runs on to silence.
    result = scheduler.run_until_legitimate(max_steps=100, confirm_steps=100)
    assert result.terminated
    assert result.converged
    assert result.steps == 2
    assert result.moves == 2 * small_ring.n
    assert all(result.configuration.get(node, "c") == 0 for node in small_ring.nodes())


def test_synchronous_daemon_one_round_per_step(small_ring):
    protocol = CountdownProtocol(start=3)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    result = scheduler.run_until_legitimate(max_steps=50)
    assert result.rounds == 3
    assert result.steps == 3


def test_central_daemon_round_counts_match_moves(small_ring):
    protocol = CountdownProtocol(start=2)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_ring),
    )
    result = scheduler.run_until_legitimate(max_steps=100)
    # Under a central daemon every processor moves once per round.
    assert result.steps == 2 * small_ring.n
    assert result.rounds == 2
    assert result.moves == result.steps


def test_run_respects_max_steps(small_ring):
    protocol = CountdownProtocol(start=50)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_ring),
    )
    result = scheduler.run_until_legitimate(max_steps=10)
    assert result.steps == 10
    assert not result.terminated
    assert not result.converged


def test_a_custom_stop_condition_is_an_explicit_step_loop(small_ring):
    protocol = CountdownProtocol(start=5)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    while scheduler.steps_executed < 2:
        assert scheduler.step() is not None
    assert scheduler.steps_executed == 2
    assert scheduler.rounds_completed == 2
    assert not scheduler.legitimate()


def test_first_legitimate_step_records_stable_point(small_ring):
    protocol = MaxPropagation()
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    result = scheduler.run_until_legitimate(max_steps=100, confirm_steps=100)
    assert result.terminated
    assert result.first_legitimate_step is not None
    assert result.first_legitimate_step <= result.steps
    assert result.first_legitimate_round is not None


def test_run_until_legitimate_converges_from_arbitrary_state(small_random):
    protocol = MaxPropagation()
    scheduler = Scheduler(small_random, protocol, seed=5)
    result = scheduler.run_until_legitimate(max_steps=10_000)
    assert result.converged
    assert protocol.legitimate(small_random, result.configuration)


def test_run_until_legitimate_without_raise_returns_unconverged(small_ring):
    protocol = CountdownProtocol(start=40)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=CentralDaemon(),
        configuration=protocol.initial_configuration(small_ring),
        seed=1,
    )
    result = scheduler.run_until_legitimate(max_steps=5)
    assert not result.converged


def test_run_until_legitimate_confirm_steps_checks_closure(small_ring):
    protocol = MaxPropagation()
    scheduler = Scheduler(small_ring, protocol, daemon=SynchronousDaemon(), seed=2)
    result = scheduler.run_until_legitimate(max_steps=1_000, confirm_steps=5)
    assert result.converged
    assert protocol.legitimate(small_ring, result.configuration)


def test_enabled_nodes_and_is_enabled(small_ring):
    protocol = CountdownProtocol(start=1)
    config = protocol.initial_configuration(small_ring)
    config.set(0, "c", 0)
    scheduler = Scheduler(small_ring, protocol, configuration=config)
    assert 0 not in scheduler.enabled_nodes()
    assert scheduler.is_enabled(1)
    assert not scheduler.is_enabled(0)
    assert set(scheduler.enabled_actions()) == set(range(1, small_ring.n))


def test_step_returns_none_when_nothing_enabled(small_ring):
    protocol = CountdownProtocol(start=1)
    config = Configuration({node: {"c": 0} for node in small_ring.nodes()})
    scheduler = Scheduler(small_ring, protocol, configuration=config)
    assert scheduler.step() is None


def test_scheduler_rejects_empty_daemon_selection(small_ring):
    protocol = CountdownProtocol(start=1)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=EmptySelectionDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    with pytest.raises(SchedulingError):
        scheduler.step()


def test_scheduler_rejects_selection_of_disabled_processor(small_ring):
    protocol = CountdownProtocol(start=1)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=RogueDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    with pytest.raises(SchedulingError):
        scheduler.step()


@pytest.mark.parametrize("core", (Scheduler, ReferenceScheduler), ids=("scheduler", "fullscan"))
def test_scheduler_rejects_a_selection_that_repeats_a_processor(small_ring, core):
    protocol = CountdownProtocol(start=1)
    scheduler = core(
        small_ring,
        protocol,
        daemon=StutteringDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    first = scheduler.enabled_nodes()[0]
    with pytest.raises(SchedulingError, match=rf"more than once: \[{first}\]"):
        scheduler.step()
    # Nothing ran: the configuration and the counters are untouched.
    assert scheduler.steps_executed == 0 and scheduler.metrics.moves == 0
    assert scheduler.configuration == protocol.initial_configuration(small_ring)


@pytest.mark.parametrize("core", (Scheduler, ReferenceScheduler), ids=("scheduler", "fullscan"))
@pytest.mark.parametrize("unknown", (99, 6, -1))
def test_mutations_reject_an_unknown_processor(core, unknown):
    network = generators.random_connected(6, seed=1)
    protocol = build_protocol("dftno")
    mutations = []

    class Mutations(Observer):
        def on_mutation(self, source, mutation):
            mutations.append(mutation)

    scheduler = core(network, protocol, seed=2, observers=(Mutations(),))
    before = scheduler.configuration.copy()
    state = protocol.random_state(network, 0, random.Random(3))
    for mutate in (
        lambda: scheduler.freeze((1, unknown)),
        lambda: scheduler.unfreeze((unknown,)),
        lambda: scheduler.replace_node(unknown, state),
        lambda: scheduler.set_network(network, reinitialize=(0, unknown)),
    ):
        with pytest.raises(SchedulingError, match=f"unknown processor {unknown}"):
            mutate()
    assert sorted(scheduler.configuration.nodes()) == list(range(6))
    assert scheduler.configuration == before
    assert scheduler.frozen_nodes == frozenset() and mutations == []


def test_step_record_contents(small_ring):
    protocol = CountdownProtocol(start=1)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_ring),
    )
    record = scheduler.step()
    assert record is not None
    assert record.step == 0
    assert record.executed[0][1] == "Dec"
    assert record.changed_nodes == (record.executed[0][0],)


def test_trace_recording(small_ring):
    protocol = CountdownProtocol(start=1)
    records = []
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
        observers=[CallbackObserver(on_step=lambda source, record: records.append(record))],
    )
    scheduler.run_until_legitimate(max_steps=10)
    moves = [move for record in records for move in record.moves]
    assert len(moves) == small_ring.n
    event = moves[0]
    assert event.action == "Dec"
    assert event.changes["c"] == (1, 0)


def test_metrics_per_node_and_action(small_ring):
    protocol = CountdownProtocol(start=2)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    scheduler.run_until_legitimate(max_steps=10)
    metrics = scheduler.metrics
    assert metrics.moves == 2 * small_ring.n
    assert metrics.moves_per_action == {"Dec": 2 * small_ring.n}
    assert all(count == 2 for count in metrics.moves_per_node.values())
    assert metrics.moves_per_layer == {"countdown": 2 * small_ring.n}


def test_set_configuration_resets_round_tracking(small_ring):
    protocol = CountdownProtocol(start=3)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    scheduler.step()
    scheduler.set_configuration(protocol.initial_configuration(small_ring))
    assert all(
        scheduler.configuration.get(node, "c") == 3 for node in small_ring.nodes()
    )


def test_default_start_is_arbitrary_configuration(small_ring):
    protocol = CountdownProtocol(start=6)
    a = Scheduler(small_ring, protocol, seed=1).configuration
    b = Scheduler(small_ring, protocol, seed=2).configuration
    assert a != b


def test_scheduler_repr(small_ring):
    protocol = CountdownProtocol()
    scheduler = Scheduler(small_ring, protocol, seed=0)
    assert "countdown" in repr(scheduler)


class TransientLegitimacyProtocol(CountdownProtocol):
    """Legitimate only while every counter is exactly 1; terminates at 0."""

    name = "transient"

    def legitimate(self, network: RootedNetwork, configuration: Configuration) -> bool:
        return all(configuration.get(node, "c") == 1 for node in network.nodes())


def test_confirm_window_reports_termination_of_the_inner_run(small_ring):
    # Legitimacy holds transiently at c == 1, is violated at c == 0, and the
    # system then terminates illegitimate: the confirmation machinery must
    # report terminated=True (the "provably stuck" signal scenarios rely on),
    # not a mere budget exhaustion.
    protocol = TransientLegitimacyProtocol(start=2)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    result = scheduler.run_until_legitimate(max_steps=1_000, confirm_steps=5)
    assert not result.converged
    assert result.terminated


def test_set_daemon_switches_adversary_mid_run(small_ring):
    protocol = CountdownProtocol(start=4)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=CentralDaemon(policy="round_robin"),
        configuration=protocol.initial_configuration(small_ring),
        seed=0,
    )
    scheduler.step()
    scheduler.set_daemon(SynchronousDaemon())
    record = scheduler.step()
    assert scheduler.daemon.name == "synchronous"
    assert len(record.executed) == small_ring.n  # everyone fires at once now


def test_frozen_nodes_are_excluded_until_unfrozen(small_ring):
    protocol = CountdownProtocol(start=2)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    scheduler.freeze((0, 1))
    assert scheduler.frozen_nodes == frozenset({0, 1})
    assert not scheduler.is_enabled(0)  # consistent with enabled_actions()
    assert 0 not in scheduler.enabled_nodes()
    record = scheduler.step()
    executed = {node for node, _ in record.executed}
    assert executed.isdisjoint({0, 1})
    scheduler.unfreeze((0,))
    record = scheduler.step()
    assert 0 in {node for node, _ in record.executed}
    with pytest.raises(SchedulingError):
        scheduler.freeze((99,))


def test_set_network_rebuilds_actions_and_reinitializes(small_ring):
    protocol = CountdownProtocol(start=3)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
        seed=5,
    )
    edges = set(small_ring.edges()) | {(0, 3)}
    chord = RootedNetwork(small_ring.n, edges, root=small_ring.root, name="ring+chord")
    scheduler.set_network(chord, reinitialize=(0, 3))
    assert scheduler.network is chord
    # Reinitialized nodes carry domain-valid states for the new network.
    for node in (0, 3):
        assert 0 <= scheduler.configuration.get(node, "c") <= 3
    assert scheduler.run_until_legitimate(max_steps=100, confirm_steps=100).terminated


def test_set_network_rejects_resizing_or_rerooting(small_ring):
    protocol = CountdownProtocol()
    scheduler = Scheduler(small_ring, protocol, seed=0)
    bigger = generators.ring(small_ring.n + 2)
    with pytest.raises(SchedulingError):
        scheduler.set_network(bigger)
    rerooted = small_ring.with_root(1)
    with pytest.raises(SchedulingError):
        scheduler.set_network(rerooted)
