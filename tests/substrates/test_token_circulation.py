"""Unit and behavioural tests for the depth-first token circulation substrate."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import CentralDaemon, DistributedDaemon, SynchronousDaemon
from repro.runtime.observers import CallbackObserver
from repro.runtime.processor import ProcessorView
from repro.runtime.scheduler import Scheduler
from repro.substrates import token_circulation as tc
from repro.substrates.token_circulation import (
    ACTIVE,
    WAIT,
    DepthFirstTokenCirculation,
    dfs_preorder,
)


# ----------------------------------------------------------------------
# The reference DFS preorder
# ----------------------------------------------------------------------
def test_dfs_preorder_on_figure_network(figure_network):
    # The figure's traversal order: r, b, d, c, a (node ids 0, 1, 2, 3, 4).
    assert dfs_preorder(figure_network) == [0, 1, 2, 3, 4]


def test_dfs_preorder_on_path_and_ring():
    assert dfs_preorder(generators.path(4)) == [0, 1, 2, 3]
    assert dfs_preorder(generators.ring(5)) == [0, 1, 2, 3, 4]


def test_dfs_preorder_respects_port_order():
    network = generators.star(4).with_port_orders({0: (3, 1, 2)})
    assert dfs_preorder(network) == [0, 3, 1, 2]


def test_dfs_preorder_visits_every_node_once(small_random):
    order = dfs_preorder(small_random)
    assert sorted(order) == list(small_random.nodes())


def test_dfs_preorder_single_node():
    assert dfs_preorder(generators.path(1)) == [0]


# ----------------------------------------------------------------------
# Variable declarations and clean initial state
# ----------------------------------------------------------------------
def test_variables_and_space(small_random):
    protocol = DepthFirstTokenCirculation()
    names = protocol.variable_names(small_random, 0)
    assert set(names) == {tc.VAR_STATE, tc.VAR_WAVE, tc.VAR_PARENT, tc.VAR_CHILD, tc.VAR_LEVEL}
    # O(log n) bits per processor: generously bounded by a small multiple.
    for node in small_random.nodes():
        assert protocol.space_bits(small_random, node) <= 6 * 10


def test_initial_configuration_is_all_waiting(small_random):
    protocol = DepthFirstTokenCirculation()
    config = protocol.initial_configuration(small_random)
    for node in small_random.nodes():
        assert config.get(node, tc.VAR_STATE) == WAIT
        assert config.get(node, tc.VAR_PARENT) is None
    assert protocol.legitimate(small_random, config)


# ----------------------------------------------------------------------
# One clean wave from the initial configuration
# ----------------------------------------------------------------------
def move_collector():
    """An observer that appends every executed move, in order, to ``moves``."""
    moves = []
    return moves, CallbackObserver(on_step=lambda source, record: moves.extend(record.moves))


def run_one_wave(network, daemon=None, max_steps=5_000):
    protocol = DepthFirstTokenCirculation()
    moves, collector = move_collector()
    scheduler = Scheduler(
        network,
        protocol,
        daemon=daemon or CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(network),
        seed=1,
        observers=[collector],
    )
    start_wave = scheduler.configuration.get(network.root, tc.VAR_WAVE)
    # Run until the root has completed one full wave (flipped parity and waiting).
    def wave_done():
        return (
            scheduler.configuration.get(network.root, tc.VAR_WAVE) != start_wave
            and scheduler.configuration.get(network.root, tc.VAR_STATE) == WAIT
        )

    while not wave_done() and scheduler.steps_executed < max_steps:
        if scheduler.step() is None:
            break
    assert wave_done(), "the wave did not complete"
    return protocol, scheduler, moves


def test_single_wave_visits_every_node_exactly_once(small_random):
    protocol, scheduler, moves = run_one_wave(small_random)
    forwards = [
        event
        for event in moves
        if event.action in DepthFirstTokenCirculation.FORWARD_ACTIONS
    ]
    visited = [event.node for event in forwards]
    assert sorted(visited) == list(small_random.nodes())


def test_single_wave_visits_in_deterministic_dfs_order(figure_network):
    protocol, scheduler, moves = run_one_wave(figure_network)
    forwards = [
        event.node
        for event in moves
        if event.action in DepthFirstTokenCirculation.FORWARD_ACTIONS
    ]
    assert forwards == dfs_preorder(figure_network)


def test_wave_records_traversal_parents(figure_network):
    protocol, scheduler, _ = run_one_wave(figure_network)
    parents = DepthFirstTokenCirculation.traversal_parents(figure_network, scheduler.configuration)
    assert parents[0] is None
    assert parents[1] == 0
    assert parents[2] == 1
    assert parents[3] == 2
    assert parents[4] == 0


def test_at_most_one_token_holder_throughout_clean_execution(small_random):
    protocol = DepthFirstTokenCirculation()
    scheduler = Scheduler(
        small_random,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_random),
        seed=3,
    )
    for _ in range(300):
        if scheduler.step() is None:
            break
        holders = DepthFirstTokenCirculation.token_holders(small_random, scheduler.configuration)
        assert len(holders) <= 1


def test_circulation_never_terminates(small_ring):
    protocol = DepthFirstTokenCirculation()
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_ring),
        seed=4,
    )
    for _ in range(500):
        assert scheduler.step() is not None
    assert scheduler.steps_executed == 500


def test_waves_keep_alternating_parity(small_ring):
    protocol = DepthFirstTokenCirculation()
    moves, collector = move_collector()
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_ring),
        seed=5,
        observers=[collector],
    )
    for _ in range(400):
        scheduler.step()
    starts = [
        event
        for event in moves
        if event.action == DepthFirstTokenCirculation.ACTION_ROOT_START
    ]
    assert len(starts) >= 3
    parities = [event.changes[tc.VAR_WAVE][1] for event in starts if tc.VAR_WAVE in event.changes]
    assert all(parities[i] != parities[i + 1] for i in range(len(parities) - 1))


# ----------------------------------------------------------------------
# Self-stabilization from corrupted configurations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_stabilizes_from_arbitrary_state(small_random, seed):
    protocol = DepthFirstTokenCirculation()
    scheduler = Scheduler(small_random, protocol, daemon=DistributedDaemon(), seed=seed)
    result = scheduler.run_until_legitimate(max_steps=30_000)
    assert result.converged


def test_stabilizes_under_synchronous_daemon(small_ring):
    protocol = DepthFirstTokenCirculation()
    scheduler = Scheduler(small_ring, protocol, daemon=SynchronousDaemon(), seed=9)
    result = scheduler.run_until_legitimate(max_steps=30_000)
    assert result.converged


def test_legitimacy_rejects_orphan_active_processor(small_ring):
    protocol = DepthFirstTokenCirculation()
    config = protocol.initial_configuration(small_ring)
    config.set(2, tc.VAR_STATE, ACTIVE)  # active non-root without an active parent
    assert not protocol.legitimate(small_ring, config)


def test_legitimacy_rejects_root_with_parent(small_ring):
    protocol = DepthFirstTokenCirculation()
    config = protocol.initial_configuration(small_ring)
    config.set(small_ring.root, tc.VAR_PARENT, 1)
    assert not protocol.legitimate(small_ring, config)


def test_legitimacy_rejects_level_overflow(small_ring):
    protocol = DepthFirstTokenCirculation()
    config = protocol.initial_configuration(small_ring)
    config.set(3, tc.VAR_LEVEL, small_ring.n + 5)
    assert not protocol.legitimate(small_ring, config)


def _child_parent_cycle_configuration(protocol, network):
    """The corrupted state that used to deadlock the wave: the root delegates
    to processor 1, whose own child pointer aims back at the root."""
    config = protocol.initial_configuration(network)
    config.set(network.root, tc.VAR_STATE, ACTIVE)
    config.set(network.root, tc.VAR_CHILD, 1)
    config.set(1, tc.VAR_STATE, ACTIVE)
    config.set(1, tc.VAR_PARENT, network.root)
    config.set(1, tc.VAR_LEVEL, 1)
    config.set(1, tc.VAR_CHILD, network.root)
    return config


def test_legitimacy_rejects_child_pointer_cycle(small_ring):
    protocol = DepthFirstTokenCirculation()
    config = _child_parent_cycle_configuration(protocol, small_ring)
    assert not protocol.legitimate(small_ring, config)


def test_recovers_from_child_pointer_cycle(small_ring):
    # Regression (found by the scenario engine): a delegation aiming back
    # into the active stack deadlocked the wave -- both endpoints waited for
    # each other forever and no guard was enabled.
    protocol = DepthFirstTokenCirculation()
    config = _child_parent_cycle_configuration(protocol, small_ring)
    scheduler = Scheduler(
        small_ring, protocol, daemon=CentralDaemon(policy="round_robin"), configuration=config, seed=1
    )
    assert scheduler.enabled_nodes() != ()  # the cycle must be locally detectable
    result = scheduler.run_until_legitimate(max_steps=10_000)
    assert result.converged


def test_root_clears_bogus_delegation_without_ending_the_wave(small_ring):
    # Root active, delegating to a processor that is active under a different
    # parent: the root's delegation-error action forgets the child pointer.
    protocol = DepthFirstTokenCirculation()
    config = protocol.initial_configuration(small_ring)
    config.set(0, tc.VAR_STATE, ACTIVE)
    config.set(0, tc.VAR_CHILD, 1)
    config.set(1, tc.VAR_STATE, ACTIVE)
    config.set(1, tc.VAR_PARENT, 2)
    config.set(1, tc.VAR_LEVEL, 1)
    view = ProcessorView(0, small_ring, config)
    actions = {action.name: action for action in protocol.actions(small_ring, 0)}
    assert actions[DepthFirstTokenCirculation.ACTION_ROOT_ERROR].guard(view)
    actions[DepthFirstTokenCirculation.ACTION_ROOT_ERROR].statement(view)
    assert view.pending_writes[tc.VAR_CHILD] is None
    assert tc.VAR_STATE not in view.pending_writes  # the wave survives


def test_error_action_resets_orphan_active_processor(small_ring):
    protocol = DepthFirstTokenCirculation()
    config = protocol.initial_configuration(small_ring)
    config.set(2, tc.VAR_STATE, ACTIVE)
    config.set(2, tc.VAR_PARENT, 1)
    config.set(2, tc.VAR_LEVEL, 1)
    view = ProcessorView(2, small_ring, config)
    actions = {action.name: action for action in protocol.actions(small_ring, 2)}
    assert actions[DepthFirstTokenCirculation.ACTION_ERROR].guard(view)
    actions[DepthFirstTokenCirculation.ACTION_ERROR].statement(view)
    assert view.pending_writes[tc.VAR_STATE] == WAIT


def test_holds_token_predicate(figure_network):
    protocol = DepthFirstTokenCirculation()
    config = protocol.initial_configuration(figure_network)
    # Root active, delegating to nobody yet: it holds the token.
    config.set(0, tc.VAR_STATE, ACTIVE)
    config.set(0, tc.VAR_WAVE, 1)
    assert DepthFirstTokenCirculation.holds_token(ProcessorView(0, figure_network, config))
    # Delegate to processor 1, which accepts: the root no longer holds it.
    config.set(0, tc.VAR_CHILD, 1)
    config.set(1, tc.VAR_STATE, ACTIVE)
    config.set(1, tc.VAR_WAVE, 1)
    config.set(1, tc.VAR_PARENT, 0)
    config.set(1, tc.VAR_LEVEL, 1)
    assert not DepthFirstTokenCirculation.holds_token(ProcessorView(0, figure_network, config))
    assert DepthFirstTokenCirculation.holds_token(ProcessorView(1, figure_network, config))


def test_single_processor_network_cycles_waves():
    network = generators.path(1)
    protocol = DepthFirstTokenCirculation()
    scheduler = Scheduler(
        network,
        protocol,
        configuration=protocol.initial_configuration(network),
        daemon=CentralDaemon("round_robin"),
        seed=0,
    )
    for _ in range(10):
        assert scheduler.step() is not None  # keeps starting/finishing waves forever
    assert scheduler.steps_executed == 10
