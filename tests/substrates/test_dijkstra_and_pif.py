"""Tests for the classic side substrates: Dijkstra's token ring and PIF waves."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.graphs import generators
from repro.runtime.daemon import CentralDaemon, DistributedDaemon, SynchronousDaemon
from repro.runtime.observers import CallbackObserver
from repro.runtime.scheduler import Scheduler
from repro.substrates.dijkstra_ring import VAR_COUNTER, DijkstraTokenRing, ring_order
from repro.substrates.pif import BROADCAST, CLEAN, FEEDBACK, VAR_PHASE, PIFWave


# ----------------------------------------------------------------------
# Ring ordering helper
# ----------------------------------------------------------------------
def test_ring_order_starts_at_root_and_visits_all():
    network = generators.ring(7)
    order = ring_order(network)
    assert order[0] == network.root
    assert sorted(order) == list(network.nodes())
    # Consecutive processors must be neighbors.
    for a, b in zip(order, order[1:]):
        assert network.has_edge(a, b)


def test_ring_order_rejects_non_ring():
    with pytest.raises(ProtocolError):
        ring_order(generators.path(5))
    with pytest.raises(ProtocolError):
        ring_order(generators.complete(4))


# ----------------------------------------------------------------------
# Dijkstra's K-state token ring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dijkstra_ring_stabilizes_to_single_privilege(seed):
    network = generators.ring(7)
    protocol = DijkstraTokenRing()
    scheduler = Scheduler(network, protocol, daemon=CentralDaemon(), seed=seed)
    result = scheduler.run_until_legitimate(max_steps=10_000)
    assert result.converged
    assert len(protocol.privileged(network, result.configuration)) == 1


def test_dijkstra_ring_closure_keeps_single_privilege():
    network = generators.ring(6)
    protocol = DijkstraTokenRing()
    scheduler = Scheduler(network, protocol, daemon=CentralDaemon(), seed=5)
    scheduler.run_until_legitimate(max_steps=10_000)
    for _ in range(100):
        scheduler.step()
        assert len(protocol.privileged(network, scheduler.configuration)) == 1


def test_dijkstra_ring_never_deadlocks():
    network = generators.ring(5)
    protocol = DijkstraTokenRing()
    scheduler = Scheduler(network, protocol, daemon=DistributedDaemon(), seed=6)
    for _ in range(300):
        assert scheduler.step() is not None


def test_dijkstra_ring_every_processor_eventually_privileged():
    network = generators.ring(5)
    protocol = DijkstraTokenRing()
    scheduler = Scheduler(network, protocol, daemon=CentralDaemon("round_robin"), seed=7)
    scheduler.run_until_legitimate(max_steps=10_000)
    seen: set[int] = set()
    for _ in range(200):
        seen.update(protocol.privileged(network, scheduler.configuration))
        scheduler.step()
    assert seen == set(network.nodes())


def test_dijkstra_ring_counter_domain_respects_k():
    network = generators.ring(4)
    protocol = DijkstraTokenRing(k=3)
    config = protocol.random_configuration(network, seed=1)
    assert all(0 <= config.get(node, VAR_COUNTER) <= 2 for node in network.nodes())


def test_dijkstra_ring_rejects_non_ring_topology():
    protocol = DijkstraTokenRing()
    with pytest.raises(ProtocolError):
        Scheduler(generators.path(4), protocol, seed=1)


# ----------------------------------------------------------------------
# PIF waves on a rooted tree
# ----------------------------------------------------------------------
def _move_collector():
    """An observer that appends every executed move, in order, to ``moves``."""
    moves = []
    return moves, CallbackObserver(on_step=lambda source, record: moves.extend(record.moves))


def test_pif_runs_repeated_waves_from_clean_state(small_tree):
    protocol = PIFWave()
    moves, collector = _move_collector()
    scheduler = Scheduler(
        small_tree,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_tree),
        seed=1,
        observers=[collector],
    )
    for _ in range(400):
        assert scheduler.step() is not None  # waves repeat forever
    root_starts = [move for move in moves if move.action == PIFWave.ACTION_ROOT_START]
    assert len(root_starts) >= 2


def test_pif_broadcast_reaches_leaves_before_feedback(small_tree):
    protocol = PIFWave()
    events, collector = _move_collector()
    scheduler = Scheduler(
        small_tree,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(small_tree),
        seed=2,
        observers=[collector],
    )
    for _ in range(200):
        scheduler.step()
    first_feedback = next(i for i, e in enumerate(events) if e.action == PIFWave.ACTION_FEEDBACK)
    broadcast_nodes = {e.node for e in events[:first_feedback] if e.action in
                       (PIFWave.ACTION_BROADCAST, PIFWave.ACTION_ROOT_START)}
    feedback_node = events[first_feedback].node
    assert feedback_node in broadcast_nodes  # it had been reached by the broadcast


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pif_recovers_from_arbitrary_state(small_tree, seed):
    protocol = PIFWave()
    scheduler = Scheduler(small_tree, protocol, daemon=DistributedDaemon(), seed=seed)
    result = scheduler.run_until_legitimate(max_steps=10_000)
    assert result.converged


def test_pif_legitimacy_rejects_child_ahead_of_parent(small_tree):
    protocol = PIFWave()
    config = protocol.initial_configuration(small_tree)
    config.set(3, VAR_PHASE, BROADCAST)  # a leaf broadcasting under a clean parent
    assert not protocol.legitimate(small_tree, config)
    config.set(3, VAR_PHASE, CLEAN)
    assert protocol.legitimate(small_tree, config)


def test_pif_legitimacy_rejects_feedback_root(small_tree):
    protocol = PIFWave()
    config = protocol.initial_configuration(small_tree)
    config.set(small_tree.root, VAR_PHASE, FEEDBACK)
    assert not protocol.legitimate(small_tree, config)


def test_pif_requires_tree_or_explicit_parents():
    ring = generators.ring(5)
    with pytest.raises(ProtocolError):
        Scheduler(ring, PIFWave(), seed=1)
    # With an explicit spanning tree of the ring it works.
    parents = {0: None, 1: 0, 2: 1, 3: 2, 4: 0}
    scheduler = Scheduler(ring, PIFWave(parents=parents), seed=1)
    result = scheduler.run_until_legitimate(max_steps=10_000)
    assert result.converged
