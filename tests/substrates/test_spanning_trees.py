"""Tests for the BFS and DFS spanning-tree substrates."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.graphs.properties import bfs_distances, is_spanning_tree, tree_height
from repro.runtime.daemon import CentralDaemon, DistributedDaemon, SynchronousDaemon
from repro.runtime.scheduler import Scheduler
from repro.substrates.spanning_tree import (
    VAR_BFS_DIST,
    VAR_BFS_PARENT,
    VAR_DFS_PARENT,
    BFSSpanningTree,
    DFSSpanningTree,
    dfs_tree_parents,
    tree_parents_from_configuration,
)
from repro.substrates.token_circulation import dfs_preorder
from tests.conftest import topologies_for_sweeps


# ----------------------------------------------------------------------
# BFS spanning tree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bfs_tree_stabilizes_from_arbitrary_state(small_random, seed):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_random, protocol, daemon=DistributedDaemon(), seed=seed)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    assert result.converged
    parents = protocol.parents(small_random, result.configuration)
    assert is_spanning_tree(small_random, parents)


def test_bfs_tree_distances_are_true_bfs_distances(small_random):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_random, protocol, seed=3)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    truth = bfs_distances(small_random)
    for node in small_random.nodes():
        assert result.configuration.get(node, VAR_BFS_DIST) == truth[node]


def test_bfs_tree_is_silent_once_stable(small_random):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_random, protocol, seed=4)
    result = scheduler.run_until_legitimate(max_steps=20_000, confirm_steps=20_000)
    assert result.terminated  # no action enabled at the fixpoint
    assert protocol.legitimate(small_random, result.configuration)


def test_bfs_tree_height_matches_root_eccentricity(small_random):
    from repro.graphs.properties import radius_from_root

    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_random, protocol, seed=5)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    parents = protocol.parents(small_random, result.configuration)
    assert tree_height(small_random, parents) == radius_from_root(small_random)


@pytest.mark.parametrize("network", topologies_for_sweeps(), ids=lambda n: n.name)
def test_bfs_tree_on_topology_family(network):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(network, protocol, daemon=SynchronousDaemon(), seed=6)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    assert result.converged
    assert protocol.is_spanning_tree(network, result.configuration)


def test_bfs_tree_children_map_consistency(small_random):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_random, protocol, seed=7)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    children = protocol.children_map(small_random, result.configuration)
    parents = protocol.parents(small_random, result.configuration)
    for node, kids in children.items():
        for child in kids:
            assert parents[child] == node
    total_children = sum(len(kids) for kids in children.values())
    assert total_children == small_random.n - 1


def test_bfs_legitimacy_rejects_wrong_distance(small_ring):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_ring, protocol, seed=8)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    config = result.configuration
    config.set(2, VAR_BFS_DIST, 0)
    assert not protocol.legitimate(small_ring, config)


def test_bfs_legitimacy_rejects_bad_parent(small_ring):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_ring, protocol, seed=9)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    config = result.configuration
    config.set(3, VAR_BFS_PARENT, None)
    assert not protocol.legitimate(small_ring, config)


def test_tree_parents_from_configuration_helper(small_ring):
    protocol = BFSSpanningTree()
    scheduler = Scheduler(small_ring, protocol, seed=10)
    result = scheduler.run_until_legitimate(max_steps=20_000)
    parents = tree_parents_from_configuration(protocol, small_ring, result.configuration)
    assert parents == protocol.parents(small_ring, result.configuration)


# ----------------------------------------------------------------------
# Reference DFS-tree parents
# ----------------------------------------------------------------------
def test_dfs_tree_parents_match_preorder(figure_network):
    parents = dfs_tree_parents(figure_network)
    assert parents == {0: None, 1: 0, 2: 1, 3: 2, 4: 0}
    order = dfs_preorder(figure_network)
    for node in figure_network.nodes():
        if node != figure_network.root:
            assert order.index(parents[node]) < order.index(node)


def test_dfs_tree_parents_is_spanning_tree(small_random):
    parents = dfs_tree_parents(small_random)
    assert is_spanning_tree(small_random, parents)


# ----------------------------------------------------------------------
# DFS spanning tree maintained by the token circulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
def test_dfs_tree_protocol_converges_to_reference(small_random, seed):
    protocol = DFSSpanningTree()
    scheduler = Scheduler(small_random, protocol, daemon=DistributedDaemon(), seed=seed)
    result = scheduler.run_until_legitimate(max_steps=60_000)
    assert result.converged
    parents = protocol.parents(small_random, result.configuration)
    assert parents == dfs_tree_parents(small_random)


def test_dfs_tree_protocol_from_clean_state(figure_network):
    protocol = DFSSpanningTree()
    scheduler = Scheduler(
        figure_network,
        protocol,
        daemon=CentralDaemon("round_robin"),
        configuration=protocol.initial_configuration(figure_network),
        seed=2,
    )
    result = scheduler.run_until_legitimate(max_steps=10_000)
    assert result.converged
    assert result.configuration.get(3, VAR_DFS_PARENT) == 2


def test_dfs_tree_exposes_token_layer_and_reference(small_ring):
    protocol = DFSSpanningTree()
    assert protocol.token_layer.name == "dftc"
    assert protocol.reference_parents(small_ring) == dfs_tree_parents(small_ring)
    assert protocol.parent_variable == VAR_DFS_PARENT
    assert len(protocol.layers()) == 2


def test_dfs_tree_variables_include_token_and_parent(small_ring):
    protocol = DFSSpanningTree()
    names = set(protocol.variable_names(small_ring, 1))
    assert VAR_DFS_PARENT in names
    assert "tc_st" in names
