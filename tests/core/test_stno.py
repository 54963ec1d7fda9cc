"""Tests for STNO: network orientation using a spanning tree."""

from __future__ import annotations

import pytest

from repro.core.specification import VAR_EDGE_LABELS, VAR_NAME, OrientationSpecification
from repro.core.stno import STNO, VAR_START, VAR_WEIGHT, build_stno
from repro.graphs import generators
from repro.runtime.composition import LayeredProtocol
from repro.runtime.daemon import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedDaemon,
    SynchronousDaemon,
)
from repro.runtime.scheduler import Scheduler
from repro.substrates.spanning_tree import BFSSpanningTree, DFSSpanningTree, dfs_tree_parents
from repro.substrates.token_circulation import dfs_preorder
from tests.conftest import topologies_for_sweeps


def stabilize(network, tree="bfs", seed=0, daemon=None, max_steps=120_000):
    protocol = build_stno(tree=tree)
    scheduler = Scheduler(network, protocol, daemon=daemon or DistributedDaemon(), seed=seed)
    result = scheduler.run_until_legitimate(max_steps=max_steps)
    assert result.converged, f"STNO[{tree}] did not stabilize on {network.name}"
    return protocol, result


# ----------------------------------------------------------------------
# Construction and structure
# ----------------------------------------------------------------------
def test_build_stno_with_bfs_and_dfs_trees():
    bfs = build_stno(tree="bfs")
    dfs = build_stno(tree="dfs")
    assert isinstance(bfs, LayeredProtocol)
    assert bfs.name == "stno[bfstree]"
    assert dfs.name == "stno[dfstree]"
    assert isinstance(build_stno(tree=BFSSpanningTree()), LayeredProtocol)


def test_build_stno_rejects_unknown_tree():
    with pytest.raises(ValueError):
        build_stno(tree="mst")


def test_overlay_declares_orientation_variables(small_random):
    overlay = STNO()
    assert set(overlay.variable_names(small_random, 0)) == {
        VAR_NAME,
        VAR_WEIGHT,
        VAR_START,
        VAR_EDGE_LABELS,
    }


def test_modulus_defaults_to_network_size(small_random):
    assert STNO().modulus(small_random) == small_random.n
    assert STNO(modulus=99).modulus(small_random) == 99


def test_expected_names_on_figure_tree(figure_tree):
    overlay = STNO(tree=BFSSpanningTree())
    names = overlay.expected_names(figure_tree)
    assert names == {0: 0, 1: 1, 2: 4, 3: 2, 4: 3}


def test_expected_names_requires_parent_map_for_unknown_tree(figure_tree):
    class Opaque(BFSSpanningTree):
        pass

    overlay = STNO(tree=Opaque())
    # Subclasses of the known substrates still work...
    assert overlay.expected_names(figure_tree)


def test_subtree_weights_reference(figure_tree):
    overlay = STNO()
    parents = {0: None, 1: 0, 2: 0, 3: 1, 4: 1}
    weights = overlay.subtree_weights(figure_tree, parents)
    assert weights == {0: 5, 1: 3, 2: 1, 3: 1, 4: 1}


# ----------------------------------------------------------------------
# Stabilized behaviour on the BFS tree
# ----------------------------------------------------------------------
def test_figure_tree_weights_and_names(figure_tree):
    protocol, result = stabilize(figure_tree, seed=1)
    weights = {node: result.configuration.get(node, VAR_WEIGHT) for node in figure_tree.nodes()}
    names = {node: result.configuration.get(node, VAR_NAME) for node in figure_tree.nodes()}
    assert weights == {0: 5, 1: 3, 2: 1, 3: 1, 4: 1}
    assert names == {0: 0, 1: 1, 2: 4, 3: 2, 4: 3}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stabilizes_to_valid_orientation(small_random, seed):
    protocol, result = stabilize(small_random, seed=seed)
    assert OrientationSpecification().holds(small_random, result.configuration)


def test_names_are_tree_preorder(small_random):
    protocol, result = stabilize(small_random, seed=3)
    overlay = next(layer for layer in protocol.layers() if layer.name == "stno")
    expected = overlay.expected_names(small_random)
    names = {node: result.configuration.get(node, VAR_NAME) for node in small_random.nodes()}
    assert names == expected


def test_non_tree_edges_are_labeled(small_random):
    # The network has more edges than a tree; every one of them must be labeled.
    assert small_random.num_edges() > small_random.n - 1
    protocol, result = stabilize(small_random, seed=4)
    for node in small_random.nodes():
        labels = result.configuration.get(node, VAR_EDGE_LABELS)
        assert set(labels) >= set(small_random.neighbors(node))


def test_root_weight_is_network_size(small_random):
    protocol, result = stabilize(small_random, seed=5)
    assert result.configuration.get(small_random.root, VAR_WEIGHT) == small_random.n


def test_stno_is_silent_after_stabilization(small_random):
    protocol = build_stno(tree="bfs")
    scheduler = Scheduler(small_random, protocol, daemon=DistributedDaemon(), seed=6)
    result = scheduler.run_until_legitimate(max_steps=120_000, confirm_steps=120_000)
    # The BFS tree and the orientation layer are both silent, so the composed
    # protocol terminates -- and the terminal configuration is legitimate.
    assert result.terminated
    assert protocol.legitimate(small_random, result.configuration)


@pytest.mark.parametrize(
    "network",
    [t for t in topologies_for_sweeps() if t.n <= 10],
    ids=lambda n: n.name,
)
def test_stabilizes_on_topology_families(network):
    protocol, result = stabilize(network, seed=7)
    assert OrientationSpecification().holds(network, result.configuration)


@pytest.mark.parametrize(
    "daemon",
    [CentralDaemon("random"), CentralDaemon("round_robin"), SynchronousDaemon(),
     DistributedDaemon(0.4), AdversarialDaemon(fairness_bound=6)],
    ids=lambda d: d.name,
)
def test_stabilizes_under_every_daemon(small_tree, daemon):
    protocol, result = stabilize(small_tree, seed=8, daemon=daemon)
    assert OrientationSpecification().holds(small_tree, result.configuration)


def test_explicit_modulus(small_tree):
    protocol = build_stno(tree="bfs", modulus=40)
    scheduler = Scheduler(small_tree, protocol, seed=9)
    result = scheduler.run_until_legitimate(max_steps=120_000)
    assert result.converged
    assert OrientationSpecification(modulus=40).holds(small_tree, result.configuration)


def test_start_table_assigns_disjoint_intervals(small_random):
    protocol, result = stabilize(small_random, seed=10)
    overlay = next(layer for layer in protocol.layers() if layer.name == "stno")
    tree = overlay.tree_layer
    children = tree.children_map(small_random, result.configuration)
    for node in small_random.nodes():
        starts = result.configuration.get(node, VAR_START)
        kids = children[node]
        intervals = []
        for child in kids:
            weight = result.configuration.get(child, VAR_WEIGHT)
            intervals.append(range(starts[child], starts[child] + weight))
        flattened = [value for interval in intervals for value in interval]
        assert len(flattened) == len(set(flattened)), "child intervals overlap"


# ----------------------------------------------------------------------
# STNO over the DFS tree (the Chapter 5 observation)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
def test_stno_on_dfs_tree_names_like_dftno(small_random, seed):
    protocol, result = stabilize(small_random, tree="dfs", seed=seed)
    expected = {node: index for index, node in enumerate(dfs_preorder(small_random))}
    names = {node: result.configuration.get(node, VAR_NAME) for node in small_random.nodes()}
    assert names == expected


def test_stno_on_dfs_tree_uses_token_parents(figure_network):
    protocol, result = stabilize(figure_network, tree="dfs", seed=2)
    tree = next(layer for layer in protocol.layers() if layer.name == "dfstree-overlay")
    del tree  # structural presence is enough; parents are checked via DFSSpanningTree
    stno_layer = next(layer for layer in protocol.layers() if layer.name == "stno")
    assert isinstance(stno_layer.tree_layer, DFSSpanningTree)
    parents = stno_layer.tree_layer.parents(figure_network, result.configuration)
    assert parents == dfs_tree_parents(figure_network)
