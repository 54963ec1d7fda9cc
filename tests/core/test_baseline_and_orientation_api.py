"""Tests for the centralized baseline and the high-level orientation API."""

from __future__ import annotations

import pytest

from repro.core.baseline import centralized_orientation
from repro.core.orientation import (
    OrientationResult,
    extract_orientation,
    orient_with_dftno,
    orient_with_stno,
)
from repro.errors import ConvergenceError, SpecificationError
from repro.graphs import generators
from repro.runtime.daemon import CentralDaemon, SynchronousDaemon
from repro.substrates.spanning_tree import BFSSpanningTree
from repro.substrates.token_circulation import dfs_preorder


# ----------------------------------------------------------------------
# Centralized baseline
# ----------------------------------------------------------------------
def test_centralized_dfs_orientation_matches_preorder(small_random):
    orientation = centralized_orientation(small_random, order="dfs")
    expected = {node: index for index, node in enumerate(dfs_preorder(small_random))}
    assert orientation.names == expected
    assert orientation.is_valid(small_random)


def test_centralized_bfs_orientation_is_valid(small_random):
    orientation = centralized_orientation(small_random, order="bfs")
    assert orientation.is_valid(small_random)
    assert orientation.names[small_random.root] == 0


def test_centralized_orientation_rejects_unknown_order(small_ring):
    with pytest.raises(SpecificationError):
        centralized_orientation(small_ring, order="random")


def test_centralized_orientation_with_custom_modulus(small_ring):
    orientation = centralized_orientation(small_ring, modulus=31)
    assert orientation.modulus == 31
    assert orientation.is_valid(small_ring)


def test_centralized_bfs_and_dfs_agree_on_paths():
    path = generators.path(6)
    assert centralized_orientation(path, "dfs").names == centralized_orientation(path, "bfs").names


# ----------------------------------------------------------------------
# High-level API
# ----------------------------------------------------------------------
def test_orient_with_dftno_returns_valid_result(small_random):
    result = orient_with_dftno(small_random, seed=1)
    assert isinstance(result, OrientationResult)
    assert result.orientation.is_valid(small_random)
    assert result.stabilization_steps is not None
    assert result.stabilization_rounds is not None
    assert result.network is small_random
    assert result.protocol.name == "dftno"


def test_orient_with_dftno_matches_centralized_baseline(small_random):
    result = orient_with_dftno(small_random, seed=2)
    baseline = centralized_orientation(small_random, order="dfs")
    assert result.orientation.names == baseline.names
    assert result.orientation.edge_labels == baseline.edge_labels


def test_orient_with_stno_bfs_and_dfs(small_random):
    bfs_result = orient_with_stno(small_random, tree="bfs", seed=3)
    dfs_result = orient_with_stno(small_random, tree="dfs", seed=4)
    assert bfs_result.orientation.is_valid(small_random)
    assert dfs_result.orientation.is_valid(small_random)
    # The DFS-tree variant reproduces DFTNO's names (Chapter 5 observation).
    assert dfs_result.orientation.names == centralized_orientation(small_random, "dfs").names


def test_orient_with_stno_accepts_protocol_instance(small_tree):
    result = orient_with_stno(small_tree, tree=BFSSpanningTree(), seed=5)
    assert result.orientation.is_valid(small_tree)


def test_orient_from_clean_state(small_ring):
    result = orient_with_dftno(small_ring, seed=6, from_arbitrary_state=False)
    assert result.orientation.is_valid(small_ring)


def test_orient_with_explicit_daemon_and_confirm_steps(small_ring):
    result = orient_with_stno(
        small_ring, seed=7, daemon=SynchronousDaemon(), confirm_steps=20
    )
    assert result.orientation.is_valid(small_ring)


def test_orient_raises_convergence_error_on_tiny_budget(small_random):
    with pytest.raises(ConvergenceError):
        orient_with_dftno(small_random, seed=9, max_steps=3)


def test_orient_with_modulus(small_ring):
    result = orient_with_dftno(small_ring, seed=10, modulus=29)
    assert result.orientation.modulus == 29
    assert result.orientation.is_valid(small_ring)


def test_extract_orientation_reads_configuration(small_ring):
    result = orient_with_dftno(small_ring, seed=11)
    extracted = extract_orientation(small_ring, result.run.configuration)
    assert extracted.names == result.orientation.names


def test_orientation_results_expose_run_statistics(small_ring):
    result = orient_with_stno(small_ring, seed=12, daemon=CentralDaemon("round_robin"))
    assert result.run.steps >= result.stabilization_steps
    assert result.run.moves > 0
    assert result.run.rounds >= 1
