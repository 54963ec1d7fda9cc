"""Unit tests for the scheduler's maintained enabled-set machinery.

The equivalence suite (``tests/api/test_engine_equivalence.py``) proves the
scheduler and the reference interpreter produce identical executions end to end;
these tests pin down the mechanisms that make that true: the configuration
change journal, the dirty-frontier refresh after every mutation path, and
the debug-mode guard read tracker.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.graphs import generators
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import make_daemon
from repro.runtime import reference
from repro.runtime.processor import ProcessorView, TrackingProcessorView
from repro.runtime.scheduler import Scheduler
from repro.substrates.dijkstra_ring import DijkstraTokenRing, VAR_COUNTER
from repro.substrates.spanning_tree import BFSSpanningTree


# ----------------------------------------------------------------------
# Configuration change journal
# ----------------------------------------------------------------------
def test_journal_marks_only_real_changes():
    config = Configuration({0: {"x": 1}, 1: {"x": 2}})
    config.drain_dirty()
    config.set(0, "x", 1)  # same value: no change
    assert config.drain_dirty() == {}
    config.set(0, "x", 5)
    assert config.apply_writes(1, {"x": 2}) == {}  # same value: no change
    assert config.drain_dirty() == {0: ("x",)}
    assert config.drain_dirty() == {}


def test_apply_writes_reports_changes_and_journals_slot_creation():
    config = Configuration({0: {"x": 1}})
    config.drain_dirty()
    changes = config.apply_writes(0, {"x": 2, "y": 7})
    assert changes == {"x": (1, 2), "y": (None, 7)}
    assert config.drain_dirty() == {0: ("x", "y")}
    # Creating a slot holding None is invisible to MoveRecord changes
    # (historical semantics) but still journals the node for guard refresh.
    changes = config.apply_writes(0, {"z": None})
    assert changes == {}
    assert config.drain_dirty() == {0: ("z",)}


def test_replace_node_journals_only_on_difference():
    config = Configuration({0: {"x": 1}})
    config.drain_dirty()
    config.replace_node(0, {"x": 1})
    assert config.drain_dirty() == {}
    config.replace_node(0, {"y": 3})
    assert config.drain_dirty() == {0: None}


def test_copies_start_with_a_clean_journal():
    config = Configuration({0: {"x": 1}})
    config.set(0, "x", 9)
    assert config.copy().drain_dirty() == {}
    assert config.drain_dirty() == {0: ("x",)}


def test_replace_node_journals_every_given_node_as_a_whole_state_change():
    config = Configuration({0: {"x": 1}, 1: {"x": 1}})
    config.replace_node(0, {"x": 2})
    config.replace_node(1, {"x": 1, "y": 0})
    assert config.drain_dirty() == {0: None, 1: None}


# ----------------------------------------------------------------------
# Scheduler dirty-frontier refresh
# ----------------------------------------------------------------------
def _assert_enabled_matches_direct_evaluation(scheduler: Scheduler) -> None:
    """The cached enabled-set must equal a fresh per-node guard evaluation."""
    cached = scheduler.enabled_nodes()
    direct = reference.enabled(
        scheduler.network, scheduler.protocol, scheduler.configuration, scheduler.frozen_nodes
    )
    assert cached == tuple(direct)
    assert all(scheduler.is_enabled(node) == (node in direct) for node in scheduler.network.nodes())


def test_external_replace_node_feeds_the_dirty_frontier():
    """The CrashRejoin path: a direct configuration write refreshes the cache."""
    network = generators.ring(6)
    scheduler = Scheduler(network, DijkstraTokenRing(), seed=1)
    scheduler.enabled_nodes()  # populate the cache
    victim = 3
    scheduler.configuration.replace_node(victim, {VAR_COUNTER: 0})
    scheduler.configuration.replace_node(victim, {VAR_COUNTER: 5})
    _assert_enabled_matches_direct_evaluation(scheduler)


def test_freeze_and_unfreeze_filter_without_stale_state():
    network = generators.random_connected(7, seed=2)
    scheduler = Scheduler(network, BFSSpanningTree(), seed=2)
    enabled_before = scheduler.enabled_nodes()
    assert enabled_before
    frozen = enabled_before[0]
    scheduler.freeze((frozen,))
    assert frozen not in scheduler.enabled_nodes()
    _assert_enabled_matches_direct_evaluation(scheduler)
    scheduler.unfreeze((frozen,))
    assert scheduler.enabled_nodes() == enabled_before


def test_set_configuration_invalidates_the_whole_cache():
    network = generators.random_connected(6, seed=3)
    scheduler = Scheduler(network, BFSSpanningTree(), seed=3)
    scheduler.run_until_legitimate()
    replacement = scheduler.protocol.random_configuration(
        network, rng=__import__("random").Random(99)
    )
    scheduler.set_configuration(replacement)
    _assert_enabled_matches_direct_evaluation(scheduler)


def test_set_daemon_keeps_the_enabled_set():
    network = generators.random_connected(6, seed=4)
    scheduler = Scheduler(network, BFSSpanningTree(), seed=4)
    before = scheduler.enabled_nodes()
    scheduler.set_daemon(make_daemon("adversarial"))
    assert scheduler.enabled_nodes() == before


def test_stepping_keeps_cache_consistent_under_distributed_daemon():
    network = generators.random_connected(8, seed=5)
    scheduler = Scheduler(network, BFSSpanningTree(), daemon=make_daemon("distributed"), seed=5)
    for _ in range(30):
        if scheduler.step() is None:
            break
        _assert_enabled_matches_direct_evaluation(scheduler)


# ----------------------------------------------------------------------
# Guard locality: the invariant the dirty frontier relies on
# ----------------------------------------------------------------------
def test_processor_view_read_tracker_records_closed_neighborhood():
    network = generators.ring(5)
    config = Configuration({node: {"x": node} for node in network.nodes()})
    view = TrackingProcessorView(2, network, config)
    view.read("x")
    for neighbor in network.neighbors(2):
        view.read_neighbor(neighbor, "x")
    assert view.read_nodes == frozenset({2, *network.neighbors(2)})
    untracked = ProcessorView(2, network, config)
    untracked.read("x")
    assert not hasattr(untracked, "read_nodes")  # the release view keeps no log


def test_non_neighbor_reads_are_rejected():
    """The locality invariant is structural: the view refuses remote reads."""
    network = generators.ring(6)
    config = Configuration({node: {"x": 0} for node in network.nodes()})
    view = TrackingProcessorView(0, network, config)
    far = 3  # opposite side of the ring
    with pytest.raises(ProtocolError):
        view.read_neighbor(far, "x")
    with pytest.raises(ProtocolError):
        view.try_read_neighbor(far, "x", default=None)


def test_debug_guard_locality_mode_runs_clean_on_real_protocols():
    network = generators.random_connected(6, seed=6)
    scheduler = Scheduler(
        network, BFSSpanningTree(), seed=6, check_guard_locality=True
    )
    result = scheduler.run_until_legitimate()
    assert result.converged
