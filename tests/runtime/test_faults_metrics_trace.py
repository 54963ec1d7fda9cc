"""Unit tests for fault injection and metrics."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import SynchronousDaemon
from repro.runtime.faults import FaultInjector, corrupt_configuration, random_configuration
from repro.runtime.metrics import (
    ExecutionMetrics,
    space_bits_per_node,
    space_summary,
    theoretical_orientation_bits,
)
from repro.runtime.scheduler import Scheduler
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.core.dftno import build_dftno


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
def test_random_configuration_covers_all_nodes_and_variables(small_ring):
    protocol = DijkstraTokenRing()
    config = random_configuration(protocol, small_ring, seed=3)
    for node in small_ring.nodes():
        assert config.has(node, "dk_x")


def test_corrupt_configuration_full_corruption_changes_something(small_ring):
    protocol = DijkstraTokenRing(k=50)
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(base, protocol, small_ring, seed=1)
    assert corrupted != base
    assert base == protocol.initial_configuration(small_ring)  # original untouched


def test_corrupt_configuration_partial_touches_some_nodes(small_ring):
    protocol = DijkstraTokenRing(k=1000)
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(
        base, protocol, small_ring, node_fraction=0.34, variable_fraction=1.0, seed=2
    )
    touched = [node for node in small_ring.nodes() if corrupted.get(node, "dk_x") != base.get(node, "dk_x")]
    assert 1 <= len(touched) <= 2 + 1  # roughly a third of 6 processors


def test_corrupt_configuration_zero_fraction_is_identity(small_ring):
    protocol = DijkstraTokenRing()
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(base, protocol, small_ring, node_fraction=0.0, seed=3)
    assert corrupted == base


def test_corrupt_configuration_zero_variable_fraction_is_identity(small_ring):
    # Regression: variable_fraction=0.0 must corrupt *zero* variables even at
    # hit processors (a "hit at least one variable" floor only applies to
    # positive fractions).
    protocol = DijkstraTokenRing()
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(
        base, protocol, small_ring, node_fraction=1.0, variable_fraction=0.0, seed=3
    )
    assert corrupted == base


def test_corrupt_configuration_tiny_positive_fractions_hit_at_least_one(small_ring):
    # The other bound: any positive fraction rounds up to one processor /
    # one variable rather than silently down to none.
    protocol = DijkstraTokenRing(k=10_000)
    base = protocol.initial_configuration(small_ring)
    changed = 0
    for seed in range(8):
        corrupted = corrupt_configuration(
            base, protocol, small_ring, node_fraction=0.01, variable_fraction=0.01, seed=seed
        )
        diff = base.diff(corrupted)
        assert len(diff) <= 1
        changed += len(diff)
    assert changed > 0  # with k=10000 a redraw virtually never collides


def test_corrupt_configuration_rejects_bad_fractions(small_ring):
    protocol = DijkstraTokenRing()
    base = protocol.initial_configuration(small_ring)
    with pytest.raises(ValueError):
        corrupt_configuration(base, protocol, small_ring, node_fraction=2.0)
    with pytest.raises(ValueError):
        corrupt_configuration(base, protocol, small_ring, variable_fraction=-0.5)


def test_fault_injector_fires_once_per_scheduled_step(small_ring):
    protocol = DijkstraTokenRing(k=100)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
        seed=4,
    )
    injector = FaultInjector(protocol, small_ring, schedule={0: (1.0, 1.0)}, seed=5)
    assert injector.maybe_inject(scheduler)
    assert not injector.maybe_inject(scheduler)  # same step, already injected
    assert injector.injected_at == [0]


def test_fault_injector_ignores_unscheduled_steps(small_ring):
    protocol = DijkstraTokenRing()
    scheduler = Scheduler(small_ring, protocol, seed=6)
    injector = FaultInjector(protocol, small_ring, schedule={5: (1.0, 1.0)})
    assert not injector.maybe_inject(scheduler)


def test_fault_injector_double_fire_protection_across_a_run(small_ring):
    # Even when maybe_inject is polled many times per step (as a nested
    # experiment loop might), each scheduled burst fires exactly once.
    protocol = DijkstraTokenRing(k=100)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
        seed=4,
    )
    injector = FaultInjector(protocol, small_ring, schedule={0: (1.0, 1.0), 3: (0.5, 1.0)}, seed=5)
    fired = 0
    for _ in range(6):
        for _ in range(3):  # repeated polls at the same step
            fired += injector.maybe_inject(scheduler)
        scheduler.step()
    assert fired == 2
    assert injector.injected_at == [0, 3]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_execution_metrics_record_and_merge():
    a = ExecutionMetrics()
    a.record_move(1, "A", "layer1")
    a.record_move(1, "A", "layer1")
    a.record_move(2, "B", "layer2")
    b = ExecutionMetrics(steps=3, rounds=1)
    b.record_move(1, "B", "layer2")
    a.merge(b)
    assert a.moves == 4
    assert a.moves_per_node == {1: 3, 2: 1}
    assert a.moves_per_action == {"A": 2, "B": 2}
    assert a.moves_per_layer == {"layer1": 2, "layer2": 2}
    assert a.steps == 3 and a.rounds == 1
    as_dict = a.as_dict()
    assert as_dict["moves"] == 4


def test_space_bits_per_node_and_summary(small_ring):
    protocol = build_dftno()
    per_node = space_bits_per_node(protocol, small_ring)
    assert set(per_node) == set(small_ring.nodes())
    assert all(bits > 0 for bits in per_node.values())

    summary = space_summary(protocol, small_ring)
    assert summary["n"] == small_ring.n
    assert summary["max_bits_per_node"] == max(per_node.values())
    assert summary["total_bits"] == sum(per_node.values())
    assert set(summary["per_layer"]) == {"dftc", "dftno"}


def test_theoretical_orientation_bits_shape():
    small = generators.ring(8)
    large = generators.ring(64)
    dense = generators.complete(8)
    assert theoretical_orientation_bits(large) > theoretical_orientation_bits(small)
    assert theoretical_orientation_bits(dense) > theoretical_orientation_bits(small)
