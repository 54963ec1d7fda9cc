"""Tests for DFTNO: network orientation using depth-first token circulation."""

from __future__ import annotations

import pytest

from repro.core.dftno import DFTNO, VAR_MAX, build_dftno
from repro.core.specification import VAR_EDGE_LABELS, VAR_NAME, OrientationSpecification
from repro.graphs import generators
from repro.runtime.composition import HookedComposition
from repro.runtime.daemon import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedDaemon,
    SynchronousDaemon,
)
from repro.runtime.scheduler import Scheduler
from repro.substrates.token_circulation import DepthFirstTokenCirculation, dfs_preorder
from tests.conftest import topologies_for_sweeps


def stabilize(network, seed=0, daemon=None, max_steps=120_000):
    protocol = build_dftno()
    scheduler = Scheduler(network, protocol, daemon=daemon or DistributedDaemon(), seed=seed)
    result = scheduler.run_until_legitimate(max_steps=max_steps)
    assert result.converged, f"DFTNO did not stabilize on {network.name}"
    return protocol, result


# ----------------------------------------------------------------------
# Construction and structure
# ----------------------------------------------------------------------
def test_build_dftno_composes_token_and_overlay():
    protocol = build_dftno()
    assert isinstance(protocol, HookedComposition)
    assert isinstance(protocol.base, DepthFirstTokenCirculation)
    assert isinstance(protocol.overlay, DFTNO)
    assert [layer.name for layer in protocol.layers()] == ["dftc", "dftno"]


def test_overlay_declares_orientation_variables(small_random):
    overlay = DFTNO()
    names = set(overlay.variable_names(small_random, 0))
    assert names == {VAR_NAME, VAR_MAX, VAR_EDGE_LABELS}


def test_overlay_hooks_target_existing_token_actions(small_random):
    protocol = build_dftno()
    protocol.validate(small_random)  # would raise if a hook targeted a missing action
    root_hooks = set(protocol.overlay.hooks(small_random, small_random.root))
    assert DepthFirstTokenCirculation.ACTION_ROOT_START in root_hooks
    other_hooks = set(protocol.overlay.hooks(small_random, 1))
    assert DepthFirstTokenCirculation.ACTION_FORWARD in other_hooks


def test_modulus_defaults_to_network_size(small_random):
    overlay = DFTNO()
    assert overlay.modulus(small_random) == small_random.n
    assert DFTNO(modulus=64).modulus(small_random) == 64


def test_expected_names_are_dfs_preorder(figure_network):
    overlay = DFTNO()
    assert overlay.expected_names(figure_network) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_space_bits_are_delta_log_n_shaped():
    overlay = DFTNO()
    star = generators.star(16)
    ring = generators.ring(16)
    hub_bits = overlay.space_bits(star, 0)
    leaf_bits = overlay.space_bits(star, 1)
    ring_bits = overlay.space_bits(ring, 0)
    assert hub_bits > leaf_bits            # grows with the degree
    assert hub_bits > ring_bits            # the hub has the largest degree
    bigger = overlay.space_bits(generators.ring(64), 0)
    assert bigger > ring_bits              # grows with log N


# ----------------------------------------------------------------------
# Stabilized behaviour
# ----------------------------------------------------------------------
def test_stabilizes_on_figure_network_to_figure_names(figure_network):
    protocol, result = stabilize(figure_network, seed=1)
    names = {node: result.configuration.get(node, VAR_NAME) for node in figure_network.nodes()}
    assert names == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_names_converge_to_dfs_preorder(small_random, seed):
    protocol, result = stabilize(small_random, seed=seed)
    expected = {node: index for index, node in enumerate(dfs_preorder(small_random))}
    names = {node: result.configuration.get(node, VAR_NAME) for node in small_random.nodes()}
    assert names == expected


def test_edge_labels_satisfy_sp2(small_random):
    protocol, result = stabilize(small_random, seed=3)
    spec = OrientationSpecification()
    report = spec.check(small_random, result.configuration)
    assert report.holds


def test_orientation_is_chordal_and_locally_unique(small_random):
    protocol, result = stabilize(small_random, seed=4)
    orientation = OrientationSpecification().extract(small_random, result.configuration)
    orientation.require_valid(small_random)
    for node in small_random.nodes():
        labels = list(orientation.edge_labels[node].values())
        assert len(labels) == len(set(labels))


@pytest.mark.parametrize(
    "network",
    [t for t in topologies_for_sweeps() if t.n <= 10],
    ids=lambda n: n.name,
)
def test_stabilizes_on_topology_families(network):
    protocol, result = stabilize(network, seed=5)
    spec = OrientationSpecification()
    assert spec.holds(network, result.configuration)


@pytest.mark.parametrize(
    "daemon",
    [CentralDaemon("random"), CentralDaemon("round_robin"), SynchronousDaemon(),
     DistributedDaemon(0.4), AdversarialDaemon(fairness_bound=6)],
    ids=lambda d: d.name,
)
def test_stabilizes_under_every_daemon(small_ring, daemon):
    protocol, result = stabilize(small_ring, seed=6, daemon=daemon)
    assert OrientationSpecification().holds(small_ring, result.configuration)


def test_closure_names_stay_fixed_after_stabilization(small_random):
    protocol = build_dftno()
    scheduler = Scheduler(small_random, protocol, daemon=DistributedDaemon(), seed=7)
    result = scheduler.run_until_legitimate(max_steps=120_000)
    assert result.converged
    names_before = {node: scheduler.configuration.get(node, VAR_NAME) for node in small_random.nodes()}
    spec = OrientationSpecification()
    # Let the token keep circulating for several more waves.
    for _ in range(40 * small_random.n):
        scheduler.step()
    names_after = {node: scheduler.configuration.get(node, VAR_NAME) for node in small_random.nodes()}
    assert names_before == names_after
    assert spec.holds(small_random, scheduler.configuration)


def test_max_counter_reaches_n_minus_one_at_root(small_random):
    protocol = build_dftno()
    scheduler = Scheduler(small_random, protocol, daemon=CentralDaemon("round_robin"), seed=8)
    result = scheduler.run_until_legitimate(max_steps=120_000)
    assert result.converged
    # At the end of every wave the root's counter has adopted the maximum
    # assigned name; sample the executions of the next few waves to catch it.
    seen_max = set()
    for _ in range(40 * small_random.n):
        scheduler.step()
        seen_max.add(scheduler.configuration.get(small_random.root, VAR_MAX))
    assert small_random.n - 1 in seen_max


def test_explicit_modulus_still_produces_unique_names(small_ring):
    protocol = build_dftno(modulus=32)
    scheduler = Scheduler(small_ring, protocol, daemon=DistributedDaemon(), seed=9)
    result = scheduler.run_until_legitimate(max_steps=120_000)
    assert result.converged
    spec = OrientationSpecification(modulus=32)
    assert spec.holds(small_ring, result.configuration)


def test_edge_label_action_disabled_while_holding_token(figure_network):
    protocol = build_dftno()
    overlay = protocol.overlay
    config = protocol.initial_configuration(figure_network)
    # Make the root hold the token and give it a wrong edge label.
    from repro.substrates import token_circulation as tc
    from repro.runtime.processor import ProcessorView

    config.set(0, tc.VAR_STATE, "active")
    labels = config.get(0, VAR_EDGE_LABELS)
    labels[1] = 3
    config.set(0, VAR_EDGE_LABELS, labels)
    view = ProcessorView(0, figure_network, config)
    edge_action = overlay.actions(figure_network, 0)[0]
    assert not edge_action.guard(view)
    # Once the root no longer holds the token the repair rule fires.
    config.set(0, tc.VAR_STATE, "wait")
    view = ProcessorView(0, figure_network, config)
    assert edge_action.guard(view)


def test_single_processor_network():
    network = generators.path(1)
    protocol, result = stabilize(network, seed=10, max_steps=5_000)
    assert result.configuration.get(0, VAR_NAME) == 0
