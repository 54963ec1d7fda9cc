"""Scenario-driven corruption fuzz of the spanning-tree substrates.

PR 2's deadlock hunt covered the token-circulation substrate (and found a
real wave deadlock: corrupted child pointers aiming back into the active
stack).  This module applies the same pressure to the BFS/DFS spanning-tree
layer, standalone and under the full STNO stack:

* uniform corruption bursts drawn by hypothesis,
* *targeted* corruption that rewires parent pointers to arbitrary neighbors
  (forming cycles -- the locally-undetectable shape analogous to the token
  bug) and falsifies BFS distances,
* library scenarios (corruption + crash + link dynamics) driven through the
  :class:`~repro.scenarios.runner.ScenarioRunner` against the bare substrate.

PR 4 extends the hunt to the two auxiliary substrates that never had one:
the PIF wave (tree networks; total bursts plus topology-preserving library
scenarios) and Dijkstra's K-state token ring (cycles; bursts under the
serial daemons the protocol is proved for, plus a no-deadlock check under
every daemon -- the ring always holds at least one privilege, so
termination is unconditionally a bug there).

The invariant everywhere: the protocol must *recover* within the standard
budget, and in particular must never **deadlock** -- terminate (no enabled
action) while the legitimacy predicate is false.  A budget overrun would be
flakiness; a deadlock is a protocol bug, which is why the assertions report
the two outcomes separately.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.stno import build_stno
from repro.graphs import generators
from repro.runtime.daemon import make_daemon
from repro.runtime.faults import corrupt_configuration
from repro.runtime.scheduler import Scheduler
from repro.scenarios.library import build_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.substrates.pif import PIFWave
from repro.substrates.spanning_tree import (
    BFSSpanningTree,
    DFSSpanningTree,
    VAR_BFS_DIST,
    VAR_BFS_PARENT,
    VAR_DFS_PARENT,
)

FUZZ_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

FAMILIES = ("ring", "random_connected", "random_tree", "complete")
DAEMONS = ("central", "distributed", "synchronous", "adversarial")


def _budget(network) -> int:
    return 500 * (network.n + network.num_edges()) + 3_000


def _recover(scheduler: Scheduler, context: str) -> None:
    result = scheduler.run_until_legitimate(
        max_steps=scheduler.steps_executed + _budget(scheduler.network)
    )
    assert not (result.terminated and not result.converged), (
        f"DEADLOCK (terminated while illegitimate) {context}"
    )
    assert result.converged, f"did not recover within budget {context}"


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    family=st.sampled_from(FAMILIES),
    n=st.integers(min_value=3, max_value=9),
    daemon=st.sampled_from(DAEMONS),
    node_fraction=st.sampled_from((0.3, 0.5, 1.0)),
)
@settings(**FUZZ_SETTINGS)
def test_spanning_tree_substrates_recover_from_corruption_bursts(
    seed, family, n, daemon, node_fraction
):
    """Uniform bursts on the bare BFS/DFS tree substrates never deadlock."""
    network = generators.family(family, n, seed=seed)
    protocol = BFSSpanningTree() if seed % 2 == 0 else DFSSpanningTree()
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=seed)
    context = f"({protocol.name} on {network.name}, daemon={daemon}, seed={seed})"
    _recover(scheduler, "initially " + context)
    rng = random.Random(seed + 1)
    corrupted = corrupt_configuration(
        scheduler.configuration,
        protocol,
        network,
        node_fraction=node_fraction,
        variable_fraction=1.0,
        rng=rng,
    )
    scheduler.set_configuration(corrupted)
    _recover(scheduler, f"after a {node_fraction:.0%} burst " + context)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    family=st.sampled_from(FAMILIES),
    n=st.integers(min_value=4, max_value=8),
    daemon=st.sampled_from(DAEMONS),
    tree=st.sampled_from(("bfs", "dfs")),
)
@settings(**FUZZ_SETTINGS)
def test_stno_recovers_from_cycle_forming_parent_corruption(
    seed, family, n, daemon, tree
):
    """Targeted tree-pointer corruption under the full STNO stack.

    Every non-root parent pointer is rewired to an *arbitrary* neighbor --
    which routinely forms parent cycles, the locally-undetectable corruption
    shape that deadlocked the token layer in PR 2 -- and BFS distances are
    falsified.  The stack must dissolve the cycles and re-stabilize.
    """
    network = generators.family(family, n, seed=seed)
    protocol = build_stno(tree=tree)
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=seed)
    context = f"(stno-{tree} on {network.name}, daemon={daemon}, seed={seed})"
    _recover(scheduler, "initially " + context)

    rng = random.Random(seed + 2)
    parent_variable = VAR_BFS_PARENT if tree == "bfs" else VAR_DFS_PARENT
    configuration = scheduler.configuration.copy()
    for node in network.nodes():
        if node == network.root:
            continue
        configuration.set(node, parent_variable, rng.choice(list(network.neighbors(node))))
        if tree == "bfs":
            configuration.set(node, VAR_BFS_DIST, rng.randrange(0, network.n))
    scheduler.set_configuration(configuration)
    _recover(scheduler, "after cycle-forming parent corruption " + context)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scenario_name=st.sampled_from(("single_burst", "periodic_burst", "churn")),
    tree=st.sampled_from(("bfs", "dfs")),
)
@settings(**FUZZ_SETTINGS)
def test_scenarios_against_bare_tree_substrate_never_deadlock(
    seed, scenario_name, tree
):
    """Library scenarios drive the bare substrate through the ScenarioRunner.

    Corruption, crash/rejoin and link dynamics applied directly to the
    spanning-tree protocols (no orientation variables, so disturbance is
    measured over every substrate variable); every applied event must recover
    and none may deadlock.
    """
    network = generators.random_connected(7, extra_edge_probability=0.3, seed=seed)
    protocol = BFSSpanningTree() if tree == "bfs" else DFSSpanningTree()
    report = ScenarioRunner(
        network,
        protocol,
        build_scenario(scenario_name),
        daemon=make_daemon("distributed"),
        seed=seed,
    ).run()
    assert report.initial_converged
    deadlocked = [event.as_row() for event in report.events if event.deadlocked]
    assert not deadlocked, f"substrate deadlocked: {deadlocked}"
    unrecovered = [event.as_row() for event in report.applied_events if not event.recovered]
    assert not unrecovered, f"substrate failed to recover: {unrecovered}"


# ----------------------------------------------------------------------
# PIF waves (tree networks)
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=9),
    daemon=st.sampled_from(DAEMONS),
    node_fraction=st.sampled_from((0.3, 0.5, 1.0)),
)
@settings(**FUZZ_SETTINGS)
def test_pif_recovers_from_corruption_bursts(seed, n, daemon, node_fraction):
    """Uniform phase corruption on the PIF wave never deadlocks a tree."""
    network = generators.random_tree(n, seed=seed)
    protocol = PIFWave()
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=seed)
    context = f"(pif on {network.name}, daemon={daemon}, seed={seed})"
    _recover(scheduler, "initially " + context)
    corrupted = corrupt_configuration(
        scheduler.configuration,
        protocol,
        network,
        node_fraction=node_fraction,
        variable_fraction=1.0,
        rng=random.Random(seed + 1),
    )
    scheduler.set_configuration(corrupted)
    _recover(scheduler, f"after a {node_fraction:.0%} burst " + context)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scenario_name=st.sampled_from(("single_burst", "periodic_burst", "cascade")),
)
@settings(**FUZZ_SETTINGS)
def test_scenarios_against_bare_pif_never_deadlock(seed, scenario_name):
    """Topology-preserving library scenarios against the bare PIF wave.

    Link-changing scenarios are excluded by construction: PIF is only
    defined on trees, and the model's connectivity-preserving link changes
    (adding an edge, or removing the non-bridge it just added) cannot keep a
    tree a tree.
    """
    network = generators.random_tree(7, seed=seed)
    report = ScenarioRunner(
        network,
        PIFWave(),
        build_scenario(scenario_name),
        daemon=make_daemon("distributed"),
        seed=seed,
    ).run()
    assert report.initial_converged
    deadlocked = [event.as_row() for event in report.events if event.deadlocked]
    assert not deadlocked, f"PIF deadlocked: {deadlocked}"
    unrecovered = [event.as_row() for event in report.applied_events if not event.recovered]
    assert not unrecovered, f"PIF failed to recover: {unrecovered}"


# ----------------------------------------------------------------------
# Dijkstra's K-state token ring (cycle networks)
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=9),
    daemon=st.sampled_from(("central", "adversarial")),
    node_fraction=st.sampled_from((0.3, 0.5, 1.0)),
)
@settings(**FUZZ_SETTINGS)
def test_dijkstra_ring_recovers_from_counter_corruption(seed, n, daemon, node_fraction):
    """Counter bursts under the serial daemons the K-state proof covers."""
    network = generators.ring(n)
    protocol = DijkstraTokenRing()
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=seed)
    context = f"(dijkstra-ring n={n}, daemon={daemon}, seed={seed})"
    _recover(scheduler, "initially " + context)
    corrupted = corrupt_configuration(
        scheduler.configuration,
        protocol,
        network,
        node_fraction=node_fraction,
        variable_fraction=1.0,
        rng=random.Random(seed + 1),
    )
    scheduler.set_configuration(corrupted)
    _recover(scheduler, f"after a {node_fraction:.0%} burst " + context)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=8),
    daemon=st.sampled_from(DAEMONS),
)
@settings(**FUZZ_SETTINGS)
def test_dijkstra_ring_never_terminates_under_any_daemon(seed, n, daemon):
    """At least one processor is privileged in *every* K-state configuration,
    so termination (even transiently, even under non-serial daemons whose
    convergence is not claimed) is unconditionally a protocol bug."""
    network = generators.ring(n)
    protocol = DijkstraTokenRing()
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=seed)
    corrupted = corrupt_configuration(
        scheduler.configuration,
        protocol,
        network,
        node_fraction=1.0,
        variable_fraction=1.0,
        rng=random.Random(seed + 1),
    )
    scheduler.set_configuration(corrupted)
    for _ in range(200):
        assert scheduler.step() is not None, (
            f"dijkstra-ring terminated (n={n}, daemon={daemon}, seed={seed})"
        )
