"""One entry point per experiment of DESIGN.md.

Every function regenerates the rows behind one claim or figure of the thesis
and returns them as a list of dictionaries (plus, where meaningful, a summary
dictionary with fitted slopes or aggregate ratios).  The benchmark modules
call these with small parameters and print the tables; EXPERIMENTS.md records
a full run.

The sweep-shaped experiments (EXP-T1, EXP-T2, EXP-R1, EXP-R2, EXP-S1,
EXP-M1) are pure *spec constructors*: they build a declarative
:class:`repro.campaign.Grid` -- whose tasks are
:class:`~repro.api.RunSpec` objects executed through the engine-agnostic
:func:`repro.api.run` entry point -- and delegate execution to the campaign
engine, so they share its hash-derived seeding and can be regenerated -- or
scaled up, parallelized and resumed -- through ``python -m repro.campaign``
with the same parameters.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.reporting import summarize
from repro.analysis.space import space_rows
from repro.api.spec import normalize_protocol
from repro.core.baseline import centralized_orientation
from repro.core.dftno import VAR_MAX, build_dftno
from repro.core.specification import VAR_NAME
from repro.core.stno import VAR_WEIGHT, build_stno
from repro.graphs import generators
from repro.graphs.network import RootedNetwork
from repro.runtime.daemon import make_daemon
from repro.runtime.observers import CallbackObserver
from repro.runtime.scheduler import Scheduler, StepRecord
from repro.sod.election import ring_election_oriented, ring_election_unoriented
from repro.sod.traversal import (
    broadcast_with_sod,
    broadcast_without_sod,
    dfs_traversal_with_sod,
    dfs_traversal_without_sod,
)
from repro.substrates.token_circulation import dfs_preorder


def _campaign():
    # The campaign engine executes sweeps *for* this module but also depends
    # on repro.analysis for its measurement harness; importing it lazily keeps
    # that dependency one-directional at import time.
    from repro.campaign.aggregate import campaign_summary
    from repro.campaign.grid import Grid
    from repro.campaign.runner import run_grid

    return Grid, run_grid, campaign_summary


# ----------------------------------------------------------------------
# EXP-T1: DFTNO stabilizes in O(n) steps after the token layer (Section 3.2.3)
# ----------------------------------------------------------------------
def exp_t1_dftno_stabilization(
    sizes: Sequence[int] = (8, 16, 24, 32, 48, 64),
    family: str = "random_connected",
    trials: int = 3,
    seed: int = 1,
    after_substrate: bool = True,
) -> dict[str, object]:
    """Stabilization of DFTNO versus network size on one topology family.

    Matching Theorem 3.2.3's phrasing, the runs start (by default) from a
    configuration whose token layer is already legitimate while the
    orientation variables are arbitrary.  Returns the per-size rows (mean
    steps/rounds the orientation layer needed) and the linear fit of those
    steps against ``n``, whose high R^2 is the measured counterpart of the
    O(n) theorem.
    """
    Grid, run_grid, campaign_summary = _campaign()
    grid = Grid(
        sizes=tuple(sizes),
        protocols=("dftno",),
        families=(family,),
        trials=trials,
        seed=seed,
        after_substrate=after_substrate,
    )
    result = run_grid(grid)
    return campaign_summary(result.rows, key_name="n", fit_metric="overlay_steps_mean")


# ----------------------------------------------------------------------
# EXP-T2: STNO stabilizes in O(h) rounds after the tree layer (Section 4.2.3)
# ----------------------------------------------------------------------
def exp_t2_stno_stabilization(
    n: int = 40,
    heights: Sequence[int] = (2, 5, 10, 15, 20, 30, 39),
    trials: int = 3,
    seed: int = 2,
    tree: str = "bfs",
    after_substrate: bool = True,
) -> dict[str, object]:
    """Stabilization of STNO versus spanning-tree height at fixed ``n``.

    Matching Theorem 4.2.3's phrasing, the runs start (by default) from a
    configuration whose spanning tree is already constructed while the
    orientation variables are arbitrary, so the reported rounds are exactly
    the O(h) quantity of the theorem.
    """
    Grid, run_grid, campaign_summary = _campaign()
    grid = Grid(
        sizes=(n,),
        protocols=(f"stno-{tree}",),
        heights=tuple(heights),
        trials=trials,
        seed=seed,
        after_substrate=after_substrate,
    )
    result = run_grid(grid)
    return campaign_summary(result.rows, key_name="height", fit_metric="overlay_rounds_mean")


# ----------------------------------------------------------------------
# EXP-T3: space usage against O(Delta * log N) (Sections 3.2.3, 4.2.3, Chapter 5)
# ----------------------------------------------------------------------
def exp_t3_space(sizes: Sequence[int] = (8, 16, 32, 64, 128)) -> dict[str, object]:
    """Measured bits per processor for DFTNO and STNO across topology families.

    The rows show, for each topology, the overlay cost (identical for both
    protocols and following Delta * log N), the substrate cost (O(log N) for
    the token layer versus O(Delta + log N) recorded-children cost for the
    tree layer), and the closed-form bound for comparison.
    """
    networks: list[RootedNetwork] = []
    for size in sizes:
        networks.append(generators.ring(max(size, 3)))
        networks.append(generators.star(size))
        networks.append(generators.complete(min(size, 32)))
        networks.append(generators.random_connected(size, seed=size))
    rows = space_rows(networks)
    return {"rows": rows}


# ----------------------------------------------------------------------
# EXP-F1: the node-labeling walkthrough of Figure 3.1.1
# ----------------------------------------------------------------------
def exp_f1_figure_3_1_1(seed: int = 3) -> dict[str, object]:
    """Replay DFTNO on the exact 5-processor network of Figure 3.1.1.

    Starting from the protocol's clean state (the figure's step (i)), the
    first token wave names the processors in the order the figure shows:
    r=0, b=1, d=2, c=3, a=4.  The returned event list contains, for every
    naming step, the processor, its thesis label, the assigned name and the
    processor's counter value, which together reproduce the figure's
    narrative.
    """
    network = generators.figure_3_1_1_network()
    labels = generators.FIGURE_3_1_1_LABELS
    protocol = build_dftno()
    # Clean token state (the figure's step (i): no processor visited yet), but
    # with the orientation variables deliberately off so that every naming
    # shows up as a change in the step stream.
    configuration = protocol.initial_configuration(network)
    for node in network.nodes():
        configuration.set(node, VAR_NAME, (node + 1) % network.n)
        configuration.set(node, VAR_MAX, network.n - 1)
    records: list[StepRecord] = []
    scheduler = Scheduler(
        network,
        protocol,
        daemon=make_daemon("central", policy="round_robin"),
        configuration=configuration,
        seed=seed,
        observers=(CallbackObserver(on_step=lambda source, record: records.append(record)),),
    )
    scheduler.run_until_legitimate(max_steps=400)

    events: list[dict[str, object]] = []
    for record in records:
        for move in record.moves:
            if VAR_NAME in move.changes:
                _, new_name = move.changes[VAR_NAME]
                max_value = move.changes.get(VAR_MAX, (None, new_name))[1]
                events.append(
                    {
                        "step": record.step,
                        "processor": move.node,
                        "thesis_label": labels[move.node],
                        "assigned_name": new_name,
                        "max_counter": max_value,
                    }
                )
    final_names = {
        labels[node]: scheduler.configuration.get(node, VAR_NAME) for node in network.nodes()
    }
    expected = {"r": 0, "b": 1, "d": 2, "c": 3, "a": 4}
    return {
        "events": events,
        "final_names": final_names,
        "expected_names": expected,
        "matches_figure": final_names == expected,
    }


# ----------------------------------------------------------------------
# EXP-F2: the weight/naming walkthrough of Figure 4.1.1
# ----------------------------------------------------------------------
def exp_f2_figure_4_1_1(seed: int = 4) -> dict[str, object]:
    """Replay STNO on the exact 5-processor tree of Figure 4.1.1.

    The figure computes weights bottom-up (leaves 1, the internal node 3, the
    root 5) and then names top-down (root 0, then each subtree a contiguous
    interval).  The returned rows list, per processor, the measured weight and
    name next to the figure's values.
    """
    network = generators.figure_4_1_1_network()
    protocol = build_stno(tree="bfs")
    scheduler = Scheduler(
        network,
        protocol,
        daemon=make_daemon("central", policy="round_robin"),
        configuration=protocol.random_configuration(network, seed=seed),
        seed=seed,
    )
    scheduler.run_until_legitimate(max_steps=2_000)

    expected_weights = {0: 5, 1: 3, 2: 1, 3: 1, 4: 1}
    expected_names = {0: 0, 1: 1, 2: 4, 3: 2, 4: 3}
    rows = []
    for node in network.nodes():
        rows.append(
            {
                "processor": node,
                "measured_weight": scheduler.configuration.get(node, VAR_WEIGHT),
                "expected_weight": expected_weights[node],
                "measured_name": scheduler.configuration.get(node, VAR_NAME),
                "expected_name": expected_names[node],
            }
        )
    matches = all(
        row["measured_weight"] == row["expected_weight"]
        and row["measured_name"] == row["expected_name"]
        for row in rows
    )
    return {"rows": rows, "matches_figure": matches}


# ----------------------------------------------------------------------
# EXP-F3: chordal sense of direction properties (Figure 2.2.1 / Section 2.2)
# ----------------------------------------------------------------------
def exp_f3_chordal_properties(sizes: Sequence[int] = (5, 8, 13, 21), seed: int = 5) -> dict[str, object]:
    """Validate local orientation and edge symmetry of the produced labelings.

    For the Figure 2.2.1 example network and a spread of topology families,
    the orientation produced by the centralized reference and by DFTNO is
    checked for the two defining properties of a chordal sense of direction.
    """
    networks: list[RootedNetwork] = [generators.figure_2_2_1_network()]
    for size in sizes:
        networks.append(generators.ring(max(size, 3)))
        networks.append(generators.random_connected(size, seed=seed + size))
    rows = []
    for network in networks:
        orientation = centralized_orientation(network)
        violations = orientation.violations(network)
        rows.append(
            {
                "network": network.name,
                "n": network.n,
                "edges": network.num_edges(),
                "locally_oriented": all(
                    len(set(orientation.edge_labels[node].values())) == network.degree(node)
                    for node in network.nodes()
                ),
                "edge_symmetric": not any("edge symmetry" in text for text in violations),
                "valid": orientation.is_valid(network),
            }
        )
    return {"rows": rows, "all_valid": all(row["valid"] for row in rows)}


# ----------------------------------------------------------------------
# EXP-A1: orientation lowers message complexity (Sections 1.3-1.4)
# ----------------------------------------------------------------------
def exp_a1_message_complexity(
    sizes: Sequence[int] = (8, 16, 24, 32),
    extra_edge_probability: float = 0.3,
    seed: int = 6,
) -> dict[str, object]:
    """Messages for traversal, broadcast and election with and without the orientation."""
    rows = []
    for size in sizes:
        network = generators.random_connected(size, extra_edge_probability, seed=seed + size)
        orientation = centralized_orientation(network)
        traversal_plain = dfs_traversal_without_sod(network)
        traversal_sod = dfs_traversal_with_sod(network, orientation)
        broadcast_plain = broadcast_without_sod(network)
        broadcast_sod = broadcast_with_sod(network, orientation)

        ring = generators.ring(size)
        ring_orientation = centralized_orientation(ring)
        election_plain = ring_election_unoriented(ring)
        election_sod = ring_election_oriented(ring, ring_orientation)

        rows.append(
            {
                "n": size,
                "edges": network.num_edges(),
                "traversal_msgs_unoriented": traversal_plain.messages,
                "traversal_msgs_oriented": traversal_sod.messages,
                "broadcast_msgs_unoriented": broadcast_plain.messages,
                "broadcast_msgs_oriented": broadcast_sod.messages,
                "election_msgs_unoriented": election_plain.messages,
                "election_msgs_oriented": election_sod.messages,
            }
        )
    savings = {
        "traversal_ratio_mean": summarize(
            [row["traversal_msgs_unoriented"] / row["traversal_msgs_oriented"] for row in rows]
        )["mean"],
        "broadcast_ratio_mean": summarize(
            [row["broadcast_msgs_unoriented"] / row["broadcast_msgs_oriented"] for row in rows]
        )["mean"],
        "election_ratio_mean": summarize(
            [row["election_msgs_unoriented"] / row["election_msgs_oriented"] for row in rows]
        )["mean"],
    }
    return {"rows": rows, "savings": savings}


# ----------------------------------------------------------------------
# EXP-A2: STNO over the DFS tree names like DFTNO (Chapter 5 observation)
# ----------------------------------------------------------------------
def exp_a2_dfs_equivalence(
    sizes: Sequence[int] = (6, 10, 14, 20),
    trials: int = 2,
    seed: int = 7,
) -> dict[str, object]:
    """Compare the stabilized names of DFTNO and of STNO run over the DFS tree."""
    rows = []
    for size in sizes:
        for trial in range(trials):
            network = generators.random_connected(size, seed=seed + 31 * trial + size)
            expected = {node: index for index, node in enumerate(dfs_preorder(network))}

            dftno_run = _final_names(network, "dftno", seed + trial)
            stno_run = _final_names(network, "stno-dfs", seed + trial + 100)
            rows.append(
                {
                    "network": network.name,
                    "n": size,
                    "dftno_matches_preorder": dftno_run == expected,
                    "stno_dfs_matches_preorder": stno_run == expected,
                    "names_identical": dftno_run == stno_run,
                }
            )
    return {"rows": rows, "all_identical": all(row["names_identical"] for row in rows)}


def _final_names(network: RootedNetwork, variant: str, seed: int) -> dict[int, int]:
    from repro.core.orientation import orient_with_dftno, orient_with_stno

    if variant == "dftno":
        result = orient_with_dftno(network, seed=seed)
    else:
        result = orient_with_stno(network, tree="dfs", seed=seed)
    return dict(result.orientation.names)


# ----------------------------------------------------------------------
# EXP-R1: convergence + closure from arbitrary configurations (Definition 2.1.2)
# ----------------------------------------------------------------------
def exp_r1_self_stabilization(
    trials: int = 10,
    size: int = 12,
    seed: int = 8,
    protocols: Sequence[str] = ("dftno", "stno-bfs", "stno-dfs"),
) -> dict[str, object]:
    """Empirical convergence rate from random arbitrary configurations."""
    Grid, run_grid, _ = _campaign()
    grid = Grid(sizes=(size,), protocols=tuple(protocols), trials=trials, seed=seed)
    result = run_grid(grid)
    rows = []
    for protocol_name in protocols:
        resolved = normalize_protocol(protocol_name)
        bucket = [row for row in result.rows if row["protocol"] == resolved]
        converged = [row for row in bucket if row["converged"]]
        stats = summarize(
            [row["full_rounds"] for row in converged if row["full_rounds"] is not None]
        )
        rows.append(
            {
                "protocol": protocol_name,
                "trials": trials,
                "converged": len(converged),
                "convergence_rate": len(converged) / trials,
                "rounds_to_stabilize_mean": stats["mean"],
                "rounds_to_stabilize_max": stats["max"],
            }
        )
    return {"rows": rows, "all_converged": all(row["converged"] == trials for row in rows)}


# ----------------------------------------------------------------------
# EXP-S1: recovery from composed fault scenarios (Definition 2.1.2, dynamic)
# ----------------------------------------------------------------------
def exp_s1_scenario_recovery(
    size: int = 10,
    trials: int = 2,
    seed: int = 11,
    scenario: str = "cascade",
    protocols: Sequence[str] = ("dftno", "stno-bfs"),
    daemons: Sequence[str] = ("central", "distributed"),
) -> dict[str, object]:
    """Per-event recovery metrics for a library scenario across protocols x daemons.

    Generalizes EXP-R1's single corruption schedule: the scenario engine
    composes corruption bursts, crash/rejoin, link dynamics and daemon
    switches, and every event's re-stabilization time is measured separately.
    Runs through the campaign engine (``task_type="scenario"``), so the sweep
    shares its hash-derived seeding and can be resumed and scaled via
    ``python -m repro.campaign``.
    """
    Grid, run_grid, _ = _campaign()
    grid = Grid(
        sizes=(size,),
        protocols=tuple(protocols),
        daemons=tuple(daemons),
        trials=trials,
        seed=seed,
        pair_networks=True,
        task_type="scenario",
        scenarios=(scenario,),
    )
    result = run_grid(grid)
    rows = []
    # Aggregate over the grid's deduplicated axes, not the caller's raw
    # names: protocols=("stno", "stno-bfs") is one task set, not two rows.
    for resolved in dict.fromkeys(normalize_protocol(name) for name in protocols):
        for daemon_kind in dict.fromkeys(daemons):
            bucket = [
                row
                for row in result.rows
                if row["protocol"] == resolved and row["daemon"] == daemon_kind
            ]
            recovered = sum(int(row["events_recovered"]) for row in bucket)
            applied = sum(int(row["events_applied"]) for row in bucket)
            steps = [
                row["recovery_steps"] for row in bucket if row["recovery_steps"] is not None
            ]
            fractions = [
                row["disturbed_fraction"]
                for row in bucket
                if row["disturbed_fraction"] is not None
            ]
            rows.append(
                {
                    "protocol": resolved,
                    "daemon": daemon_kind,
                    "trials": len(bucket),
                    "events_applied": applied,
                    "events_recovered": recovered,
                    "recovery_steps_mean": summarize(steps)["mean"] if steps else None,
                    "disturbed_fraction_mean": (
                        summarize(fractions)["mean"] if fractions else None
                    ),
                    "closure_violations": sum(
                        int(row["closure_violations"]) for row in bucket
                    ),
                }
            )
    return {
        "scenario": scenario,
        "rows": rows,
        "samples": [dict(row) for row in result.rows],
        "all_recovered": all(
            row["events_recovered"] == row["events_applied"] for row in rows
        ),
    }


# ----------------------------------------------------------------------
# EXP-M1: message savings across workloads through the unified API
# ----------------------------------------------------------------------
def exp_m1_msgpass_workloads(
    sizes: Sequence[int] = (8, 16, 24),
    trials: int = 2,
    seed: int = 13,
) -> dict[str, object]:
    """Orientation savings for every message-passing workload (EXP-A1, swept).

    Broadcast and DFS traversal run on random connected networks; ring leader
    election runs on rings (the only topology it is defined on).  All three
    go through the campaign engine's ``msgpass`` task type -- i.e. each task
    is a :class:`~repro.api.RunSpec` executed by :func:`repro.api.run` -- so
    the sweep is resumable and shardable like every other campaign.
    """
    Grid, run_grid, _ = _campaign()
    general = Grid(
        sizes=tuple(sizes),
        families=("random_connected",),
        trials=trials,
        seed=seed,
        task_type="msgpass",
        workloads=("broadcast", "traversal"),
    )
    rings = Grid(
        sizes=tuple(sizes),
        families=("ring",),
        trials=trials,
        seed=seed,
        task_type="msgpass",
        workloads=("election",),
    )
    samples = run_grid(general).rows + run_grid(rings).rows
    rows = []
    for workload in ("broadcast", "traversal", "election"):
        bucket = [row for row in samples if row["workload"] == workload]
        savings = [
            row["message_savings"] for row in bucket if row["message_savings"] is not None
        ]
        rows.append(
            {
                "workload": workload,
                "trials": len(bucket),
                "converged": sum(1 for row in bucket if row["converged"]),
                "messages_unoriented_mean": summarize(
                    [row["messages_unoriented"] for row in bucket]
                )["mean"],
                "messages_oriented_mean": summarize(
                    [row["messages_oriented"] for row in bucket]
                )["mean"],
                "message_savings_mean": summarize(savings)["mean"] if savings else None,
            }
        )
    return {
        "rows": rows,
        "samples": [dict(row) for row in samples],
        "all_converged": all(row["converged"] == row["trials"] for row in rows),
        "all_workloads_save": all(
            row["message_savings_mean"] is not None and row["message_savings_mean"] > 1.0
            for row in rows
        ),
    }


# ----------------------------------------------------------------------
# EXP-R2: daemon ablation (Chapter 5 daemon assumptions)
# ----------------------------------------------------------------------
def exp_r2_daemon_ablation(
    size: int = 16,
    trials: int = 3,
    seed: int = 9,
    daemons: Sequence[str] = ("central", "distributed", "synchronous", "adversarial"),
) -> dict[str, object]:
    """Stabilization of both protocols under the standard daemon families."""
    Grid, run_grid, _ = _campaign()
    # pair_networks: every daemon/protocol cell of a trial runs on the same
    # topology, so the ablation compares daemons, not random networks.
    grid = Grid(
        sizes=(size,),
        protocols=("dftno", "stno-bfs"),
        daemons=tuple(daemons),
        trials=trials,
        seed=seed,
        pair_networks=True,
    )
    result = run_grid(grid)
    rows = []
    for daemon_kind in daemons:
        for protocol_name in ("dftno", "stno-bfs"):
            bucket = [
                row
                for row in result.rows
                if row["daemon"] == daemon_kind and row["protocol"] == protocol_name
            ]
            converged = [row for row in bucket if row["converged"]]
            rows.append(
                {
                    "daemon": daemon_kind,
                    "protocol": protocol_name,
                    "trials": len(bucket),
                    "converged": len(converged),
                    "steps_mean": summarize(
                        [row["full_steps"] for row in converged if row["full_steps"] is not None]
                    )["mean"],
                    "rounds_mean": summarize(
                        [row["full_rounds"] for row in converged if row["full_rounds"] is not None]
                    )["mean"],
                }
            )
    return {"rows": rows, "all_converged": all(row["converged"] == row["trials"] for row in rows)}


__all__ = [
    "exp_t1_dftno_stabilization",
    "exp_t2_stno_stabilization",
    "exp_t3_space",
    "exp_f1_figure_3_1_1",
    "exp_f2_figure_4_1_1",
    "exp_f3_chordal_properties",
    "exp_a1_message_complexity",
    "exp_a2_dfs_equivalence",
    "exp_m1_msgpass_workloads",
    "exp_r1_self_stabilization",
    "exp_r2_daemon_ablation",
    "exp_s1_scenario_recovery",
]
