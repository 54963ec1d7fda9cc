"""Tests for the stabilization-measurement harness and the experiment entry points."""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.convergence import (
    height_controlled_tree,
    measure_dftno,
    measure_layered_stabilization,
    measure_stno,
    sweep_dftno_sizes,
    sweep_stno_heights,
)
from repro.graphs import generators
from repro.graphs.properties import radius_from_root
from repro.runtime.daemon import CentralDaemon
from repro.substrates.spanning_tree import BFSSpanningTree


# ----------------------------------------------------------------------
# measurement primitives
# ----------------------------------------------------------------------
def test_measure_dftno_reports_both_layers(small_random):
    sample = measure_dftno(small_random, seed=1)
    assert sample.converged
    assert sample.substrate_steps is not None
    assert sample.full_steps is not None
    assert sample.full_steps >= sample.substrate_steps
    assert sample.overlay_steps == sample.full_steps - sample.substrate_steps
    assert sample.protocol == "dftno"
    row = sample.as_row()
    assert row["overlay_steps"] == sample.overlay_steps


def test_measure_stno_reports_both_layers(small_random):
    sample = measure_stno(small_random, tree="bfs", seed=2)
    assert sample.converged
    assert sample.overlay_rounds is not None
    assert sample.protocol.startswith("stno")


def test_measure_with_explicit_daemon_and_parameter(small_ring):
    sample = measure_dftno(small_ring, daemon=CentralDaemon("round_robin"), seed=3, parameter=99)
    assert sample.parameter == 99
    assert sample.daemon.startswith("central")


def test_measure_layered_stabilization_unconverged_budget(small_random):
    from repro.core.dftno import build_dftno

    protocol = build_dftno()
    sample = measure_layered_stabilization(
        small_random,
        protocol,
        protocol.base,
        seed=4,
        max_steps=20,
    )
    assert not sample.converged
    assert sample.overlay_steps is None
    assert sample.total_steps == 20


def test_height_controlled_tree_has_requested_height():
    for height in (1, 3, 7, 11):
        network = height_controlled_tree(12, height, seed=5)
        assert network.n == 12
        assert radius_from_root(network) == height
    with pytest.raises(ValueError):
        height_controlled_tree(5, 10, seed=1)


def test_sweep_dftno_sizes_produces_one_sample_per_trial():
    samples = sweep_dftno_sizes((6, 8), family="random_tree", trials=2, seed=6)
    assert len(samples) == 4
    assert all(sample.converged for sample in samples)
    assert {sample.parameter for sample in samples} == {6, 8}


def test_sweep_stno_heights_uses_actual_heights():
    samples = sweep_stno_heights(10, (2, 5), trials=1, seed=7)
    assert len(samples) == 2
    assert {sample.parameter for sample in samples} == {2, 5}


# ----------------------------------------------------------------------
# experiment entry points (small parameters)
# ----------------------------------------------------------------------
def test_exp_t1_rows_and_fit():
    result = experiments.exp_t1_dftno_stabilization(sizes=(6, 10, 14), trials=1, seed=1)
    assert len(result["rows"]) == 3
    assert result["fit"]["slope"] > 0
    assert all(row["converged"] == row["trials"] for row in result["rows"])


def test_exp_t1_is_deterministic():
    # Seed discipline: every stochastic call flows from an explicit seed (via
    # the campaign engine's hash-derived per-task seeds), so regenerating an
    # experiment yields identical samples, not just similar aggregates.
    first = experiments.exp_t1_dftno_stabilization(sizes=(6, 8), trials=1, seed=9)
    second = experiments.exp_t1_dftno_stabilization(sizes=(6, 8), trials=1, seed=9)
    assert first == second


def test_exp_t1_overlay_steps_grow_with_n():
    result = experiments.exp_t1_dftno_stabilization(sizes=(6, 20), trials=2, seed=2)
    rows = result["rows"]
    assert rows[-1]["overlay_steps_mean"] > rows[0]["overlay_steps_mean"]


def test_exp_t2_rows_and_fit():
    result = experiments.exp_t2_stno_stabilization(n=14, heights=(2, 6, 13), trials=1, seed=3)
    assert len(result["rows"]) == 3
    assert result["fit"]["slope"] > 0


def test_exp_t2_overlay_rounds_grow_with_height():
    result = experiments.exp_t2_stno_stabilization(n=16, heights=(2, 15), trials=2, seed=4)
    rows = result["rows"]
    assert rows[-1]["overlay_rounds_mean"] > rows[0]["overlay_rounds_mean"]


def test_exp_t3_space_rows():
    result = experiments.exp_t3_space(sizes=(8, 16))
    assert len(result["rows"]) == 8
    for row in result["rows"]:
        assert row["dftno_total_max_bits"] > 0
        assert row["stno_total_max_bits"] > 0


def test_exp_f1_reproduces_figure_3_1_1():
    result = experiments.exp_f1_figure_3_1_1()
    assert result["matches_figure"]
    assert result["final_names"] == result["expected_names"]
    named = {event["thesis_label"]: event["assigned_name"] for event in result["events"]}
    assert named == {"r": 0, "b": 1, "d": 2, "c": 3, "a": 4}
    steps = [event["step"] for event in result["events"]]
    assert steps == sorted(steps)


def test_exp_f1_naming_events_are_pinned():
    # The events are read off the scheduler's StepRecord move stream; pin the
    # exact steps, processors and counters so a change to how that stream is
    # collected cannot shift the reproduced figure unnoticed.
    events = experiments.exp_f1_figure_3_1_1()["events"]
    assert [
        (event["step"], event["processor"], event["thesis_label"], event["max_counter"])
        for event in events
    ] == [(0, 0, "r", 0), (5, 1, "b", 1), (9, 2, "d", 2), (13, 3, "c", 3), (20, 4, "a", 4)]


def test_exp_f2_reproduces_figure_4_1_1():
    result = experiments.exp_f2_figure_4_1_1()
    assert result["matches_figure"]
    assert len(result["rows"]) == 5


def test_exp_f3_chordal_properties_hold():
    result = experiments.exp_f3_chordal_properties(sizes=(5, 7))
    assert result["all_valid"]
    assert all(row["locally_oriented"] and row["edge_symmetric"] for row in result["rows"])


def test_exp_a1_orientation_saves_messages():
    result = experiments.exp_a1_message_complexity(sizes=(8, 12), seed=5)
    savings = result["savings"]
    assert savings["traversal_ratio_mean"] > 1.0
    assert savings["election_ratio_mean"] > 1.0
    assert savings["broadcast_ratio_mean"] >= 1.0
    for row in result["rows"]:
        assert row["traversal_msgs_oriented"] <= row["traversal_msgs_unoriented"]


def test_exp_a2_dfs_equivalence():
    result = experiments.exp_a2_dfs_equivalence(sizes=(6, 9), trials=1, seed=6)
    assert result["all_identical"]
    assert all(row["dftno_matches_preorder"] for row in result["rows"])


def test_exp_r1_all_runs_converge():
    result = experiments.exp_r1_self_stabilization(trials=3, size=8, seed=7)
    assert result["all_converged"]
    assert {row["protocol"] for row in result["rows"]} == {"dftno", "stno-bfs", "stno-dfs"}


def test_exp_r1_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        experiments.exp_r1_self_stabilization(trials=1, size=6, protocols=("nope",))


def test_exp_r2_daemon_ablation_converges_under_all_daemons():
    result = experiments.exp_r2_daemon_ablation(size=8, trials=1, seed=8)
    assert result["all_converged"]
    daemons = {row["daemon"] for row in result["rows"]}
    assert daemons == {"central", "distributed", "synchronous", "adversarial"}
