"""The instrumentation registry: recording, the null path, and merging."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    NullInstrumentation,
    SUMMARY_SCHEMA,
    merge_summaries,
    phase_seconds,
    summary_counter,
)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------
def test_counters_accumulate_including_fractional_values():
    instr = Instrumentation()
    instr.count("guards_evaluated")
    instr.count("guards_evaluated", 4)
    instr.count("step_seconds", 0.25)
    instr.count("step_seconds", 0.5)
    summary = instr.summary()
    assert summary["counters"] == {"guards_evaluated": 5, "step_seconds": 0.75}
    assert summary["schema"] == SUMMARY_SCHEMA


def test_gauges_track_count_sum_min_max_and_mean():
    instr = Instrumentation()
    for value in (4, 1, 7):
        instr.gauge("dirty_set_size", value)
    stats = instr.summary()["gauges"]["dirty_set_size"]
    assert stats == {"count": 3, "sum": 12, "min": 1, "max": 7, "mean": 4.0}


def test_phase_timers_accumulate_seconds_and_counts():
    instr = Instrumentation()
    instr.phase_time("guard_eval", 0.5)
    instr.phase_time("guard_eval", 0.25, count=3)
    assert instr.summary()["phases"]["guard_eval"] == {"seconds": 0.75, "count": 4}


def test_phase_context_manager_times_the_block():
    instr = Instrumentation()
    with instr.phase("cold_path"):
        pass
    stats = instr.summary()["phases"]["cold_path"]
    assert stats["count"] == 1
    assert stats["seconds"] >= 0.0


def test_summary_is_json_serializable():
    instr = Instrumentation()
    instr.count("a", 1)
    instr.gauge("b", 2)
    instr.phase_time("c", 0.1)
    assert json.loads(json.dumps(instr.summary())) == instr.summary()


# ---------------------------------------------------------------------------
# The null path
# ---------------------------------------------------------------------------
def test_null_instrumentation_is_disabled_and_records_nothing():
    instr = NULL_INSTRUMENTATION
    assert instr.enabled is False
    assert isinstance(instr, NullInstrumentation)
    instr.count("guards_evaluated", 100)
    instr.gauge("dirty_set_size", 5)
    instr.phase_time("guard_eval", 1.0)
    instr.merge_summary({"counters": {"x": 1}})
    with instr.phase("anything"):
        pass
    assert instr.summary() == {}


def test_null_instrumentation_shares_no_state_with_real_registries():
    real = Instrumentation()
    real.count("a")
    assert real.enabled is True
    assert NULL_INSTRUMENTATION.summary() == {}
    # The singleton stays clean even after heavy (ab)use elsewhere.
    NULL_INSTRUMENTATION.count("a", 10)
    assert real.summary()["counters"] == {"a": 1}


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------
def _sample(seed: int) -> dict:
    instr = Instrumentation()
    instr.count("guards_evaluated", 3 * seed)
    instr.count(f"only_{seed % 2}", seed)
    instr.gauge("dirty_set_size", seed)
    instr.gauge("dirty_set_size", 10 - seed)
    instr.phase_time("guard_eval", 0.125 * seed, count=seed)
    return instr.summary()


def test_merge_summaries_of_nothing_is_empty():
    assert merge_summaries() == {}
    assert merge_summaries(None, {}, None) == {}


def test_merge_summaries_identity_on_a_single_summary():
    summary = _sample(3)
    assert merge_summaries(summary) == summary


def test_merge_summaries_is_commutative_and_associative():
    a, b, c = _sample(1), _sample(2), _sample(3)
    assert merge_summaries(a, b) == merge_summaries(b, a)
    left = merge_summaries(merge_summaries(a, b), c)
    right = merge_summaries(a, merge_summaries(b, c))
    assert left == right == merge_summaries(a, b, c)


def test_merge_summaries_adds_counters_and_combines_gauge_moments():
    merged = merge_summaries(_sample(1), _sample(2))
    assert merged["counters"]["guards_evaluated"] == 9
    assert merged["counters"]["only_1"] == 1
    assert merged["counters"]["only_0"] == 2
    gauge = merged["gauges"]["dirty_set_size"]
    assert gauge == {"count": 4, "sum": 20, "min": 1, "max": 9, "mean": 5.0}
    phase = merged["phases"]["guard_eval"]
    assert phase == {"seconds": pytest.approx(0.375), "count": 3}


# ---------------------------------------------------------------------------
# Summary helpers
# ---------------------------------------------------------------------------
def test_phase_seconds_selects_names_or_totals_everything():
    summary = {
        "phases": {
            "guard_eval": {"seconds": 1.0, "count": 2},
            "action_exec": {"seconds": 0.5, "count": 2},
        }
    }
    assert phase_seconds(summary) == 1.5
    assert phase_seconds(summary, "guard_eval") == 1.0
    assert phase_seconds(summary, "guard_eval", "missing") == 1.0
    assert phase_seconds(None) == 0.0
    assert phase_seconds({}) == 0.0


def test_summary_counter_reads_with_default():
    summary = {"counters": {"moves_executed": 7}}
    assert summary_counter(summary, "moves_executed") == 7.0
    assert summary_counter(summary, "missing") == 0.0
    assert summary_counter(None, "missing", default=3.0) == 3.0
