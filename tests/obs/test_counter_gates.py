"""Counter gates: a benchmark op may not do more work than committed.

A perf change is judged on wall-clock medians, which the host's noise can
hide a regression in.  The counts below cannot: the steps, moves and walk
counts of one benchmark op are a function of the code and the seed alone,
the same on every host and under every hash seed.  The test fails when one
grows past its committed value.  A change that lowers a count may lower the
committed value; one that must raise it says why in CHANGES.md.
"""

from __future__ import annotations

from collections import Counter

import pytest

from perfbench.workloads import campaign_grids, dftno_dense_spec, stno_tree_sync_spec
from repro.api import run
from repro.campaign import run_task
from repro.obs import Instrumentation
from repro.substrates.spanning_tree import BFSSpanningTree

#: One op's counters per (workload, seed): steps, moves, processors whose
#: guards were re-walked, guard-walk and rule-walk part calls, and rule
#: segments re-walked for a staled bit.  A ``campaign-mixed`` entry is the
#: total of one pass over its 136 tasks.
GATES = {
    ("dftno-dense", 1): {
        "steps_timed": 2_313,
        "moves_executed": 3_720,
        "guards_evaluated": 7_955,
        "guard_calls": 12_542,
        "rule_calls": 5_702,
        "legitimacy_nodes_checked": 6_781,
    },
    ("dftno-dense", 2): {
        "steps_timed": 2_356,
        "moves_executed": 3_861,
        "guards_evaluated": 8_225,
        "guard_calls": 12_897,
        "rule_calls": 5_815,
        "legitimacy_nodes_checked": 6_954,
    },
    ("stno-tree-sync", 1): {
        "steps_timed": 81,
        "moves_executed": 53_952,
        "guards_evaluated": 59_654,
        "guard_calls": 70_375,
        "rule_calls": 16_740,
        "legitimacy_nodes_checked": 12_365,
    },
    ("campaign-mixed", 1): {
        "steps_timed": 21_958,
        "moves_executed": 32_798,
        "guards_evaluated": 64_730,
        "guard_calls": 122_766,
        "rule_calls": 43_804,
        "legitimacy_nodes_checked": 39_385,
    },
}

#: BFS ``_desired`` scans per seed-1 ``stno-tree-sync`` op: the relax guard's
#: scans, which its statement reuses (85,255 when the statement rescanned).
DESIRED_SCANS = 44_100


def _op_counters(workload: str, seed: int) -> Counter:
    """The counters of one op (a ``campaign-mixed`` pass: the sum over its tasks)."""
    if workload == "campaign-mixed":
        total: Counter = Counter()
        for grid in campaign_grids(seed):
            for task in grid.expand():
                total.update(run_task(task, perf=True)["perf"]["counters"])
        return total
    spec = {"dftno-dense": dftno_dense_spec, "stno-tree-sync": stno_tree_sync_spec}[workload]
    return Counter(run(spec(seed), instrumentation=Instrumentation()).perf["counters"])


@pytest.mark.parametrize(("workload", "seed"), sorted(GATES))
def test_an_op_does_no_more_work_than_committed(workload, seed):
    counters = _op_counters(workload, seed)
    gate = GATES[workload, seed]
    assert set(gate) <= set(counters)
    grown = {
        name: (counters[name], ceiling)
        for name, ceiling in gate.items()
        if counters[name] > ceiling
    }
    assert not grown, f"{workload} seed {seed}: (counted, committed) {grown}"


def test_an_stno_op_scans_for_each_relax_target_once(monkeypatch):
    scans = 0
    desired = BFSSpanningTree._desired

    def counted(view):
        nonlocal scans
        scans += 1
        return desired(view)

    monkeypatch.setattr(BFSSpanningTree, "_desired", staticmethod(counted))
    run(stno_tree_sync_spec(1))
    assert scans <= DESIRED_SCANS
