"""Counter gates: a benchmark op may not do more work than committed.

A perf change is judged on wall-clock medians, which the host's noise can
hide a regression in.  The counts below cannot: the steps, moves and walk
counts of one benchmark op are a function of the code and the seed alone,
the same on every host and under every hash seed.  The test fails when one
grows past its committed value.  A change that lowers a count may lower the
committed value; one that must raise it says why in CHANGES.md.
"""

from __future__ import annotations

import pytest

from perfbench.workloads import dftno_dense_spec
from repro.api import run
from repro.obs import Instrumentation

#: One op's counters per (workload, seed): steps, moves, processors whose
#: guards were re-walked, guard-walk and rule-walk part calls, and rule
#: segments re-walked for a staled bit.
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
}

SPECS = {"dftno-dense": dftno_dense_spec}


@pytest.mark.parametrize(("workload", "seed"), sorted(GATES))
def test_an_op_does_no_more_work_than_committed(workload, seed):
    counters = run(SPECS[workload](seed), instrumentation=Instrumentation()).perf["counters"]
    gate = GATES[workload, seed]
    assert set(gate) <= set(counters)
    grown = {
        name: (counters[name], ceiling)
        for name, ceiling in gate.items()
        if counters[name] > ceiling
    }
    assert not grown, f"{workload} seed {seed}: (counted, committed) {grown}"
