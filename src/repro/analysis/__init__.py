"""Experiment harness: regenerates every quantitative claim of the thesis.

The thesis is proof-centric; its "evaluation" consists of complexity theorems
(stabilization time in steps/rounds, space in bits) and three worked figures.
This package turns each of them into a measured experiment:

* :mod:`~repro.analysis.convergence` -- stabilization-time measurements for
  layered protocols (time for the substrate, time for the orientation layer on
  top of it), one run per call; sweeps go through the campaign grids of
  :mod:`~repro.analysis.experiments`;
* :mod:`~repro.analysis.recovery` -- per-event recovery metrics (disturbance,
  re-stabilization time, closure violations) for the fault-injection
  scenarios of :mod:`repro.scenarios`;
* :mod:`~repro.analysis.space` -- per-processor space accounting against the
  O(Delta log N) bound;
* :mod:`~repro.analysis.reporting` -- plain-text tables and least-squares fits
  used by the benchmarks and EXPERIMENTS.md;
* :mod:`~repro.analysis.experiments` -- one entry point per experiment id of
  DESIGN.md (EXP-T1, EXP-T2, EXP-T3, EXP-F1..F3, EXP-A1, EXP-A2, EXP-R1,
  EXP-R2), each returning the table rows it reproduces.
"""

from repro.analysis.reporting import format_table, linear_fit, summarize
from repro.analysis.recovery import (
    EventRecovery,
    ScenarioReport,
    aggregate_event_recoveries,
    disturbed_fraction,
    disturbed_nodes,
)
from repro.analysis.convergence import (
    StabilizationSample,
    closure_window,
    measure_stabilization,
    step_budget,
)
from repro.analysis.space import space_rows, orientation_space_row
from repro.analysis import experiments

__all__ = [
    "format_table",
    "linear_fit",
    "summarize",
    "EventRecovery",
    "ScenarioReport",
    "aggregate_event_recoveries",
    "disturbed_fraction",
    "disturbed_nodes",
    "StabilizationSample",
    "closure_window",
    "measure_stabilization",
    "step_budget",
    "space_rows",
    "orientation_space_row",
    "experiments",
]
