"""Experiment-campaign engine: declarative grids, parallel runs, persistent results.

The subsystem has five layers, each usable on its own:

* :mod:`repro.campaign.grid` -- declarative parameter grids that expand to
  deterministic task specs with stable config hashes and hash-derived seeds;
  the task type (``stabilize`` runs, fault-injection ``scenario``
  executions, ``msgpass`` workloads) picks the :mod:`repro.api` engine;
* :mod:`repro.campaign.tasks` / :mod:`repro.campaign.runner` -- each task
  becomes one :class:`~repro.api.RunSpec` executed by :func:`repro.api.run`,
  serially or on a ``multiprocessing`` pool, streaming rows as tasks
  complete;
* :mod:`repro.campaign.store` -- a crash-safe, deduplicating JSONL result
  store that powers ``--resume`` and cross-machine merges;
* :mod:`repro.campaign.aggregate` -- group-by/mean/fit summaries reusing
  :mod:`repro.analysis.reporting`, with per-task-type metric sets.

``python -m repro.campaign`` (or the ``repro-campaign`` console script)
exposes the whole pipeline on the command line.
"""

from repro.campaign.aggregate import (
    aggregate_rows,
    campaign_summary,
    fit_aggregate,
    fit_if_possible,
    metrics_for_rows,
)
from repro.campaign.grid import DEFAULT_TASK_TYPE, TASK_ENGINES, Grid, TaskSpec, parse_axis
from repro.campaign.runner import CampaignResult, CampaignRunner, run_grid, run_task
from repro.campaign.store import (
    BaseResultStore,
    JsonlResultStore,
    ResultStore,
    SqliteResultStore,
    open_store,
    resolve_store_path,
)

__all__ = [
    "BaseResultStore",
    "CampaignResult",
    "CampaignRunner",
    "DEFAULT_TASK_TYPE",
    "Grid",
    "JsonlResultStore",
    "ResultStore",
    "SqliteResultStore",
    "TASK_ENGINES",
    "TaskSpec",
    "aggregate_rows",
    "campaign_summary",
    "fit_aggregate",
    "fit_if_possible",
    "metrics_for_rows",
    "open_store",
    "parse_axis",
    "resolve_store_path",
    "run_grid",
    "run_task",
]
