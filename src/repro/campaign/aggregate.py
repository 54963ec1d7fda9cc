"""Aggregation of campaign result rows into the tables the thesis reports.

These helpers reproduce (and replace) the private group-by logic the
``exp_*`` entry points used to hand-roll: group rows by a key, average each
metric over the *converged* samples, and fit a line through the aggregated
means -- reusing :func:`repro.analysis.reporting.summarize` and
:func:`repro.analysis.reporting.linear_fit`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.analysis.reporting import linear_fit, summarize

Row = Mapping[str, object]

#: (source column in a result row, name of the aggregated mean column).
DEFAULT_METRICS: tuple[tuple[str, str], ...] = (
    ("overlay_steps", "overlay_steps_mean"),
    ("overlay_rounds", "overlay_rounds_mean"),
    ("full_steps", "total_steps_mean"),
)

#: Metrics of ``task_type="scenario"`` rows: per-event recovery aggregates.
SCENARIO_METRICS: tuple[tuple[str, str], ...] = (
    ("recovery_steps", "recovery_steps_mean"),
    ("recovery_rounds", "recovery_rounds_mean"),
    ("disturbed_fraction", "disturbed_fraction_mean"),
    ("closure_violations", "closure_violations_mean"),
)

#: Metrics of ``task_type="msgpass"`` rows: message-complexity comparisons.
MSGPASS_METRICS: tuple[tuple[str, str], ...] = (
    ("messages_unoriented", "messages_unoriented_mean"),
    ("messages_oriented", "messages_oriented_mean"),
    ("message_savings", "message_savings_mean"),
)


def metrics_for_rows(rows: Sequence[Row]) -> tuple[tuple[str, str], ...]:
    """The metric columns that actually occur in ``rows``.

    Lets ``repro-campaign report`` aggregate any mix of task types: each
    known metric set contributes the pairs whose source column some row
    carries.  Falls back to :data:`DEFAULT_METRICS` when nothing matches, so
    legacy stores keep their exact pre-task-type report shape.
    """
    present: set[str] = set()
    for row in rows:
        present.update(row.keys())
    chosen = tuple(
        pair
        for metric_set in (DEFAULT_METRICS, SCENARIO_METRICS, MSGPASS_METRICS)
        for pair in metric_set
        if pair[0] in present
    )
    return chosen or DEFAULT_METRICS


def aggregate_rows(
    rows: Sequence[Row],
    by: str = "parameter",
    key_name: str | None = None,
    metrics: Sequence[tuple[str, str]] = DEFAULT_METRICS,
) -> list[dict[str, object]]:
    """Group ``rows`` by ``rows[by]`` and average each metric over converged runs.

    Returns one output row per distinct key (sorted), named ``key_name``
    (default: ``by``), with ``trials`` (group size), ``converged`` (count) and
    one ``*_mean`` column per metric.
    """
    key_name = key_name or by
    groups: dict[object, list[Row]] = {}
    for row in rows:
        groups.setdefault(row[by], []).append(row)
    out: list[dict[str, object]] = []
    for key in sorted(groups, key=lambda value: (str(type(value)), value)):
        bucket = groups[key]
        converged = [row for row in bucket if row.get("converged")]
        aggregated: dict[str, object] = {
            key_name: key,
            "trials": len(bucket),
            "converged": len(converged),
        }
        for source, target in metrics:
            values = [row[source] for row in converged if row.get(source) is not None]
            aggregated[target] = summarize(values)["mean"]
        out.append(aggregated)
    return out


def fit_if_possible(
    xs: Sequence[float], ys: Sequence[float | None]
) -> dict[str, float] | None:
    """A linear fit of the finite (x, y) pairs, or ``None`` when degenerate.

    Pairs whose y is ``None`` or NaN are dropped (unconverged groups), as are
    pairs whose x is not numeric (grouping by a categorical key such as
    ``daemon`` or ``scenario`` has no line to fit); the fit needs at least two
    distinct surviving x values.
    """

    def _finite_number(value: object) -> bool:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and not (isinstance(value, float) and math.isnan(value))
        )

    pairs = [(x, y) for x, y in zip(xs, ys) if _finite_number(x) and _finite_number(y)]
    if len({x for x, _ in pairs}) < 2:
        return None
    fit = linear_fit([x for x, _ in pairs], [y for _, y in pairs])
    if fit["slope"] is None:
        return None
    return fit


def fit_aggregate(
    aggregated: Sequence[Row], x: str, y: str
) -> dict[str, float] | None:
    """Fit ``y ~ x`` across already-aggregated rows (``None`` when degenerate)."""
    return fit_if_possible(
        [row[x] for row in aggregated],  # type: ignore[misc]
        [row[y] for row in aggregated],  # type: ignore[misc]
    )


def campaign_summary(
    rows: Sequence[Row],
    key_name: str = "n",
    fit_metric: str = "overlay_steps_mean",
) -> dict[str, object]:
    """The ``{"rows", "fit", "samples"}`` structure the ``exp_*`` functions return."""
    aggregated = aggregate_rows(rows, by="parameter", key_name=key_name)
    fit = fit_aggregate(aggregated, key_name, fit_metric)
    return {"rows": aggregated, "fit": fit, "samples": [dict(row) for row in rows]}


__all__ = [
    "DEFAULT_METRICS",
    "MSGPASS_METRICS",
    "SCENARIO_METRICS",
    "aggregate_rows",
    "campaign_summary",
    "fit_aggregate",
    "fit_if_possible",
    "metrics_for_rows",
]
