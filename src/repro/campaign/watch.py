"""Live campaign dashboard: tail a result store while a run writes to it.

``repro-campaign watch --out results/`` renders, every ``--interval``
seconds, a terminal dashboard built purely from the store (plus optional grid
options for progress/ETA against the intended sweep):

* header -- store path/backend/row count, provenance metadata;
* progress -- completed/pending/stale against the grid, rows/s throughput
  from the store's own row timestamps, and an ETA;
* per-task-type table -- rows and convergence counts per
  (task type, protocol, family) combination;
* rolling phase breakdown -- the last ``--rolling`` rows' ``perf``
  summaries merged (associatively) into a where-is-the-time-going-now view,
  so a phase regression shows up *while* the campaign runs;
* anomaly feed -- the stall / round-budget anomalies recorded by runs
  executed with ``--health``, newest last.

The watcher holds no state between ticks: each refresh reopens the store and
re-reads it, so it tolerates the store appearing late (a campaign that has
not created its file yet), being appended to concurrently (both backends
append atomically per row), or being replaced by a ``merge``.  It never
writes -- watching is always safe, from any machine that can see the file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.reporting import format_table
from repro.campaign.grid import DEFAULT_TASK_TYPE, Grid
from repro.campaign.store import open_store, resolve_store_path

#: How many trailing perf rows feed the rolling phase breakdown.
DEFAULT_ROLLING = 20

#: How many trailing anomalies the feed shows.
DEFAULT_ANOMALY_LIMIT = 8

#: ANSI "clear screen, cursor home" -- emitted between refreshes on a tty.
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def _utc_iso(timestamp: float) -> str:
    """Timezone-explicit UTC ISO-8601 (trailing ``Z``), machine-independent."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(timestamp))


def _format_duration(seconds: float) -> str:
    """Render a duration like ``2m 03s`` / ``1h 04m`` (coarse on purpose)."""
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m {secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h {minutes:02d}m"


def _progress_lines(store, rows: list[dict[str, object]], grid: Grid | None) -> list[str]:
    """Completed/pending/ETA lines (grid-relative when a grid was given)."""
    lines: list[str] = []
    rate = store.throughput()
    if grid is not None:
        grid_hashes = {task.config_hash for task in grid.expand()}
        stored = {
            str(row.get("config_hash")) for row in rows if row.get("config_hash")
        }
        completed = grid_hashes & stored
        pending = grid_hashes - stored
        stale = stored - grid_hashes
        percent = 100.0 * len(completed) / len(grid_hashes) if grid_hashes else 100.0
        line = f"progress: {len(completed)}/{len(grid_hashes)} tasks ({percent:.0f}%)"
        if stale:
            line += f", {len(stale)} stale"
        if rate is not None:
            line += f", {rate:.2f} rows/s"
            if pending:
                eta = len(pending) / rate
                line += f", ETA {_format_duration(eta)} (~{_utc_iso(time.time() + eta)})"
        elif pending:
            line += ", rate unknown (no store timestamps yet)"
        lines.append(line)
    elif rate is not None:
        lines.append(f"throughput: {rate:.2f} rows/s")
    return lines


def _provenance_line(metadata: dict[str, object]) -> str | None:
    """The store's ``metadata: created ..., code version ...`` line, if any."""
    created = metadata.get("created_at_iso") or metadata.get("created_at")
    version = metadata.get("code_version")
    provenance = ", ".join(
        part
        for part in (
            f"created {created}" if created else "",
            f"code version {version}" if version else "",
        )
        if part
    )
    return f"metadata: {provenance}" if provenance else None


def _task_type_table(rows: list[dict[str, object]]) -> str | None:
    """Rows / converged counts per (task type, protocol, family)."""
    if not rows:
        return None
    counts: dict[tuple[object, object, object], list[int]] = {}
    for row in rows:
        key = (
            row.get("task_type", DEFAULT_TASK_TYPE),
            row.get("protocol"),
            row.get("family"),
        )
        bucket = counts.setdefault(key, [0, 0])
        bucket[0] += 1
        bucket[1] += 1 if row.get("converged") else 0
    table = [
        {
            "task_type": task_type,
            "protocol": protocol,
            "family": family,
            "rows": total,
            "converged": converged,
        }
        for (task_type, protocol, family), (total, converged) in sorted(
            counts.items(), key=str
        )
    ]
    return format_table(table)


def _rolling_phase_table(rows: list[dict[str, object]], rolling: int) -> str | None:
    """Merge the last ``rolling`` perf summaries into a phase breakdown."""
    from repro.obs import merge_summaries, phase_seconds

    summaries = [row["perf"] for row in rows if isinstance(row.get("perf"), dict)]
    if not summaries:
        return None
    window = summaries[-rolling:]
    merged = merge_summaries(*window)
    total = phase_seconds(merged) or 1.0
    table = [
        {
            "phase": name,
            "seconds": f"{stats['seconds']:.4f}",
            "share": f"{100.0 * stats['seconds'] / total:.1f}%",
        }
        for name, stats in sorted(
            merged.get("phases", {}).items(),
            key=lambda item: item[1]["seconds"],
            reverse=True,
        )
    ]
    if not table:
        return None
    return format_table(
        table, title=f"rolling phase breakdown (last {len(window)} perf rows)"
    )


def _anomaly_feed(rows: list[dict[str, object]], limit: int) -> list[str]:
    """The newest ``limit`` anomalies across all stored ``health`` blobs."""
    feed: list[str] = []
    for row in rows:
        health = row.get("health")
        if not isinstance(health, dict):
            continue
        for anomaly in health.get("anomalies") or []:
            line = (
                f"  task {row.get('task_index')} ({row.get('protocol')} "
                f"n={row.get('size')}): {anomaly.get('kind')} at step "
                f"{anomaly.get('step')} -- {anomaly.get('detail')}"
            )
            # Recorded runs stamp each anomaly with its flight log, so the
            # feed points straight at the replayable evidence.
            log = anomaly.get("flight_log") or health.get("flight_log")
            if log:
                line += f" [replay: {log}]"
            feed.append(line)
    return feed[-limit:]


def render_dashboard(
    store,
    grid: Grid | None = None,
    rolling: int = DEFAULT_ROLLING,
    anomaly_limit: int = DEFAULT_ANOMALY_LIMIT,
) -> str:
    """One dashboard frame for ``store``, as a multi-line string.

    Pure function of the store's current contents (plus the wall clock for
    the header and the ETA): callable from tests against a store another
    thread is appending to, and from the :func:`watch` loop.
    """
    rows = store.rows()
    lines = [
        f"campaign watch -- {store.path} ({store.backend}, {len(rows)} rows) "
        f"at {_utc_iso(time.time())}"
    ]
    provenance = _provenance_line(store.metadata())
    if provenance:
        lines.append(provenance)
    lines.extend(_progress_lines(store, rows, grid))
    task_table = _task_type_table(rows)
    if task_table:
        lines.append("")
        lines.append(task_table)
    phase_table = _rolling_phase_table(rows, rolling)
    if phase_table:
        lines.append("")
        lines.append(phase_table)
    anomalies = _anomaly_feed(rows, anomaly_limit)
    if anomalies:
        lines.append("")
        lines.append(f"anomalies (last {len(anomalies)}):")
        lines.extend(anomalies)
    elif any(isinstance(row.get("health"), dict) for row in rows):
        lines.append("")
        lines.append("anomalies: none (all monitored rows healthy)")
    return "\n".join(lines)


def watch(
    out: str | Path,
    grid: Grid | None = None,
    interval: float = 2.0,
    iterations: int | None = None,
    rolling: int = DEFAULT_ROLLING,
    anomaly_limit: int = DEFAULT_ANOMALY_LIMIT,
    emit: Callable[[str], None] | None = None,
    clear: bool | None = None,
    _sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Tail ``out`` and render a dashboard frame every ``interval`` seconds.

    ``iterations=None`` runs until interrupted (Ctrl-C exits cleanly);
    a number renders that many frames and returns -- the scriptable mode
    smoke tests and CI use.  ``clear=None`` clears the screen between frames
    only when stdout is a tty; ``False`` never clears (frames append, which
    is what you want when piping to a file).
    """
    if emit is None:
        emit = lambda text: print(text, flush=True)  # noqa: E731
    if clear is None:
        clear = sys.stdout.isatty()
    path = resolve_store_path(out)
    rendered = 0
    try:
        while True:
            if path.exists():
                frame = render_dashboard(
                    open_store(path),
                    grid=grid,
                    rolling=rolling,
                    anomaly_limit=anomaly_limit,
                )
            else:
                frame = (
                    f"campaign watch -- waiting for store {path} "
                    f"at {_utc_iso(time.time())}"
                )
            emit((CLEAR_SCREEN + frame) if clear else frame)
            rendered += 1
            if iterations is not None and rendered >= iterations:
                return 0
            _sleep(interval)
    except KeyboardInterrupt:
        return 0


__all__ = [
    "CLEAR_SCREEN",
    "DEFAULT_ANOMALY_LIMIT",
    "DEFAULT_ROLLING",
    "render_dashboard",
    "watch",
]
