"""Command-line interface for experiment campaigns.

::

    python -m repro.campaign run --protocol dftno --sizes 8:64 --jobs 4 --out results/
    python -m repro.campaign run --protocol dftno --sizes 8:64 --shard 0/4 --out shard-a/
    python -m repro.campaign run --task-type scenario --scenario cascade \\
        --protocol dftno --protocol stno-bfs --daemon central --daemon distributed \\
        --sizes 10 --out results/
    python -m repro.campaign run --task-type msgpass --workload traversal \\
        --family complete --sizes 8,16 --out results/msgpass.sqlite
    python -m repro.campaign status --out results/
    python -m repro.campaign status --out results/ --protocol dftno --sizes 8:64
    python -m repro.campaign merge shard-a/ shard-b/ --out merged.jsonl
    python -m repro.campaign report --out results/ --metric recovery_steps_mean
    python -m repro.campaign report --out results/scenarios.jsonl --per-event
    python -m repro.campaign run --protocol dftno --sizes 8:32 --perf --out results/
    python -m repro.campaign report --out results/ --perf
    python -m repro.campaign run --protocol dftno --sizes 8:32 --telemetry --health \\
        --out results/
    python -m repro.campaign watch --out results/ --protocol dftno --sizes 8:32
    python -m repro.campaign watch --out results/ --once
    python -m repro.campaign report --out results/ --health
    python -m repro.campaign run --protocol dftno --sizes 10 --record --health --out results/
    python -m repro.campaign run --protocol dftno --sizes 10 \\
        --trace-export chrome://trace.json --out results/
    python -m repro.campaign status --out results/ --protocol dftno --sizes 8:64 --shard /4

``run`` expands the declarative grid, skips tasks the store already holds
(``--resume``), executes the rest on ``--jobs`` workers and streams one line
per completed task; each task is a :class:`~repro.api.RunSpec` executed
through :func:`repro.api.run`.  ``--shard I/K`` executes only the hash-keyed
slice ``I`` of ``K`` of the grid (deterministic and disjoint across slices),
so K machines can each run one slice against their own store and ``merge``
re-unites the results.  ``--live [STEPS]`` additionally streams
per-step/round progress from *inside* each task (via the engines' observer
stream), so a single long-running task is no longer silent until it
finishes.  Stores are JSONL by default; an ``--out``
ending in ``.sqlite`` / ``.db`` selects the SQLite backend.  Both carry
store-level metadata (grid description, code version, created-at) for
provenance.  ``status`` summarizes the store; given grid options it also
reports completed/pending counts, *stale* rows (hashes the edited grid no
longer produces), and a rows-per-second / ETA estimate from the store's
timestamps.  ``merge`` unions several stores by config hash -- the
distributed-execution path: shard one grid across machines, then merge the
files (mixing backends is fine).  ``report`` aggregates a store into a table
plus a linear fit, picking metric columns that match the stored task types;
``report --per-event`` aggregates scenario rows by event kind instead.

``run --perf`` attaches the observability layer's instrumentation to every
task, persisting each row's phase-timer/counter summary under ``perf``
(hashes and measured results are unchanged); ``report --perf`` merges the
stored summaries into a where-does-the-time-go table.  ``run --telemetry``
and ``run --health`` likewise persist each row's convergence time-series and
stall-watchdog anomalies (``telemetry`` / ``health`` keys; read back with
``report --health`` and the ``watch`` anomaly feed).  ``watch`` tails a
store with a live dashboard (progress, ETA, rolling phase breakdown,
anomaly feed) while a concurrent ``run`` writes to it (``watch --once``
renders a single plain-text snapshot and exits -- the scripting/CI mode);
``status --shard [I]/K`` breaks the grid comparison down per hash-keyed
slice.  ``run --record [DIR]`` attaches the execution flight recorder to
every task: each task writes a replayable causal event log under ``DIR``
(default ``flightlogs/``) and its row -- plus any health anomalies -- gains
a ``flight_log`` pointer that ``watch`` and ``report --health`` surface
(replay with ``repro-replay``).  ``run --trace-export chrome://FILE``
collects the campaign's span trace and converts it to a Chrome trace file
loadable in Perfetto.  All
timestamps the CLI renders (store creation, ETA) are timezone-explicit UTC
ISO-8601, so two machines reading the same store agree on them.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.analysis.reporting import format_table
from repro.campaign.aggregate import aggregate_rows, fit_aggregate, metrics_for_rows
from repro.api.spec import DAEMONS, PROTOCOLS
from repro.campaign.grid import DEFAULT_TASK_TYPE, TASK_ENGINES, Grid, parse_axis, parse_shard
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import open_store, resolve_store_path
from repro.campaign.watch import (
    _format_duration,
    _provenance_line,
    _task_type_table,
    _utc_iso,
    watch,
)
from repro.errors import ReproError

#: Grid-defining options shared by ``run`` and ``status``; used to detect
#: whether a ``status`` invocation asked for a grid comparison at all.
_GRID_ARGS = (
    "task_type",
    "scenarios",
    "workloads",
    "protocols",
    "families",
    "sizes",
    "heights",
    "daemons",
    "trials",
    "seed",
    "after_substrate",
)


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """The options that define a grid (defaults resolved in :func:`_build_grid`)."""
    parser.add_argument(
        "--task-type",
        dest="task_type",
        default=None,
        metavar="NAME",
        help="what each task computes "
        f"(default {DEFAULT_TASK_TYPE}; choices: {', '.join(TASK_ENGINES)})",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="library scenario to sweep (repeatable; requires --task-type scenario)",
    )
    parser.add_argument(
        "--workload",
        action="append",
        dest="workloads",
        metavar="NAME",
        help="msgpass workload to sweep: broadcast, traversal, election "
        "(repeatable; requires --task-type msgpass)",
    )
    parser.add_argument(
        "--protocol",
        action="append",
        dest="protocols",
        metavar="NAME",
        help=f"protocol to sweep (repeatable; default dftno; choices: {', '.join(PROTOCOLS)})",
    )
    parser.add_argument(
        "--family",
        action="append",
        dest="families",
        metavar="NAME",
        help="topology family (repeatable; default random_connected)",
    )
    parser.add_argument(
        "--sizes",
        default=None,
        metavar="SPEC",
        help="network sizes: '8,16,24' list, '8:64' doubling sweep, or '8:64:8' stepped (default 8:32)",
    )
    parser.add_argument(
        "--heights",
        default=None,
        metavar="SPEC",
        help="tree heights (same spec syntax); switches the sweep to height-controlled trees",
    )
    parser.add_argument(
        "--daemon",
        action="append",
        dest="daemons",
        metavar="KIND",
        help=f"daemon kind (repeatable; default distributed; choices: {', '.join(DAEMONS)})",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="trials per configuration (default 3)"
    )
    parser.add_argument("--seed", type=int, default=None, help="grid base seed (default 0)")
    parser.add_argument(
        "--after-substrate",
        action="store_true",
        help="start from a configuration whose substrate layer is already stabilized",
    )


def _grid_requested(args: argparse.Namespace) -> bool:
    """Whether any grid-defining option was given (``status`` comparison mode)."""
    if args.after_substrate:
        return True
    return any(
        getattr(args, name) is not None for name in _GRID_ARGS if name != "after_substrate"
    )


def _build_grid(args: argparse.Namespace) -> Grid:
    """Resolve the shared grid options (with their documented defaults)."""
    return Grid(
        sizes=parse_axis(args.sizes if args.sizes is not None else "8:32"),
        protocols=tuple(args.protocols or ("dftno",)),
        families=tuple(args.families or ("random_connected",)),
        daemons=tuple(args.daemons or ("distributed",)),
        heights=parse_axis(args.heights) if args.heights else None,
        trials=args.trials if args.trials is not None else 3,
        seed=args.seed if args.seed is not None else 0,
        after_substrate=args.after_substrate,
        task_type=args.task_type or DEFAULT_TASK_TYPE,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        workloads=tuple(args.workloads) if args.workloads else None,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Parallel, resumable experiment campaigns for the orientation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand a grid and execute its tasks")
    _add_grid_options(run)
    run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    run.add_argument(
        "--out",
        default="results",
        metavar="PATH",
        help="store directory or .jsonl file (default results/)",
    )
    run.add_argument(
        "--resume", action="store_true", help="skip tasks already completed in the store"
    )
    run.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help="execute only hash-keyed slice I of K of the grid (0-based), e.g. "
        "--shard 0/4; run each slice on its own machine, then re-unite the "
        "stores with 'repro-campaign merge'",
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-task progress lines")
    run.add_argument(
        "--perf",
        action="store_true",
        help="attach run instrumentation to every task and persist each row's "
        "phase-timer/counter summary under 'perf' (read back with "
        "'repro-campaign report --perf'); hashes and results are unchanged",
    )
    run.add_argument(
        "--telemetry",
        nargs="?",
        const=0,
        type=int,
        default=None,
        metavar="STRIDE",
        help="sample each task's convergence time-series (enabled-set drain, "
        "guard heat map, writes per node) every STRIDE steps (default stride "
        "when the flag is given bare) and persist it under 'telemetry'; "
        "hashes and results are unchanged",
    )
    run.add_argument(
        "--health",
        nargs="?",
        const=0,
        type=int,
        default=None,
        metavar="BUDGET",
        help="attach the stall/divergence watchdog to every task (round "
        "budget BUDGET, derived from the topology when the flag is given "
        "bare) and persist its anomalies under 'health' (read back with "
        "'repro-campaign report --health' or the watch anomaly feed)",
    )
    run.add_argument(
        "--record",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="attach the execution flight recorder to every task: each task "
        "appends a replayable causal event log (daemon choices, write-sets, "
        "mutations, frontier exchanges) under DIR (default flightlogs/), "
        "keyed by its spec's canonical hash; rows and their health anomalies "
        "gain a 'flight_log' pointer (replay with 'repro-replay')",
    )
    run.add_argument(
        "--trace-export",
        default=None,
        metavar="chrome://FILE",
        help="after the campaign, export the span trace as a Chrome trace "
        "file at FILE (load in ui.perfetto.dev or chrome://tracing); spans "
        "are collected into FILE.spans.jsonl unless REPRO_TRACE already "
        "names a trace file",
    )
    run.add_argument(
        "--live",
        nargs="?",
        const=1_000,
        type=int,
        default=None,
        metavar="STEPS",
        help="live per-step/round progress inside long tasks: emit a line every "
        "STEPS scheduler steps (default 1000 when the flag is given bare), plus "
        "scenario events and convergence",
    )
    run.add_argument(
        "--lint",
        action="store_true",
        help="pre-flight: lint (repro-lint, read probe included) every protocol "
        "layer the grid references and refuse to start the campaign on any finding",
    )

    status = sub.add_parser(
        "status",
        help="summarize a campaign store (add grid options to check it against a grid)",
    )
    status.add_argument("--out", default="results", metavar="PATH", help="store path")
    _add_grid_options(status)
    status.add_argument(
        "--shard",
        default=None,
        metavar="[I]/K",
        help="with grid options: per-shard completed/pending/stale view -- "
        "'--shard 1/4' reports slice 1 of 4, '--shard /4' tabulates all "
        "4 slices (the multi-machine split 'run --shard' executes)",
    )

    watch_cmd = sub.add_parser(
        "watch",
        help="live dashboard tailing a store while a campaign writes to it",
    )
    watch_cmd.add_argument("--out", default="results", metavar="PATH", help="store path")
    _add_grid_options(watch_cmd)
    watch_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default 2.0)",
    )
    watch_cmd.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames and exit (default: run until Ctrl-C)",
    )
    watch_cmd.add_argument(
        "--rolling",
        type=int,
        default=20,
        metavar="ROWS",
        help="perf rows feeding the rolling phase breakdown (default 20)",
    )
    watch_cmd.add_argument(
        "--once",
        action="store_true",
        help="render a single plain-text snapshot frame and exit 0 -- the "
        "stateless scripting/CI mode (equivalent to --iterations 1 with "
        "screen clearing off)",
    )
    watch_cmd.add_argument(
        "--no-clear",
        action="store_true",
        help="never clear the screen between frames (frames append; use when "
        "piping output to a file)",
    )

    merge = sub.add_parser("merge", help="union campaign stores by config hash")
    merge.add_argument(
        "inputs",
        nargs="+",
        metavar="STORE",
        help="source stores (.jsonl files or directories) to merge in order",
    )
    merge.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="target store; existing rows win over merged duplicates",
    )

    report = sub.add_parser("report", help="aggregate a store into a table and fit")
    report.add_argument("--out", default="results", metavar="PATH", help="store path")
    report.add_argument(
        "--key", default="parameter", help="row column to group by (default parameter)"
    )
    report.add_argument(
        "--metric",
        default=None,
        help="aggregated column to fit against the key "
        "(default: first metric present, e.g. overlay_steps_mean)",
    )
    report.add_argument(
        "--per-event",
        action="store_true",
        dest="per_event",
        help="aggregate stored scenario rows per event kind "
        "(recovery steps/disturbance by corruption, crash, link change, ...)",
    )
    report.add_argument(
        "--perf",
        action="store_true",
        help="merge the perf summaries persisted by 'run --perf' into a "
        "phase-time / counter breakdown",
    )
    report.add_argument(
        "--health",
        action="store_true",
        help="summarize the health blobs persisted by 'run --health': "
        "monitored/anomalous row counts, anomalies by kind, and the "
        "flagged rows' identities",
    )
    return parser


def _trace_export_target(text: str | None) -> str | None:
    """Parse ``--trace-export chrome://FILE`` into the destination path."""
    if text is None:
        return None
    prefix = "chrome://"
    if not text.startswith(prefix) or not text[len(prefix):]:
        raise ValueError(
            f"bad --trace-export spec {text!r}; the only supported format is "
            "chrome://FILE (the Chrome trace JSON file to write)"
        )
    return text[len(prefix):]


def _run_with_trace_export(runner, grid, args, shard, progress, destination):
    """Run the campaign with span tracing on, then export a Chrome trace.

    If ``REPRO_TRACE`` already names a span file it is respected (and left
    set); otherwise spans are collected into ``destination + '.spans.jsonl'``
    for the duration of the campaign.  Pool workers inherit the variable, so
    their runs' spans land in the same file.
    """
    import os

    from repro.obs.spans import TRACE_ENV, export_chrome_trace

    source = os.environ.get(TRACE_ENV, "").strip()
    owns_env = not source
    if owns_env:
        source = destination + ".spans.jsonl"
        os.environ[TRACE_ENV] = source
    try:
        result = runner.run(grid, resume=args.resume, progress=progress, shard=shard)
    finally:
        if owns_env:
            del os.environ[TRACE_ENV]
    if not os.path.exists(source):
        # Every task resumed, so no run ever opened the span file.
        open(source, "w", encoding="utf-8").close()
    events = export_chrome_trace(source, destination)
    print(f"trace export: {events} span(s) -> {destination} (chrome trace format)")
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    grid = _build_grid(args)
    if args.lint:
        # Pre-flight before the store is even opened: a protocol layer that
        # fails repro-lint (static rules and read probe alike) would burn the
        # whole campaign's compute on runs whose locality assumptions are broken.
        from repro.lint import format_findings, lint_paths, modules_for_protocols

        modules = modules_for_protocols(grid.protocols)
        findings = lint_paths(modules)
        if findings:
            print(format_findings(findings, title="campaign pre-flight lint"))
            print(
                f"repro-campaign: refusing to start: {len(findings)} lint "
                f"finding(s) in {len(modules)} protocol module(s)",
                file=sys.stderr,
            )
            return 2
        if not args.quiet:
            names = ", ".join(grid.protocols)
            print(f"pre-flight lint OK: {names} ({len(modules)} modules clean)")
    shard = parse_shard(args.shard) if args.shard else None
    store = open_store(resolve_store_path(args.out))
    # Provenance: every run stamps the grid it executed, the code version and
    # (once) the creation time into the store-level metadata.
    from repro import __version__ as code_version

    updates: dict[str, object] = {"grid": grid.as_dict(), "code_version": code_version}
    if "created_at" not in store.metadata():
        now = time.time()
        updates["created_at"] = now
        updates["created_at_iso"] = _utc_iso(now)
    store.update_metadata(**updates)
    # Bare --telemetry / --health (argparse const 0) means "defaults, on".
    telemetry = True if args.telemetry == 0 else (args.telemetry or False)
    health = True if args.health == 0 else (args.health or False)
    runner = CampaignRunner(
        store=store,
        jobs=args.jobs,
        live_every=args.live,
        perf=args.perf,
        telemetry=telemetry,
        health=health,
        record=args.record,
    )
    trace_export = _trace_export_target(args.trace_export)

    def progress(row: dict[str, object]) -> None:
        if not args.quiet:
            status = "ok" if row.get("converged") else "DID NOT CONVERGE"
            extra = f" scenario={row['scenario']}" if row.get("scenario") else ""
            if row.get("task_type") == "msgpass" and row.get("workload"):
                extra += f" workload={row['workload']}"
            print(
                f"[{row['task_index']}] {row['protocol']} {row['family']} "
                f"n={row['size']} daemon={row['daemon']}{extra} trial={row['trial']} "
                f"hash={row['config_hash']} ... {status}",
                flush=True,
            )

    if trace_export is not None:
        result = _run_with_trace_export(runner, grid, args, shard, progress, trace_export)
    else:
        result = runner.run(grid, resume=args.resume, progress=progress, shard=shard)
    shard_note = (
        f" (shard {shard[0]}/{shard[1]} of a {len(grid)}-task grid)" if shard else ""
    )
    print(
        f"campaign: {result.total} tasks{shard_note}, {result.executed} executed, "
        f"{result.skipped} skipped (resumed), {result.converged}/{result.total} converged "
        f"-> {store.path}"
    )
    if result.stale:
        print(
            f"note: {result.stale} stale row(s) in the store are not part of this "
            f"grid (see 'repro-campaign status' with the same grid options)"
        )
    return 0 if result.converged == result.total else 1


def _parse_status_shard(text: str) -> tuple[int | None, int]:
    """``status --shard`` spec: ``I/K`` one slice, ``/K`` (or ``all/K``) all.

    Returns ``(index, count)`` with ``index=None`` meaning "tabulate every
    slice"; delegates single-slice validation to :func:`parse_shard`.
    """
    head, sep, tail = text.strip().partition("/")
    if sep and head in ("", "all", "*"):
        try:
            count = int(tail)
        except ValueError as exc:
            raise ValueError(
                f"bad shard spec {text!r}; use INDEX/COUNT or /COUNT"
            ) from exc
        if count < 1:
            raise ValueError(f"bad shard spec {text!r}; COUNT must be >= 1")
        return None, count
    return parse_shard(text)


def _shard_status_table(
    grid: Grid, stored: set[str], index: int | None, count: int
) -> list[dict[str, object]]:
    """Per-shard completed/pending/stale rows for the ``status --shard`` view.

    Staleness is judged against the *whole* grid (matching ``run --shard``):
    a stored hash no shard's grid produces is stale, and is charged to the
    slice its hash keys to -- so K machines each see their own orphans.
    """
    grid_hashes = {task.config_hash for task in grid.expand()}
    indices = range(count) if index is None else (index,)
    table = []
    for i in indices:
        shard_hashes = {h for h in grid_hashes if int(h, 16) % count == i}
        shard_stale = {
            h for h in stored if h not in grid_hashes and int(h, 16) % count == i
        }
        completed = shard_hashes & stored
        table.append(
            {
                "shard": f"{i}/{count}",
                "tasks": len(shard_hashes),
                "completed": len(completed),
                "pending": len(shard_hashes - stored),
                "stale": len(shard_stale),
                "done": (
                    f"{100.0 * len(completed) / len(shard_hashes):.0f}%"
                    if shard_hashes
                    else "-"
                ),
            }
        )
    return table


def _cmd_status(args: argparse.Namespace) -> int:
    path = resolve_store_path(args.out)
    store = open_store(path)
    rows = store.rows()
    print(f"store: {path} ({store.backend}, {len(rows)} rows)")
    for line in (_provenance_line(store.metadata()), _task_type_table(rows)):
        if line:
            print(line)

    if args.shard and not _grid_requested(args):
        raise ValueError(
            "status --shard needs the grid options the campaign ran with "
            "(e.g. --protocol/--sizes), so the slices can be recomputed"
        )
    if _grid_requested(args):
        grid = _build_grid(args)
        grid_hashes = {task.config_hash for task in grid.expand()}
        stored = store.completed_hashes()
        completed = grid_hashes & stored
        pending = grid_hashes - stored
        stale = sorted(stored - grid_hashes)
        print(
            f"against grid: {len(grid_hashes)} tasks, {len(completed)} completed, "
            f"{len(pending)} pending, {len(stale)} stale"
        )
        # Progress/ETA from store timestamps: both backends stamp every row;
        # JSONL stores from before the per-row timestamps fall back to the
        # created_at .. mtime approximation.
        rate = store.throughput()
        if grid_hashes:
            percent = 100.0 * len(completed) / len(grid_hashes)
            progress_line = f"progress: {len(completed)}/{len(grid_hashes)} ({percent:.0f}%)"
            if rate is not None:
                progress_line += f", {rate:.2f} rows/s"
                if pending:
                    eta_seconds = len(pending) / rate
                    done_at = _utc_iso(time.time() + eta_seconds)
                    progress_line += f", ETA {_format_duration(eta_seconds)} (~{done_at})"
            elif pending:
                progress_line += ", rate unknown (no store timestamps yet)"
            print(progress_line)
        if args.shard:
            index, count = _parse_status_shard(args.shard)
            table = _shard_status_table(grid, stored, index, count)
            print(format_table(table, title=f"per-shard status ({count} slices)"))
        if stale:
            print(
                "stale rows (in the store but not in this grid -- the grid "
                "changed since they ran):"
            )
            shown = stale[:20]
            for config_hash in shown:
                print(f"  {config_hash}")
            if len(stale) > len(shown):
                print(f"  ... and {len(stale) - len(shown)} more")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    grid = _build_grid(args) if _grid_requested(args) else None
    # --once is the stateless snapshot mode: one plain-text frame, exit 0.
    iterations = 1 if args.once else args.iterations
    clear = False if (args.once or args.no_clear) else None
    return watch(
        args.out,
        grid=grid,
        interval=args.interval,
        iterations=iterations,
        rolling=args.rolling,
        clear=clear,
    )


def _cmd_merge(args: argparse.Namespace) -> int:
    source_paths = [resolve_store_path(source) for source in args.inputs]
    # Read and validate every source before touching the target, so neither a
    # typo'd path nor a bad row in a later source can leave a half-merged
    # store behind.
    sources: list[tuple[object, list[dict[str, object]]]] = []
    for source_path in source_paths:
        if not source_path.exists():
            raise ValueError(f"source store {source_path} does not exist")
        source_rows = open_store(source_path).rows()
        for row in source_rows:
            if not isinstance(row.get("config_hash"), str) or not row["config_hash"]:
                raise ValueError(
                    f"source store {source_path} has a row without a config_hash"
                )
        sources.append((source_path, source_rows))
    target = open_store(resolve_store_path(args.out))
    before = len(target)
    total_rows = 0
    for source_path, source_rows in sources:
        added = target.extend(source_rows)
        total_rows += len(source_rows)
        print(f"merged {source_path}: {len(source_rows)} rows, {added} new")
    print(
        f"merge: {total_rows} rows from {len(args.inputs)} store(s), "
        f"{len(target) - before} new, {len(target)} total -> {target.path}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = open_store(resolve_store_path(args.out))
    rows = sorted(store.rows(), key=lambda row: row.get("task_index", 0))
    if not rows:
        print("store is empty; run a campaign first")
        return 1
    if args.per_event:
        return _report_per_event(rows)
    if args.perf:
        return _report_perf(rows)
    if args.health:
        return _report_health(rows)
    if any(args.key not in row for row in rows):
        # Grouping needs the key in *every* row, so offer only the columns
        # every row shares (a mixed-task-type store has per-type extras).
        common = set(rows[0])
        for row in rows:
            common &= set(row)
        raise ValueError(
            f"column {args.key!r} missing from some stored rows; "
            f"columns present in every row: {', '.join(sorted(common))}"
        )
    metrics = metrics_for_rows(rows)
    aggregated = aggregate_rows(rows, by=args.key, metrics=metrics)
    print(format_table(aggregated, title=f"campaign aggregate by {args.key}"))
    metric = args.metric
    if metric is None or metric not in aggregated[0]:
        fallback = metrics[0][1]
        if metric is not None:
            print(f"metric {metric!r} not in this store's aggregates; using {fallback!r}")
        metric = fallback
    fit = fit_aggregate(aggregated, args.key, metric)
    if fit is None:
        print(
            f"fit of {metric} vs {args.key}: not available "
            f"(needs >= 2 distinct numeric key points)"
        )
    else:
        print(
            f"fit of {metric} vs {args.key}: slope={fit['slope']:.3f} "
            f"intercept={fit['intercept']:.3f} r_squared={fit['r_squared']:.3f}"
        )
    return 0


def _report_per_event(rows: list[dict[str, object]]) -> int:
    """The ``report --per-event`` view: recovery aggregates by event kind.

    Rebuilds :class:`~repro.analysis.recovery.ScenarioReport` objects from the
    ``event_records`` persisted in scenario task rows and feeds them to
    :func:`~repro.analysis.recovery.aggregate_event_recoveries`; rows without
    records (non-scenario tasks, pre-API stores) are counted and skipped.
    """
    from repro.analysis.recovery import ScenarioReport, aggregate_event_recoveries

    reports = []
    skipped = 0
    for row in rows:
        try:
            reports.append(ScenarioReport.from_row(row))
        except (KeyError, TypeError, ValueError):
            skipped += 1
    if not reports:
        print(
            "no stored rows carry per-event records; run a scenario campaign "
            "(--task-type scenario) with this code version first"
        )
        return 1
    aggregated = aggregate_event_recoveries(reports)
    print(
        format_table(
            aggregated,
            title=f"per-event recovery across {len(reports)} scenario runs",
        )
    )
    if skipped:
        print(f"note: {skipped} row(s) without per-event records were skipped")
    return 0


def _report_perf(rows: list[dict[str, object]]) -> int:
    """The ``report --perf`` view: where does the time go, across the store.

    Merges every stored ``perf`` summary (they merge associatively, see
    :func:`repro.obs.merge_summaries`) and renders the phase-time breakdown,
    the headline counters, and -- when sharded rows contributed -- the
    per-shard skew.  Rows without a summary (uninstrumented runs, pre-perf
    stores) are counted and skipped.
    """
    from repro.obs import merge_summaries, phase_seconds

    summaries = [row["perf"] for row in rows if isinstance(row.get("perf"), dict)]
    if not summaries:
        # Not an error: an uninstrumented store is the default state.  Say
        # clearly how to get perf rows and exit clean so scripts composing
        # 'report --perf' over many stores do not trip on the plain ones.
        print(
            f"none of the {len(rows)} stored rows carry perf summaries; "
            "re-run the campaign with 'repro-campaign run --perf' to collect "
            "phase timers (hashes and measured results are unchanged)"
        )
        return 0
    merged = merge_summaries(*summaries)
    total = phase_seconds(merged) or 1.0
    phase_table = [
        {
            "phase": name,
            "seconds": f"{stats['seconds']:.4f}",
            "calls": stats["count"],
            "share": f"{100.0 * stats['seconds'] / total:.1f}%",
        }
        for name, stats in sorted(
            merged.get("phases", {}).items(),
            key=lambda item: item[1]["seconds"],
            reverse=True,
        )
    ]
    print(
        format_table(
            phase_table,
            title=f"phase time across {len(summaries)} instrumented rows",
        )
    )
    counters = merged.get("counters", {})
    if counters:
        rendered = ", ".join(
            f"{name}={value:g}" for name, value in sorted(counters.items())
        )
        print(f"counters: {rendered}")
    skipped = len(rows) - len(summaries)
    if skipped:
        print(f"note: {skipped} row(s) without perf summaries were skipped")
    return 0


def _report_health(rows: list[dict[str, object]]) -> int:
    """The ``report --health`` view: watchdog anomalies across the store.

    Aggregates the ``health`` blobs persisted by ``run --health`` (see
    :func:`repro.obs.health_summary`): monitored/anomalous counts, anomalies
    by kind, and one table row per flagged task.  Exits 1 iff anomalies were
    recorded, so the command doubles as a scriptable campaign health gate.
    """
    from repro.obs import health_summary

    summary = health_summary(rows)
    if not summary["monitored"]:
        print(
            f"none of the {len(rows)} stored rows carry health records; "
            "re-run the campaign with 'repro-campaign run --health' to attach "
            "the stall/divergence watchdog"
        )
        return 0
    print(
        f"health: {summary['monitored']}/{summary['rows']} rows monitored, "
        f"{summary['anomalous']} anomalous"
    )
    if not summary["anomalous"]:
        print("no anomalies recorded -- all monitored runs progressed and converged")
        return 0
    by_kind = ", ".join(
        f"{kind}={count}" for kind, count in sorted(summary["by_kind"].items())
    )
    print(f"anomalies by kind: {by_kind}")
    print(format_table(summary["flagged"], title="anomalous rows"))
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "merge":
            return _cmd_merge(args)
        return _cmd_report(args)
    except (ValueError, OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
