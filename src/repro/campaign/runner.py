"""Campaign execution: run grid tasks serially or across a process pool.

:func:`run_task` is the single unit of work -- it maps the task to its
:class:`~repro.api.RunSpec` (:func:`~repro.campaign.tasks.runspec_for_task`),
which rebuilds the network/protocol/daemon from the spec's hash-derived
seeds, executes it through :func:`repro.api.run`, then stamps the task's
identity fields and config hash onto the flat result row.  Because
everything a task needs is derived from its config hash, a row is identical
whether it ran serially, on a pool worker, or in a resumed campaign -- which
is what makes ``--jobs 1`` and ``--jobs 4`` equivalent.

:class:`CampaignRunner` drives a whole :class:`~repro.campaign.grid.Grid`:
it skips tasks the store has already completed (``resume=True``), streams the
remaining ones through ``multiprocessing.Pool.imap`` (ordered, so the store's
line order matches the grid order regardless of worker count) and appends
each row to the store the moment it completes.  Rows in the store whose hash
the grid no longer produces (the grid was edited since they ran) are counted
as *stale* and reported instead of silently ignored.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator

from repro.api import run
from repro.api.spec import RECORDABLE_ENGINES
from repro.campaign.grid import Grid, TaskSpec
from repro.campaign.store import BaseResultStore
from repro.campaign.tasks import runspec_for_task
from repro.obs.instrument import Instrumentation
from repro.runtime.observers import ProgressObserver

ProgressCallback = Callable[[dict[str, object]], None]


class _LiveProgressEmitter:
    """Prefix live-progress lines with the task identity.

    A module-level class (not a closure) so the ``--live`` observer pickles
    into pool workers.
    """

    def __init__(self, label: str) -> None:
        self.label = label

    def __call__(self, message: str) -> None:
        print(f"  [{self.label}] {message}", flush=True)


def run_task(
    spec: TaskSpec,
    live_every: int | None = None,
    perf: bool = False,
    telemetry: bool | int = False,
    health: bool | int = False,
    record: "bool | str | None" = None,
) -> dict[str, object]:
    """Execute one campaign task and return its flat result row.

    The row merges the run's measurement (``n``, ``converged``, and the
    task-type-specific metrics) with the task's identity fields and hash, so
    a store row is self-describing and can be re-aggregated without the grid.

    ``live_every`` switches on per-step/round live progress *inside* the
    task: a :class:`~repro.runtime.observers.ProgressObserver` emitting a
    prefixed line every that many steps (plus scenario events and the
    convergence line) rides the engine's observer stream.  Observers never
    influence the measurement, so rows are identical with and without.

    ``perf`` attaches an :class:`~repro.obs.Instrumentation` registry to the
    run, embedding its phase-timer/counter summary in ``row["perf"]`` (read
    back with ``repro-campaign report --perf``).  Perf changes neither the
    measured execution nor the row's config hash -- only the extra ``perf``
    entry distinguishes an instrumented row.

    ``telemetry`` (``True`` or an int stride) samples the convergence
    time-series into ``row["telemetry"]``; ``health`` (``True`` or an int
    round budget) attaches the stall/budget watchdog, its anomalies landing
    in ``row["health"]``.  Like ``perf``, both are observer-stream-only:
    rows differ from unmonitored ones only by the extra keys.

    ``record`` (``True`` or a directory path) attaches the execution flight
    recorder: each task writes a replayable causal event log (keyed by its
    spec's canonical hash) and its row -- plus any health anomalies in it --
    gains a ``flight_log`` pointer.  Task types whose engine has no
    recordable execution stream (``msgpass``) simply run unrecorded.
    """
    runspec = runspec_for_task(spec)
    if record and runspec.engine in RECORDABLE_ENGINES:
        # The log file is keyed by the spec's canonical hash, so every task
        # of a recorded campaign gets its own log inside the one directory.
        runspec = replace(runspec, record=record)
    observers = ()
    if live_every:
        observers = (
            ProgressObserver(
                every_steps=live_every,
                emit=_LiveProgressEmitter(f"task {spec.index} {spec.protocol} n={spec.size}"),
            ),
        )
    row = run(
        runspec,
        observers=observers,
        instrumentation=Instrumentation() if perf else None,
        telemetry=telemetry or None,
        health=health or None,
    ).row
    row.update(spec.identity())
    row["config_hash"] = spec.config_hash
    row["task_index"] = spec.index
    return row


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` call.

    ``stale_hashes`` are config hashes found in the store that the grid no
    longer contains -- the signature of a grid edited since those rows ran.
    They are never deleted (another shard's grid may still own them) but are
    surfaced so ``--resume`` cannot silently orphan results.
    """

    total: int
    executed: int
    skipped: int
    rows: list[dict[str, object]]
    stale_hashes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def converged(self) -> int:
        return sum(1 for row in self.rows if row.get("converged"))

    @property
    def stale(self) -> int:
        return len(self.stale_hashes)


class CampaignRunner:
    """Execute grids against an optional persistent store.

    ``jobs <= 1`` runs in-process; ``jobs > 1`` fans tasks out to a
    ``multiprocessing`` pool.  Results stream back in grid order either way.
    ``live_every`` enables in-task live progress (see :func:`run_task`);
    with a pool the lines interleave across workers, each prefixed with its
    task identity.
    """

    def __init__(
        self,
        store: BaseResultStore | None = None,
        jobs: int = 1,
        live_every: int | None = None,
        perf: bool = False,
        telemetry: bool | int = False,
        health: bool | int = False,
        record: "bool | str | None" = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if live_every is not None and live_every < 1:
            raise ValueError("live_every must be >= 1")
        self.store = store
        self.jobs = jobs
        self.live_every = live_every
        self.perf = perf
        self.telemetry = telemetry
        self.health = health
        self.record = record

    def iter_results(
        self, pending: list[TaskSpec]
    ) -> Iterator[dict[str, object]]:
        """Yield result rows for ``pending`` tasks as they complete, in order."""
        task_runner = partial(
            run_task,
            live_every=self.live_every,
            perf=self.perf,
            telemetry=self.telemetry,
            health=self.health,
            record=self.record,
        )
        if self.jobs <= 1 or len(pending) <= 1:
            for spec in pending:
                yield task_runner(spec)
            return
        with multiprocessing.Pool(processes=self.jobs) as pool:
            # Ordered imap (not imap_unordered): rows still stream as workers
            # finish, but the store's line order stays the grid order, making
            # the stored rows identical for any --jobs value.
            yield from pool.imap(task_runner, pending, chunksize=1)

    def run(
        self,
        grid: Grid,
        resume: bool = False,
        progress: ProgressCallback | None = None,
        shard: tuple[int, int] | None = None,
    ) -> CampaignResult:
        """Run every task of ``grid`` that the store has not already completed.

        With ``resume=True`` (and a store) completed tasks are skipped and
        their stored rows are spliced into the returned ``rows`` list, which
        is always in grid order and always covers the whole grid.  ``shard``
        = ``(index, count)`` restricts execution to that hash-keyed slice of
        the grid (see :meth:`~repro.campaign.grid.Grid.shard`) -- the
        multi-machine split that ``merge`` later re-unites; staleness is
        still judged against the *whole* grid, so one shard never flags the
        other shards' rows.
        """
        tasks = grid.shard(*shard) if shard is not None else grid.expand()
        existing: dict[str, dict[str, object]] = {}
        if resume and self.store is not None:
            existing = self.store.rows_by_hash()
        pending = [task for task in tasks if task.config_hash not in existing]
        whole_grid = grid.expand() if shard is not None else tasks
        grid_hashes = {task.config_hash for task in whole_grid}
        stale = tuple(sorted(h for h in existing if h not in grid_hashes))

        fresh: dict[str, dict[str, object]] = {}
        for row in self.iter_results(pending):
            if self.store is not None:
                self.store.append(row)
            fresh[str(row["config_hash"])] = row
            if progress is not None:
                progress(row)

        rows = [
            fresh.get(task.config_hash, existing.get(task.config_hash))
            for task in tasks
        ]
        return CampaignResult(
            total=len(tasks),
            executed=len(pending),
            skipped=len(tasks) - len(pending),
            rows=[row for row in rows if row is not None],
            stale_hashes=stale,
        )


def run_grid(
    grid: Grid,
    store: BaseResultStore | None = None,
    jobs: int = 1,
    resume: bool = False,
    progress: ProgressCallback | None = None,
    live_every: int | None = None,
    shard: tuple[int, int] | None = None,
    perf: bool = False,
    telemetry: bool | int = False,
    health: bool | int = False,
    record: "bool | str | None" = None,
) -> CampaignResult:
    """Convenience wrapper: ``CampaignRunner(store, jobs).run(grid, ...)``."""
    return CampaignRunner(
        store=store,
        jobs=jobs,
        live_every=live_every,
        perf=perf,
        telemetry=telemetry,
        health=health,
        record=record,
    ).run(grid, resume=resume, progress=progress, shard=shard)


__all__ = ["CampaignResult", "CampaignRunner", "ProgressCallback", "run_grid", "run_task"]
