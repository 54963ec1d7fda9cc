"""Live dashboard: frame rendering, concurrent-writer tailing, CLI loop."""

from __future__ import annotations

import threading

import pytest

from repro.campaign import ResultStore, SqliteResultStore
from repro.campaign.cli import _parse_status_shard, _shard_status_table
from repro.campaign.cli import main as campaign_main
from repro.campaign.grid import Grid
from repro.campaign.runner import run_grid, run_task
from repro.campaign.watch import (
    CLEAR_SCREEN,
    _format_duration,
    render_dashboard,
    watch,
)

TINY_GRID = Grid(sizes=(5, 6), protocols=("dftno",), families=("ring",), trials=1, seed=11)


def test_render_dashboard_empty_store(tmp_path):
    store = ResultStore(tmp_path / "empty.jsonl")
    frame = render_dashboard(store)
    assert "campaign watch --" in frame
    assert "0 rows" in frame


def test_render_dashboard_progress_and_tables(tmp_path):
    store = ResultStore(tmp_path / "rows.jsonl")
    run_grid(TINY_GRID, store=store, perf=True, health=True)
    frame = render_dashboard(ResultStore(store.path), grid=TINY_GRID)
    assert "2 rows" in frame
    assert "progress: 2/2 tasks (100%)" in frame
    assert "dftno" in frame and "ring" in frame
    # perf rows feed the rolling phase view; healthy health rows say so.
    assert "rolling phase breakdown" in frame
    assert "guard_eval" in frame
    assert "anomalies: none (all monitored rows healthy)" in frame


def test_render_dashboard_anomaly_feed(tmp_path):
    store = ResultStore(tmp_path / "sick.jsonl")
    store.append(
        {
            "config_hash": "abc",
            "task_index": 3,
            "protocol": "dftno",
            "size": 9,
            "health": {
                "anomalies": [{"kind": "stall", "step": 41, "detail": "revisited"}]
            },
        }
    )
    frame = render_dashboard(ResultStore(store.path))
    assert "anomalies (last 1):" in frame
    assert "task 3 (dftno n=9): stall at step 41 -- revisited" in frame


def test_render_dashboard_against_concurrent_writer(tmp_path):
    """Acceptance criterion: watch renders live progress while a campaign
    writes to the same store.  A writer thread appends real task rows; every
    frame rendered mid-write must parse and show a monotonically growing row
    count, ending at the full grid."""
    grid = Grid(sizes=(5, 6), protocols=("dftno",), families=("ring", "star"),
                trials=1, seed=7)
    specs = grid.expand()
    rows = [run_task(spec, health=True) for spec in specs]

    store_path = tmp_path / "live.jsonl"
    started = threading.Event()

    def writer() -> None:
        store = ResultStore(store_path)
        for row in rows:
            store.append(row)
            started.set()
    thread = threading.Thread(target=writer)
    thread.start()
    started.wait(timeout=10)

    counts = []
    try:
        for _ in range(50):
            frame = render_dashboard(ResultStore(store_path), grid=grid)
            assert "campaign watch --" in frame
            count = int(frame.split("(jsonl, ")[1].split(" rows")[0])
            counts.append(count)
            if count == len(specs):
                break
    finally:
        thread.join(timeout=10)
    final = render_dashboard(ResultStore(store_path), grid=grid)
    assert f"progress: {len(specs)}/{len(specs)} tasks (100%)" in final
    assert counts == sorted(counts), "row count must only grow while tailing"


def test_watch_iterations_mode_and_waiting_frame(tmp_path):
    frames: list[str] = []
    sleeps: list[float] = []
    missing = tmp_path / "not-yet.jsonl"
    assert (
        watch(
            missing,
            interval=0.5,
            iterations=2,
            emit=frames.append,
            clear=False,
            _sleep=sleeps.append,
        )
        == 0
    )
    assert len(frames) == 2
    assert all("waiting for store" in frame for frame in frames)
    assert sleeps == [0.5], "no sleep after the final frame"

    ResultStore(missing).append({"config_hash": "abc", "converged": True})
    frames.clear()
    watch(missing, iterations=1, emit=frames.append, clear=False, _sleep=sleeps.append)
    assert "1 rows" in frames[0]
    assert CLEAR_SCREEN not in frames[0]


def test_watch_clear_mode_prefixes_frames(tmp_path):
    frames: list[str] = []
    watch(
        tmp_path / "gone.jsonl",
        iterations=1,
        emit=frames.append,
        clear=True,
        _sleep=lambda _: None,
    )
    assert frames[0].startswith(CLEAR_SCREEN)


def test_watch_tolerates_sqlite_backend(tmp_path):
    store = SqliteResultStore(tmp_path / "rows.sqlite")
    run_grid(TINY_GRID, store=store)
    frames: list[str] = []
    watch(store.path, grid=TINY_GRID, iterations=1, emit=frames.append, clear=False)
    assert "sqlite, 2 rows" in frames[0]
    assert "progress: 2/2 tasks (100%)" in frames[0]


def test_cli_watch_renders_frames(tmp_path, capsys):
    store = ResultStore(tmp_path / "cli.jsonl")
    run_grid(TINY_GRID, store=store)
    code = campaign_main(
        [
            "watch",
            "--out", str(store.path),
            "--protocol", "dftno", "--family", "ring",
            "--sizes", "5,6", "--trials", "1", "--seed", "11",
            "--interval", "0.01", "--iterations", "2", "--no-clear",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("campaign watch --") == 2
    assert "progress: 2/2 tasks (100%)" in out


def test_format_duration_buckets():
    assert _format_duration(12) == "12s"
    assert _format_duration(123) == "2m 03s"
    assert _format_duration(3840) == "1h 04m"


# ----------------------------------------------------------------------
# status --shard helpers
# ----------------------------------------------------------------------
def test_parse_status_shard_forms():
    assert _parse_status_shard("1/4") == (1, 4)
    assert _parse_status_shard("/4") == (None, 4)
    assert _parse_status_shard("all/3") == (None, 3)
    assert _parse_status_shard("*/2") == (None, 2)
    with pytest.raises(ValueError):
        _parse_status_shard("/0")
    with pytest.raises(ValueError):
        _parse_status_shard("x/2")


def test_shard_status_table_covers_grid_and_charges_stale():
    hashes = [task.config_hash for task in TINY_GRID.expand()]
    stored = {hashes[0], "f" * 40}  # one real row plus an orphan
    table = _shard_status_table(TINY_GRID, stored, None, 2)
    assert [row["shard"] for row in table] == ["0/2", "1/2"]
    assert sum(row["tasks"] for row in table) == len(hashes)
    assert sum(row["completed"] for row in table) == 1
    assert sum(row["pending"] for row in table) == len(hashes) - 1
    # The orphan hash is stale exactly once, on the slice it keys to.
    assert sum(row["stale"] for row in table) == 1
    orphan_slice = int("f" * 40, 16) % 2
    assert table[orphan_slice]["stale"] == 1

    single = _shard_status_table(TINY_GRID, stored, 1, 2)
    assert len(single) == 1 and single[0]["shard"] == "1/2"


def test_cli_watch_once_renders_a_single_snapshot(tmp_path, capsys):
    store = ResultStore(tmp_path / "once.jsonl")
    rows = [run_task(spec, perf=True, telemetry=True) for spec in TINY_GRID.expand()]
    # A row as the removed sharded engine stored it: per-worker perf
    # summaries and per-shard move counts.  Both views must still render it.
    worker = {"counters": {"guards_evaluated": 5}, "phases": {}}
    rows[0]["perf"]["shards"] = {"0": worker, "1": worker}
    rows[0]["telemetry"]["shard_moves"] = {"0": 3, "1": 4}
    for row in rows:
        store.append(row)
    code = campaign_main(
        [
            "watch",
            "--out", str(store.path),
            "--protocol", "dftno", "--family", "ring",
            "--sizes", "5,6", "--trials", "1", "--seed", "11",
            "--once",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    # Exactly one frame, never cleared: --once is for pipes and CI logs.
    assert out.count("campaign watch --") == 1
    assert CLEAR_SCREEN not in out
    assert "progress: 2/2 tasks (100%)" in out
    assert "rolling phase breakdown" in out
    assert campaign_main(["report", "--out", str(store.path), "--perf"]) == 0
    assert "phase time across 2 instrumented rows" in capsys.readouterr().out


def test_cli_watch_once_overrides_iterations(tmp_path, capsys):
    store = ResultStore(tmp_path / "once2.jsonl")
    run_grid(TINY_GRID, store=store)
    code = campaign_main(
        [
            "watch",
            "--out", str(store.path),
            "--protocol", "dftno", "--family", "ring",
            "--sizes", "5,6", "--trials", "1", "--seed", "11",
            "--once", "--iterations", "5", "--interval", "0.01",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.count("campaign watch --") == 1
