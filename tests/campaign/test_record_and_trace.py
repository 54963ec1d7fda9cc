"""``repro-campaign run --record`` and ``--trace-export`` end to end."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.cli import _trace_export_target, main as campaign_main
from repro.campaign.store import ResultStore
from repro.obs.recorder import DEFAULT_LOG_DIR
from repro.replay import ReplayRun


def _run_args(tmp_path, *extra):
    return [
        "run",
        "--protocol", "dftno", "--family", "ring",
        "--sizes", "5", "--trials", "1", "--seed", "11",
        "--out", str(tmp_path / "results"),
        "--quiet",
        *extra,
    ]


def test_campaign_record_writes_a_replayable_log_per_task(tmp_path, capsys):
    logs = tmp_path / "logs"
    code = campaign_main(_run_args(tmp_path, "--record", str(logs)))
    assert code == 0
    paths = sorted(logs.glob("run-*.flight.jsonl"))
    assert len(paths) == 1
    # The stored row points back at its log...
    store = ResultStore(tmp_path / "results" / "campaign.jsonl")
    rows = [row for row in store.rows() if row.get("flight_log")]
    assert rows and Path(rows[0]["flight_log"]) == paths[0]
    # ...and the log replays byte-identically.
    report = ReplayRun(paths[0]).run()
    assert report.verified
    assert report.steps_replayed > 0


def test_campaign_record_defaults_to_the_flightlogs_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = campaign_main(_run_args(tmp_path, "--record"))
    assert code == 0
    logs = sorted((tmp_path / DEFAULT_LOG_DIR).glob("run-*.flight.jsonl"))
    assert len(logs) == 1


def test_campaign_without_record_writes_no_logs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert campaign_main(_run_args(tmp_path)) == 0
    assert not (tmp_path / DEFAULT_LOG_DIR).exists()
    store = ResultStore(tmp_path / "results" / "campaign.jsonl")
    assert all(not row.get("flight_log") for row in store.rows())


def test_record_log_keyed_by_canonical_hash_survives_resume(tmp_path, capsys):
    logs = tmp_path / "logs"
    assert campaign_main(_run_args(tmp_path, "--record", str(logs))) == 0
    first = sorted(logs.glob("run-*.flight.jsonl"))
    # Resuming a complete campaign re-runs nothing and clobbers no log.
    before = first[0].read_bytes()
    assert campaign_main(_run_args(tmp_path, "--record", str(logs), "--resume")) == 0
    assert sorted(logs.glob("run-*.flight.jsonl")) == first
    assert first[0].read_bytes() == before


def test_trace_export_spec_parsing():
    assert _trace_export_target(None) is None
    assert _trace_export_target("chrome://trace.json") == "trace.json"
    assert _trace_export_target("chrome:///abs/trace.json") == "/abs/trace.json"
    with pytest.raises(ValueError, match="chrome://FILE"):
        _trace_export_target("trace.json")
    with pytest.raises(ValueError, match="chrome://FILE"):
        _trace_export_target("chrome://")


def test_campaign_trace_export_writes_a_chrome_trace(tmp_path, capsys):
    destination = tmp_path / "trace.json"
    code = campaign_main(
        _run_args(tmp_path, "--trace-export", f"chrome://{destination}")
    )
    assert code == 0
    trace = json.loads(destination.read_text(encoding="utf-8"))
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events, "campaign run exported no span events"
    kinds = {event["cat"] for event in events}
    assert "run" in kinds
    # The intermediate span log sits next to the export.
    assert (tmp_path / "trace.json.spans.jsonl").exists()
    assert f"-> {destination}" in capsys.readouterr().out


def test_campaign_trace_export_respects_an_existing_trace_env(
    tmp_path, capsys, monkeypatch
):
    from repro.obs.spans import TRACE_ENV

    spans = tmp_path / "own.spans.jsonl"
    monkeypatch.setenv(TRACE_ENV, str(spans))
    destination = tmp_path / "trace.json"
    code = campaign_main(
        _run_args(tmp_path, "--trace-export", f"chrome://{destination}")
    )
    assert code == 0
    # The user's span log is the source and the variable survives the run.
    assert spans.exists()
    assert json.loads(destination.read_text(encoding="utf-8"))["traceEvents"]
    import os

    assert os.environ[TRACE_ENV] == str(spans)


def test_msgpass_campaign_keeps_run_options_but_records_nothing(tmp_path, capsys):
    # msgpass has no daemon-step stream: perf/telemetry/health/live still
    # reach the run, while --record is dropped instead of failing the task.
    from repro.campaign.grid import Grid
    from repro.campaign.runner import CampaignRunner

    logs = tmp_path / "logs"
    grid = Grid(sizes=(6,), families=("ring",), trials=2, seed=5, task_type="msgpass")
    runner = CampaignRunner(
        record=str(logs), perf=True, telemetry=True, health=True, live_every=1
    )
    rows = runner.run(grid).rows
    assert len(rows) == 2
    for row in rows:
        assert row["task_type"] == "msgpass" and row["converged"] is True
        assert row["perf"] and row["telemetry"] and row["health"]
        assert "flight_log" not in row
    assert not logs.exists()
    assert "[task 1 dftno n=6] converged" in capsys.readouterr().out
