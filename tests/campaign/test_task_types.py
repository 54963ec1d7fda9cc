"""Campaign task types: engine mapping, new axes, and hash backward compatibility."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign.grid import DEFAULT_TASK_TYPE, TASK_ENGINES, Grid, TaskSpec
from repro.campaign.runner import run_task


def test_builtin_task_types_are_registered():
    for expected in ("stabilize", "scenario", "msgpass"):
        assert expected in TASK_ENGINES
    assert DEFAULT_TASK_TYPE == "stabilize"


def test_unknown_task_type_is_rejected_with_choices():
    with pytest.raises(ValueError, match="stabilize"):
        Grid(sizes=(6,), task_type="quantum")


def test_default_task_type_hashes_are_byte_identical_to_pre_registry():
    # Golden values captured from the campaign engine before the task-type
    # registry existed; default-type grids must never re-hash (stores would
    # silently re-run on resume).
    spec = TaskSpec(
        protocol="dftno", family="ring", size=8, daemon="central", trial=1, grid_seed=3
    )
    assert spec.config_hash == "d0e967fcae134ce0"
    grid = Grid(
        sizes=(6, 8),
        protocols=("dftno", "stno-bfs"),
        daemons=("central", "distributed"),
        trials=2,
        seed=7,
    )
    digest = hashlib.sha256(
        ",".join(task.config_hash for task in grid.expand()).encode()
    ).hexdigest()
    assert digest == "2174652d739d6568377cc39b9072a27aceeae887c30e411fc3ad92712b528c36"


def test_default_task_type_rows_carry_no_new_columns():
    grid = Grid(sizes=(6,), protocols=("dftno",), families=("ring",), trials=1, seed=1)
    row = run_task(grid.expand()[0])
    assert "task_type" not in row
    assert "scenario" not in row
    json.dumps(row)  # rows stay JSON-serializable


def test_scenario_identity_extends_the_hash():
    base = dict(
        protocol="dftno", family="ring", size=8, daemon="central", trial=0, grid_seed=0
    )
    plain = TaskSpec(**base)
    cascade = TaskSpec(**base, task_type="scenario", scenario="cascade")
    churn = TaskSpec(**base, task_type="scenario", scenario="churn")
    assert plain.config_hash != cascade.config_hash
    assert cascade.config_hash != churn.config_hash
    assert cascade.identity()["task_type"] == "scenario"
    assert cascade.identity()["scenario"] == "cascade"
    assert "task_type" not in plain.identity()


def test_scenario_grid_expands_the_scenario_axis():
    grid = Grid(
        sizes=(8,),
        protocols=("dftno", "stno-bfs"),
        daemons=("central", "distributed"),
        trials=1,
        seed=3,
        task_type="scenario",
        scenarios=("cascade", "single_burst", "cascade"),  # dedup preserves order
    )
    assert grid.scenarios == ("cascade", "single_burst")
    tasks = grid.expand()
    assert len(tasks) == len(grid) == 2 * 2 * 2
    assert {task.scenario for task in tasks} == {"cascade", "single_burst"}
    assert len({task.config_hash for task in tasks}) == len(tasks)


def test_scenario_grid_validates_scenario_names_and_presence():
    with pytest.raises(ValueError):
        Grid(sizes=(8,), task_type="scenario")
    with pytest.raises(ValueError):
        Grid(sizes=(8,), task_type="scenario", scenarios=("meteor",))
    with pytest.raises(ValueError):
        Grid(sizes=(8,), scenarios=("cascade",))  # scenarios without the type


def test_run_task_scenario_row_reports_recovery_metrics():
    grid = Grid(
        sizes=(8,),
        protocols=("dftno",),
        families=("random_connected",),
        daemons=("distributed",),
        trials=1,
        seed=2,
        task_type="scenario",
        scenarios=("single_burst",),
    )
    row = run_task(grid.expand()[0])
    assert row["task_type"] == "scenario"
    assert row["scenario"] == "single_burst"
    assert row["events_applied"] == 1
    assert row["converged"] is True
    assert row["recovery_steps"] is not None
    assert row["config_hash"] == grid.expand()[0].config_hash


def test_run_task_msgpass_row_reports_message_savings():
    grid = Grid(
        sizes=(8,),
        protocols=("dftno",),
        families=("complete",),
        daemons=("distributed",),
        trials=1,
        seed=2,
        task_type="msgpass",
    )
    row = run_task(grid.expand()[0])
    assert row["task_type"] == "msgpass"
    assert row["converged"] is True
    assert row["messages_oriented"] < row["messages_unoriented"]
    assert row["message_savings"] > 1.0


def test_scenario_and_msgpass_reject_after_substrate():
    # after_substrate is hashed into the identity; ignoring it would store
    # mislabeled duplicate measurements, so the handlers reject it outright.
    for task_type, extra in (("scenario", {"scenario": "cascade"}), ("msgpass", {})):
        spec = TaskSpec(
            protocol="dftno",
            family="ring",
            size=6,
            daemon="central",
            trial=0,
            grid_seed=0,
            after_substrate=True,
            task_type=task_type,
            **extra,
        )
        with pytest.raises(ValueError, match="after_substrate"):
            run_task(spec)


def test_msgpass_workload_axis_expands_and_hashes():
    grid = Grid(
        sizes=(6,),
        families=("ring",),
        trials=1,
        seed=4,
        task_type="msgpass",
        workloads=("broadcast", "traversal", "election"),
    )
    tasks = grid.expand()
    assert len(tasks) == len(grid) == 3
    # "broadcast" is the default workload: it hashes exactly like a
    # pre-workload-axis msgpass task, so old stores keep resuming.
    legacy = Grid(sizes=(6,), families=("ring",), trials=1, seed=4, task_type="msgpass")
    assert tasks[0].workload is None
    assert tasks[0].config_hash == legacy.expand()[0].config_hash
    assert "workload" not in tasks[0].identity()
    assert tasks[1].identity()["workload"] == "traversal"
    assert len({task.config_hash for task in tasks}) == 3


def test_msgpass_workload_rows_report_savings_per_workload():
    grid = Grid(
        sizes=(8,),
        families=("ring",),
        trials=1,
        seed=2,
        task_type="msgpass",
        workloads=("traversal", "election"),
    )
    rows = [run_task(task) for task in grid.expand()]
    by_workload = {row["workload"]: row for row in rows}
    assert set(by_workload) == {"traversal", "election"}
    assert by_workload["traversal"]["messages_oriented"] == 2 * (
        by_workload["traversal"]["n"] - 1
    )
    assert by_workload["election"]["message_savings"] > 1.0
    assert all(row["converged"] for row in rows)


def test_workload_axis_is_validated():
    with pytest.raises(ValueError, match="only apply to task_type='msgpass'"):
        Grid(sizes=(6,), workloads=("broadcast",))
    with pytest.raises(ValueError, match="unknown workloads"):
        Grid(sizes=(6,), task_type="msgpass", workloads=("teleport",))
    with pytest.raises(ValueError, match="ring"):
        Grid(sizes=(6,), task_type="msgpass", workloads=("election",))


def test_scenario_rows_persist_per_event_records_and_round_trip():
    from repro.analysis.recovery import (
        EventRecovery,
        ScenarioReport,
        aggregate_event_recoveries,
    )

    grid = Grid(
        sizes=(8,),
        protocols=("dftno",),
        trials=1,
        seed=6,
        task_type="scenario",
        scenarios=("periodic_burst",),
    )
    row = run_task(grid.expand()[0])
    records = row["event_records"]
    assert isinstance(records, list) and len(records) == row["events"]
    json.dumps(row)  # the records are store-serializable

    # Row -> report -> events round-trips exactly.
    report = ScenarioReport.from_row(row)
    assert len(report.events) == row["events"]
    assert report.events[0] == EventRecovery.from_row(records[0])
    assert report.converged == row["converged"]
    aggregated = aggregate_event_recoveries([report])
    assert aggregated[0]["kind"] == "corruption"
    assert aggregated[0]["events"] == row["events_applied"]


def test_report_per_event_aggregates_stored_scenario_rows(tmp_path, capsys):
    from repro.campaign.cli import main
    from repro.campaign.store import JsonlResultStore

    grid = Grid(
        sizes=(8,),
        protocols=("dftno",),
        trials=1,
        seed=6,
        task_type="scenario",
        scenarios=("churn",),
    )
    store = JsonlResultStore(tmp_path / "scen.jsonl")
    for task in grid.expand():
        store.append(run_task(task))
    # A stabilize row without event records is counted and skipped.
    store.append({"config_hash": "deadbeef", "converged": True})
    capsys.readouterr()
    assert main(["report", "--out", str(store.path), "--per-event"]) == 0
    out = capsys.readouterr().out
    assert "per-event recovery across 1 scenario runs" in out
    assert "crash" in out and "link_change" in out
    assert "1 row(s) without per-event records were skipped" in out


def test_report_per_event_fails_cleanly_without_records(tmp_path, capsys):
    from repro.campaign.cli import main
    from repro.campaign.store import JsonlResultStore

    store = JsonlResultStore(tmp_path / "plain.jsonl")
    store.append({"config_hash": "aa", "converged": True})
    capsys.readouterr()
    assert main(["report", "--out", str(store.path), "--per-event"]) == 1
    assert "no stored rows carry per-event records" in capsys.readouterr().out


def test_cascade_campaign_resumes_after_simulated_crash_and_reports(tmp_path, capsys):
    # The acceptance path: cascade from the library over 2 protocols x 2
    # daemons, crash mid-campaign, resume, and aggregate recovery times.
    from repro.campaign.cli import main
    from repro.campaign.runner import run_grid
    from repro.campaign.store import ResultStore

    grid = Grid(
        sizes=(8,),
        protocols=("dftno", "stno-bfs"),
        daemons=("central", "distributed"),
        trials=1,
        seed=11,
        task_type="scenario",
        scenarios=("cascade",),
        pair_networks=True,
    )
    assert len(grid) == 4
    store_path = tmp_path / "cascade.jsonl"

    # "Crash" after two tasks: only their rows made it to the store.
    crashed = ResultStore(store_path)
    for spec in grid.expand()[:2]:
        crashed.append(run_task(spec))

    resumed = run_grid(grid, store=ResultStore(store_path), resume=True)
    assert resumed.skipped == 2
    assert resumed.executed == 2
    assert len(resumed.rows) == 4
    assert {row["daemon"] for row in resumed.rows} == {"central", "distributed"}
    assert {row["protocol"] for row in resumed.rows} == {"dftno", "stno-bfs"}

    capsys.readouterr()
    assert main(["report", "--out", str(store_path), "--key", "daemon"]) == 0
    out = capsys.readouterr().out
    assert "recovery_steps_mean" in out
    assert "recovery_rounds_mean" in out
