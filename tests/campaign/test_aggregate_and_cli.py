"""Aggregation helpers and the ``repro-campaign`` command line."""

from __future__ import annotations

import pytest

from repro.campaign.aggregate import aggregate_rows, campaign_summary, fit_if_possible
from repro.campaign.cli import main
from repro.campaign.store import ResultStore


def _rows() -> list[dict[str, object]]:
    return [
        {"parameter": 6, "converged": True, "overlay_steps": 10, "overlay_rounds": 4, "full_steps": 12},
        {"parameter": 6, "converged": True, "overlay_steps": 14, "overlay_rounds": 6, "full_steps": 16},
        {"parameter": 8, "converged": True, "overlay_steps": 20, "overlay_rounds": 8, "full_steps": 24},
        {"parameter": 8, "converged": False, "overlay_steps": None, "overlay_rounds": None, "full_steps": None},
    ]


def test_aggregate_rows_means_over_converged_only():
    aggregated = aggregate_rows(_rows(), by="parameter", key_name="n")
    assert [row["n"] for row in aggregated] == [6, 8]
    assert aggregated[0] == {
        "n": 6,
        "trials": 2,
        "converged": 2,
        "overlay_steps_mean": 12.0,
        "overlay_rounds_mean": 5.0,
        "total_steps_mean": 14.0,
    }
    assert aggregated[1]["trials"] == 2
    assert aggregated[1]["converged"] == 1
    assert aggregated[1]["overlay_steps_mean"] == 20.0


def test_campaign_summary_shape_and_fit():
    summary = campaign_summary(_rows(), key_name="n", fit_metric="overlay_steps_mean")
    assert set(summary) == {"rows", "fit", "samples"}
    assert summary["fit"]["slope"] == 4.0
    assert len(summary["samples"]) == 4


def test_fit_if_possible_degenerate_cases():
    assert fit_if_possible([1], [2.0]) is None
    assert fit_if_possible([1, 1], [2.0, 3.0]) is None
    assert fit_if_possible([1, 2], [2.0, None]) is None
    fit = fit_if_possible([1, 2, 3], [2.0, 4.0, 6.0])
    assert fit["slope"] == 2.0


def test_cli_run_resume_and_report(tmp_path, capsys):
    out = str(tmp_path / "results")
    args = ["run", "--protocol", "dftno", "--family", "ring", "--sizes", "5,6",
            "--trials", "1", "--jobs", "2", "--out", out, "--quiet"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "4/4 converged" not in first  # 2 tasks, not 4
    assert "2 executed, 0 skipped" in first

    store = ResultStore(tmp_path / "results" / "campaign.jsonl")
    assert len(store.rows()) == 2

    assert main(args + ["--resume"]) == 0
    assert "0 executed, 2 skipped" in capsys.readouterr().out
    assert len(ResultStore(tmp_path / "results" / "campaign.jsonl").rows()) == 2

    assert main(["status", "--out", out]) == 0
    assert "2 rows" in capsys.readouterr().out

    assert main(["report", "--out", out, "--key", "n"]) == 0
    report = capsys.readouterr().out
    assert "campaign aggregate by n" in report
    assert "slope=" in report


def test_cli_rejects_bad_arguments(tmp_path, capsys):
    assert main(["run", "--protocol", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown protocol" in capsys.readouterr().err
    assert main(["run", "--family", "bogus", "--out", str(tmp_path)]) == 2
    assert "unknown topology family" in capsys.readouterr().err
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1


@pytest.mark.parametrize(
    "grid_args",
    [
        ["--sizes", "0,4"],
        ["--sizes", "0"],
        ["--task-type", "msgpass", "--after-substrate"],
        ["--task-type", "scenario", "--scenario", "cascade", "--after-substrate"],
    ],
    ids=["size-zero-in-list", "size-zero", "msgpass-after-substrate", "scenario-after-substrate"],
)
def test_cli_rejects_invalid_grids_before_opening_the_store(tmp_path, capsys, grid_args):
    store = tmp_path / "store.jsonl"
    assert main(["run", *grid_args, "--trials", "1", "--out", str(store)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not store.exists()
    assert list(tmp_path.iterdir()) == []


def test_cli_report_rejects_unknown_key(tmp_path, capsys):
    out = str(tmp_path / "results")
    assert main(["run", "--family", "ring", "--sizes", "5", "--trials", "1",
                 "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", out, "--key", "sizes"]) == 2
    err = capsys.readouterr().err
    assert "column 'sizes' missing" in err and "present in every row:" in err
    assert "'sizes'" not in err.split("present in every row:")[1]  # not offered back


def test_cli_read_only_commands_do_not_create_directories(tmp_path, capsys):
    missing = tmp_path / "typo-dir"
    assert main(["status", "--out", str(missing)]) == 0
    capsys.readouterr()
    assert not missing.exists()
