"""The perf regression gate (scripts/check_perf.py) as an importable unit."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_perf", REPO_ROOT / "scripts" / "check_perf.py"
)
check_perf = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_perf", check_perf)
_SPEC.loader.exec_module(check_perf)


def _payload(
    guard_eval: float = 0.02,
    action_exec: float = 0.004,
    speedup: float = 4.0,
    steps: int = 1000,
    calibration: float = 0.02,
) -> dict:
    return {
        "benchmark": "scheduler_core",
        "speedup_by_n": {"60": speedup},
        "calibration_seconds": calibration,
        "instrumentation": {
            "steps": steps,
            "phases": {"guard_eval": guard_eval, "action_exec": action_exec},
            "disabled_overhead": 0.01,
            "max_disabled_overhead": 0.03,
            "phase_coverage": 0.95,
            "min_phase_coverage": 0.90,
        },
    }


def _write(tmp_path: Path, current: dict, history: list[dict]) -> list[str]:
    current_path = tmp_path / "current.json"
    history_path = tmp_path / "history.jsonl"
    current_path.write_text(json.dumps(current))
    history_path.write_text("".join(json.dumps(line) + "\n" for line in history))
    return ["--current", str(current_path), "--history", str(history_path)]


def test_gate_passes_on_matching_history(tmp_path, capsys):
    args = _write(tmp_path, _payload(), [_payload(), _payload(), _payload()])
    assert check_perf.main(args) == 0
    out = capsys.readouterr().out
    assert "no regression" in out
    assert "guard_eval" in out


def test_gate_fails_on_phase_regression(tmp_path, capsys):
    args = _write(
        tmp_path, _payload(guard_eval=0.05), [_payload(), _payload(), _payload()]
    )
    assert check_perf.main(args) == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "phase guard_eval per-step time regressed" in captured.err


def test_gate_fails_on_speedup_regression(tmp_path, capsys):
    args = _write(tmp_path, _payload(speedup=1.5), [_payload(), _payload()])
    assert check_perf.main(args) == 1
    assert "speedup at n=60 regressed" in capsys.readouterr().err


def _labelled(payload: dict, m: int) -> dict:
    payload["m_by_n"] = {"60": m}
    return payload


def test_speedup_history_on_another_edge_count_is_not_compared(tmp_path, capsys):
    current = _labelled(_payload(speedup=1.5), m=300)
    history = [_labelled(_payload(speedup=4.0), m=900), _labelled(_payload(speedup=1.6), m=300)]
    assert check_perf.main(_write(tmp_path, current, history)) == 0
    history.append(_labelled(_payload(speedup=4.0), m=300))
    history.append(_labelled(_payload(speedup=4.0), m=300))
    assert check_perf.main(_write(tmp_path, current, history)) == 1
    assert "speedup at n=60 regressed" in capsys.readouterr().err


def test_unlabelled_history_lines_still_gate_labelled_runs(tmp_path, capsys):
    current = _labelled(_payload(speedup=1.5), m=300)
    assert check_perf.main(_write(tmp_path, current, [_payload(), _payload()])) == 1
    assert "speedup at n=60 regressed" in capsys.readouterr().err
    unlabelled = _payload(speedup=1.5)
    history = [_labelled(_payload(), m=300), _labelled(_payload(), m=300)]
    assert check_perf.main(_write(tmp_path, unlabelled, history)) == 1


def test_median_defeats_one_outlier_line(tmp_path):
    history = [_payload(), _payload(), _payload(guard_eval=0.5)]
    assert check_perf.main(_write(tmp_path, _payload(), history)) == 0


def test_calibration_units_absorb_machine_speed(tmp_path):
    """A uniformly 3x-slower machine (3x phase seconds AND 3x calibration)
    must not trip the gate -- the normalization is the whole point."""
    slow = _payload(guard_eval=0.06, action_exec=0.012, calibration=0.06)
    assert check_perf.main(_write(tmp_path, slow, [_payload(), _payload()])) == 0


def test_min_share_skips_noise_phases(tmp_path, capsys):
    # Regress action_exec 3x but raise the share floor above it: with
    # --min-share 0.5 only guard_eval (~63% of phase time here) is compared,
    # so the regressed-but-minor phase is skipped and the gate passes.
    current = _payload(action_exec=0.012)
    args = _write(tmp_path, current, [_payload(), _payload()])
    assert check_perf.main([*args, "--min-share", "0.5"]) == 0
    assert "skipped" in capsys.readouterr().out
    # With the default floor (5%) the same regression fails.
    assert check_perf.main(args) == 1
    assert "action_exec" in capsys.readouterr().err


def test_absolute_thresholds_from_the_payload_itself(tmp_path, capsys):
    current = _payload()
    current["instrumentation"]["disabled_overhead"] = 0.08
    args = _write(tmp_path, current, [_payload()])
    assert check_perf.main(args) == 1
    assert "disabled instrumentation path" in capsys.readouterr().err


def test_empty_history_warns_unless_required(tmp_path, capsys):
    args = _write(tmp_path, _payload(), [])
    assert check_perf.main(args) == 0
    assert "did not actually gate anything" in capsys.readouterr().out
    assert check_perf.main([*args, "--require-history"]) == 1
    assert "did not actually gate anything" in capsys.readouterr().err


def test_other_benchmarks_lines_are_ignored(tmp_path):
    foreign = _payload()
    foreign["benchmark"] = "sharded"
    args = _write(tmp_path, _payload(guard_eval=0.2), [foreign, foreign])
    # Only 'sharded' lines exist -> nothing comparable -> require-history bites.
    assert check_perf.main([*args, "--require-history"]) == 1


def test_missing_or_invalid_artifact_exits_2(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.write_text("")
    missing = tmp_path / "nope.json"
    assert (
        check_perf.main(["--current", str(missing), "--history", str(history)]) == 2
    )
    assert "does not exist" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert check_perf.main(["--current", str(bad), "--history", str(history)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_load_history_skips_garbage(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text(
        "not json\n"
        + json.dumps(_payload())
        + "\n[1,2]\n"
        + json.dumps({"benchmark": "other"})
        + "\n"
    )
    lines = check_perf.load_history(path, "scheduler_core")
    assert len(lines) == 1
    assert check_perf.load_history(tmp_path / "missing.jsonl", "x") == []


def test_noncomparable_history_lines_are_named_with_file_and_line(tmp_path, capsys):
    """A phase-incomparable line is reported as history.jsonl:N with a reason."""
    legacy = {"benchmark": "scheduler_core", "speedup_by_n": {"60": 4.0}}
    args = _write(tmp_path, _payload(), [_payload(), legacy, _payload()])
    assert check_perf.main(args) == 0
    out = capsys.readouterr().out
    assert "warning: history.jsonl:2: not phase-comparable" in out
    assert "no instrumentation block" in out


def test_garbage_history_lines_are_named_with_file_and_line(tmp_path, capsys):
    current_path = tmp_path / "current.json"
    history_path = tmp_path / "history.jsonl"
    current_path.write_text(json.dumps(_payload()))
    history_path.write_text(
        json.dumps(_payload()) + "\n{broken\n" + json.dumps(_payload()) + "\n"
    )
    args = ["--current", str(current_path), "--history", str(history_path)]
    assert check_perf.main(args) == 0
    out = capsys.readouterr().out
    assert "warning: history.jsonl:2: not JSON" in out
    assert "line skipped" in out


def test_noncomparable_reason_names_the_first_missing_ingredient():
    reason = check_perf.noncomparable_reason
    assert reason({}) == "no instrumentation block"
    assert reason({"instrumentation": {}}) == "no usable calibration_seconds"
    base = {"calibration_seconds": 0.02}
    assert reason({**base, "instrumentation": {}}) == "no phases dict"
    assert (
        reason({**base, "instrumentation": {"phases": {"guard_eval": 0.1}}})
        == "no usable step count"
    )
    assert (
        reason(
            {**base, "instrumentation": {"steps": 10, "phases": {"guard_eval": "x"}}}
        )
        == "no numeric phase timings"
    )


def test_normalized_phases_requires_all_inputs():
    assert check_perf.normalized_phases({}) is None
    assert check_perf.normalized_phases({"calibration_seconds": 0.02}) is None
    payload = _payload()
    units = check_perf.normalized_phases(payload)
    assert units == pytest.approx(
        {"guard_eval": 0.02 / (1000 * 0.02), "action_exec": 0.004 / (1000 * 0.02)}
    )
    del payload["instrumentation"]["steps"]
    assert check_perf.normalized_phases(payload) is None


def test_as_float_coercion():
    as_float = check_perf._as_float
    assert as_float(3) == 3.0
    assert as_float(2.5) == 2.5
    assert as_float("4.2") == 4.2
    assert as_float(True) is None  # a bool is never a timing
    assert as_float("n/a") is None
    assert as_float(None) is None
    assert as_float({"nested": 1}) is None
    assert as_float([1.0]) is None
    assert as_float(float("nan")) is None
    assert as_float(float("inf")) is None


def test_gate_tolerates_history_from_unknown_engines(tmp_path, capsys):
    """Hostile trajectory lines degrade to "not comparable", never crash.

    The history file is append-only and shared: future benches (or hand
    edits) may stamp the scheduler_core benchmark name onto lines whose
    speedups, steps, phases or calibration are strings, nulls, booleans or
    nested objects.  The gate must skip what it cannot parse and still judge
    the well-formed lines.
    """
    hostile = [
        # Same benchmark name, non-numeric speedup + phase entries.
        {
            "benchmark": "scheduler_core",
            "speedup_by_n": {"60": "fast", 60: None, "500": True},
            "calibration_seconds": "quick",
            "instrumentation": {
                "steps": "many",
                "phases": {"guard_eval": "slow", "action_exec": {"s": 1}},
            },
        },
        # Wrong shapes entirely.
        {"benchmark": "scheduler_core", "speedup_by_n": [4.0], "instrumentation": []},
        # Unknown engine's line that leaked the benchmark name, odd key types.
        {
            "benchmark": "scheduler_core",
            "engine": "somebody-elses",
            "speedup_by_n": {60: 4.0, None: 9.9},
            "calibration_seconds": None,
            "instrumentation": {"steps": 0, "phases": {"guard_eval": 0.01}},
        },
    ]
    args = _write(tmp_path, _payload(), hostile + [_payload(), _payload()])
    assert check_perf.main(args) == 0
    assert "no regression" in capsys.readouterr().out


def test_gate_tolerates_non_numeric_current_thresholds(tmp_path, capsys):
    current = _payload()
    current["instrumentation"]["disabled_overhead"] = "tiny"
    current["instrumentation"]["phase_coverage"] = None
    current["speedup_by_n"]["60"] = "4.0"  # numeric string still compares
    args = _write(tmp_path, current, [_payload(), _payload()])
    assert check_perf.main(args) == 0
    assert "no regression" in capsys.readouterr().out
