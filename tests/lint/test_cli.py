"""The ``repro-lint`` command line: exit codes, JSON output, summaries."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_SRC = Path(__file__).parent.parent.parent / "src" / "repro"


def test_clean_package_exits_zero(capsys) -> None:
    assert main([str(PACKAGE_SRC)]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out


def test_findings_exit_one_with_location_and_rule(capsys) -> None:
    assert main([str(FIXTURES / "guard_mutates.py")]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out
    assert "guard_mutates.py:" in out
    assert "GuardMutates/GM-Reset" in out


def test_read_probe_findings_print_under_their_own_title(capsys) -> None:
    assert main([str(FIXTURES / "residue_underdeclared.py")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "read probe"
    assert "static analysis" not in lines
    assert "residue_underdeclared.py:" in lines[1] and "RL008" in lines[1]
    assert lines[2:] == ["repro-lint: 1 finding(s) (1 error, 0 warning)"]


def test_each_pass_prints_its_own_table_and_one_total_follows(capsys) -> None:
    paths = [str(FIXTURES / "guard_mutates.py"), str(FIXTURES / "residue_underdeclared.py")]
    assert main(paths) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "static analysis" and "RL001" in lines[1]
    assert lines[2] == "read probe" and "RL008" in lines[3]
    assert lines[4:] == ["repro-lint: 2 finding(s) (2 error, 0 warning)"]


def test_json_format_is_machine_readable(capsys) -> None:
    assert main([str(FIXTURES / "undeclared_write.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["rule"] == "RL006"
    assert payload[0]["severity"] == "error"
    assert payload[0]["line"] > 0


def test_protocols_flag_lints_layer_modules(capsys) -> None:
    assert main(["--protocols", "dftno"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_summary_artifact_written(tmp_path, capsys) -> None:
    out_file = tmp_path / "rwsets.json"
    assert main([str(PACKAGE_SRC), "--summary", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert "no_pi" in payload["variables"]
    assert any("dftno" in module for module in payload["modules"])


def test_missing_path_is_a_usage_error(capsys) -> None:
    assert main(["/no/such/path"]) == 2
    assert "no such path" in capsys.readouterr().err
