"""The static verifier: every fixture fires its rule exactly once, every
shipped protocol lints clean, and the read/write summaries resolve."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.lint import (
    RULES,
    analyze_paths,
    build_summary,
    lint_paths,
    modules_for_protocols,
)

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE = Path(repro.__file__).parent

#: fixture file -> the one rule it must trigger, exactly once.
FIXTURE_RULES = {
    "guard_mutates.py": "RL001",
    "io_guard.py": "RL002",
    "rng_guard.py": "RL003",
    "nonlocal_read.py": "RL004",
    "neighbor_write.py": "RL005",
    "undeclared_write.py": "RL006",
}


@pytest.mark.parametrize("filename,rule", sorted(FIXTURE_RULES.items()))
def test_fixture_fires_exactly_its_rule(filename: str, rule: str) -> None:
    findings = lint_paths([FIXTURES / filename])
    assert [f.rule for f in findings] == [rule]
    finding = findings[0]
    assert finding.path.endswith(filename)
    assert finding.line > 0
    assert finding.severity == RULES[rule][0]
    assert finding.layer  # owner class attributed
    assert finding.function  # action name attributed


def test_disable_comment_silences_the_line() -> None:
    assert lint_paths([FIXTURES / "disabled.py"]) == []


def test_fixture_directory_totals() -> None:
    # One static finding per broken rule fixture, none from __init__ /
    # disabled, and the read probe's on the seven read fixtures: RL008 on
    # reads_underdeclared (3), reads_aliased_underdeclared (2),
    # reads_negated_underdeclared (1), reads_pointer_undeclared (2, plus its
    # 2 RL009), reads_ring_underdeclared (1) and residue_underdeclared (1).
    findings = lint_paths([FIXTURES])
    assert len(findings) == len(FIXTURE_RULES) + 12
    assert Counter(f.rule for f in findings) == Counter(FIXTURE_RULES.values()) + Counter(
        {"RL008": 10, "RL009": 2}
    )


def test_shipped_package_lints_clean() -> None:
    assert lint_paths([PACKAGE]) == []


@pytest.mark.parametrize("protocol", ["dftno", "stno-bfs", "stno-dfs"])
def test_protocol_modules_lint_clean(protocol: str) -> None:
    modules = modules_for_protocols([protocol])
    assert modules, "protocol must map to at least one module"
    assert lint_paths(modules) == []


def test_unknown_protocol_rejected() -> None:
    with pytest.raises(ValueError):
        modules_for_protocols(["no-such-protocol"])


def test_summary_resolves_all_shipped_actions() -> None:
    summary = build_summary([PACKAGE])
    assert "no_eta" in summary["variables"]
    assert "no_pi" in summary["variables"]
    actions = {
        name: data
        for module in summary["modules"].values()
        for name, data in module.items()
    }
    assert len(actions) >= 25  # all layered actions plus composition hooks
    unresolved = [
        name
        for name, data in actions.items()
        if not (data["guard_resolved"] and data["statement_resolved"])
    ]
    assert unresolved == []
    # A spot check against the DFTNO edge-label action of the paper.
    edge_label = actions["DFTNO.NO-EdgeLabel"]
    assert "no_pi" in edge_label["writes"]
    assert "no_eta" in edge_label["guard_reads_neighbor"]


def test_guard_footprints_are_closed_neighborhood_only() -> None:
    # The static pass derives per-action read sets; none of the shipped
    # layers may read anything but declared protocol variables.
    analyzer = analyze_paths([PACKAGE])
    universe = analyzer.variable_universe
    for summary in analyzer.summaries:
        reads = (
            summary.guard_reads_own
            | summary.guard_reads_neighbor
            | summary.statement_reads_own
            | summary.statement_reads_neighbor
            | summary.writes
        )
        assert reads <= universe, f"{summary.owner}.{summary.action} reads {reads - universe}"
