"""The read-declaration cross-check (rule RL008, part of the default run)."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.graphs import generators
from repro.lint import RULES, analyze_paths
from repro.lint.cli import main
from repro.lint.reads import check_reads
from repro.substrates.token_circulation import DepthFirstTokenCirculation

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE = Path(repro.__file__).parent


def test_rl008_in_rule_catalog() -> None:
    severity, description = RULES["RL008"]
    assert severity == "error"
    assert "declared reads" in description


def test_shipped_declarations_cover_their_static_reads() -> None:
    findings, checked = check_reads(analyze_paths([PACKAGE]))
    assert findings == []
    # 15 guards (token 9, DFTNO 1, STNO 3, BFS tree 2) and 12 legitimacy
    # methods (token 4, DFTNO 2, STNO 2, BFS tree 2, DFS overlay 2).
    assert checked == 27


def test_token_guards_declare_exactly_their_static_reads() -> None:
    analyzer = analyze_paths([PACKAGE / "substrates" / "token_circulation.py"])
    static = {
        summary.action: (summary.guard_reads_own, summary.guard_reads_neighbor)
        for summary in analyzer.summaries
        if summary.owner == "DepthFirstTokenCirculation"
    }
    network = generators.random_connected(8, seed=1)
    token = DepthFirstTokenCirculation()
    declared = {
        action.name: (action.reads.own, action.reads.neighbor)
        for node in network.nodes()
        for action in token.actions(network, node)
    }
    assert len(declared) == 9
    assert declared == static


def test_underdeclared_fixture_fires_rl008_twice(capsys) -> None:
    assert main([str(FIXTURES / "reads_underdeclared.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [finding["rule"] for finding in payload] == ["RL008", "RL008"]
    guard, conjunct = payload
    assert guard["function"] == "RU-Copy"
    assert "neighbor ['ru_x']" in guard["message"]
    assert conjunct["function"] == "node_legitimate"
    assert "legitimacy_reads" in conjunct["message"]
    assert all(finding["line"] > 0 for finding in payload)


def test_fixture_stays_clean_for_the_static_rules() -> None:
    assert analyze_paths([FIXTURES / "reads_underdeclared.py"]).findings == []
