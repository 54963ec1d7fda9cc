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
    # 19 guard- and rule-part sites (token 9, DFTNO 1, STNO 3, BFS tree 3,
    # DFS overlay 1, and the specification's 2: the name-range rule and the
    # SP2 part both orientation layers' edge-label guards and rules share;
    # a gate shared by several guards and rules is one site, and a negated
    # part is its predicate's) and 2 residues (DFTNO, STNO).
    assert checked == 21


def test_token_guards_declare_exactly_their_static_reads() -> None:
    analyzer = analyze_paths([PACKAGE / "substrates" / "token_circulation.py"])
    static = {
        summary.action: [(part.reads_own, part.reads_neighbor) for part in summary.guard_parts]
        for summary in analyzer.summaries
        if summary.owner == "DepthFirstTokenCirculation"
    }
    network = generators.random_connected(8, seed=1)
    token = DepthFirstTokenCirculation()
    # Actions and violation rules alike.
    declared = {
        action.name: [(reads.own, reads.neighbor_reads) for _, reads in action.guard_parts]
        for node in network.nodes()
        for action in (*token.actions(network, node), *token.violation_rules(network, node))
    }
    assert len(declared) == 9 + 4
    assert sum(map(len, declared.values())) == 22 + 6
    assert declared == static


def test_underdeclared_fixture_fires_rl008_three_times(capsys) -> None:
    assert main([str(FIXTURES / "reads_underdeclared.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [finding["rule"] for finding in payload] == ["RL008", "RL008", "RL008"]
    guard, part, conjunct = payload
    assert guard["function"] == "RU-Copy"
    assert "neighbor ['ru_x']" in guard["message"]
    # The first part declares the neighbor read; the second part's own
    # declaration must cover it all the same.
    assert part["function"] == "RU-Raise"
    assert "neighbor ['ru_x']" in part["message"]
    assert conjunct["function"] == "RU-Below"
    assert "violation rule" in conjunct["message"]
    assert "neighbor ['ru_x']" in conjunct["message"]
    assert all(finding["line"] > 0 for finding in payload)


def test_an_underdeclared_negated_part_fires_rl008(capsys) -> None:
    fixture = FIXTURES / "reads_negated_underdeclared.py"
    assert main([str(fixture), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    # ``Not(_settled)`` reads what ``_settled`` reads: the neighbors' ``rn_x``.
    assert [(finding["rule"], finding["function"]) for finding in payload] == [
        ("RL008", "RN-Raise")
    ]
    assert "neighbor ['rn_x']" in payload[0]["message"]
    assert analyze_paths([fixture]).findings == []


def test_the_token_layers_negated_parts_resolve(tmp_path) -> None:
    out = tmp_path / "rwsets.json"
    assert main([str(PACKAGE / "substrates" / "token_circulation.py"), "--summary", str(out)]) == 0
    (token,) = json.loads(out.read_text())["modules"].values()
    negated = (
        "TC-Error", "TC-Finish", "TC-RootError", "TC-RootFinish",
        "TC-Unstacked", "TC-RootBadDelegation",
    )
    for name in negated:
        entry = token[f"DepthFirstTokenCirculation.{name}"]
        assert entry["guard_resolved"], name
    # The negated stack check reads the parent's and the child's state.
    assert token["DepthFirstTokenCirculation.TC-Unstacked"]["guard_reads_neighbor"] == [
        "tc_child", "tc_lvl", "tc_par", "tc_st", "tc_wave"
    ]


def test_fixture_stays_clean_for_the_static_rules() -> None:
    assert analyze_paths([FIXTURES / "reads_underdeclared.py"]).findings == []


def test_a_neighbor_read_through_a_view_alias_fires_rl008(capsys) -> None:
    fixture = FIXTURES / "reads_aliased_underdeclared.py"
    assert main([str(fixture), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    # ``read_neighbor = view.read_neighbor`` (guard) and a tuple-unpacked
    # alias (rule), each under a declaration without the neighbor read.
    assert [(finding["rule"], finding["function"]) for finding in payload] == [
        ("RL008", "RA-Copy"),
        ("RL008", "RA-Below"),
    ]
    assert all("neighbor ['ra_x']" in finding["message"] for finding in payload)
    # The message names the file that defines the part, not only its line.
    assert all("reads_aliased_underdeclared.py:" in finding["message"] for finding in payload)
    assert analyze_paths([fixture]).findings == []


def test_the_orientation_rule_reads_its_neighbors_through_an_alias() -> None:
    analyzer = analyze_paths([PACKAGE / "core" / "specification.py"])
    range_rule, sp2_rule = [s for s in analyzer.summaries if s.owner == "OrientationSpecification"]
    assert (range_rule.guard_reads_own, range_rule.guard_reads_neighbor) == ({"no_eta"}, set())
    # The SP2 part reads through the tuple-unpacked alias ``read_neighbor``.
    assert sp2_rule.guard_reads_own == {"no_eta", "no_pi"}
    assert sp2_rule.guard_reads_neighbor == {"no_eta"}


def test_the_edge_label_guards_resolve_the_specifications_sp2_part() -> None:
    # ``self._specification.sp2_violated``: a method of the class ``__init__``
    # assigns to the attribute, imported from another module; both guards
    # and the rule share its one site in core/specification.py.
    analyzer = analyze_paths([PACKAGE / "core" / "dftno.py", PACKAGE / "core" / "stno.py"])
    label_parts = {
        summary.action: summary.guard_parts[-1]
        for summary in analyzer.summaries
        if summary.action in ("NO-EdgeLabel", "STNO-EdgeLabel")
    }
    assert len(label_parts) == 2
    for part in label_parts.values():
        assert Path(part.path).resolve() == (PACKAGE / "core" / "specification.py").resolve()
        assert (part.reads_own, part.reads_neighbor) == ({"no_eta", "no_pi"}, {"no_eta"})
    assert len({part.line for part in label_parts.values()}) == 1
    findings, _ = check_reads(analyzer)
    assert findings == []


def test_rl009_in_rule_catalog() -> None:
    severity, description = RULES["RL009"]
    assert severity == "error"
    assert "pointer" in description


def test_pointer_undeclared_fixture_fires_rl009_for_both_forms(capsys) -> None:
    assert main([str(FIXTURES / "reads_pointer_undeclared.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    by_rule = sorted((finding["rule"], finding["function"]) for finding in payload)
    # Each declaration omits its pointer (RL009), and the part reads it (RL008).
    assert by_rule == [
        ("RL008", "RP-Follow"),
        ("RL008", "RP-Named"),
        ("RL009", "RP-Follow"),
        ("RL009", "RP-Named"),
    ]
    messages = {
        finding["function"]: finding["message"] for finding in payload if finding["rule"] == "RL009"
    }
    assert "via pointer 'rp_ptr' is not in its own reads" in messages["RP-Follow"]
    assert "named_by pointer 'rp_ptr' is not in its neighbor reads" in messages["RP-Named"]
    assert all(finding["line"] > 0 for finding in payload)


def test_pointer_directed_reads_count_as_neighbor_reads() -> None:
    # The token layer declares its stack check through its pointers only; the
    # static pass sees neighbor reads, which the pointer-directed reads cover.
    token = DepthFirstTokenCirculation()
    network = generators.random_connected(8, seed=1)
    (error,) = [
        action for action in token.actions(network, 1) if action.name == token.ACTION_ERROR
    ]
    _, stacked = error.guard_parts[1]
    assert stacked.neighbor == frozenset()
    assert stacked.neighbor_reads == {"tc_st", "tc_child", "tc_wave", "tc_lvl", "tc_par"}
    findings, _ = check_reads(analyze_paths([PACKAGE / "substrates" / "token_circulation.py"]))
    assert findings == []
