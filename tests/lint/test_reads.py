"""The read-declaration probe (rules RL008 and RL009, part of the default run)."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.errors import GuardLocalityError
from repro.graphs import generators
from repro.lint import RULES, analyze_paths, iter_source_files, lint_paths
from repro.lint.cli import main
from repro.lint.reads import PROBE_NETWORKS, SAMPLES, check_reads
from repro.runtime.actions import Reads
from repro.runtime.processor import TrackingGuardView
from repro.runtime.scheduler import Scheduler
from repro.substrates.token_circulation import DepthFirstTokenCirculation
from tests.lint.fixtures.residue_underdeclared import ResidueUnderdeclared

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE = Path(repro.__file__).parent


def test_rl008_in_rule_catalog() -> None:
    severity, description = RULES["RL008"]
    assert severity == "error"
    assert "declared reads" in description


def test_the_probe_checks_every_shipped_part_and_residue() -> None:
    findings, checked = check_reads(iter_source_files([PACKAGE]))
    assert findings == []
    declared = {site for site, reads in checked if isinstance(reads, Reads)}
    # 19 declared guard- and rule-part sites (token 9, DFTNO 1, STNO 3, BFS
    # tree 3 and DFS overlay 1 in spanning_tree.py, and the specification's
    # 2: the name-range rule and the SP2 part both orientation layers'
    # edge-label guards and rules share; a gate shared by several guards and
    # rules is one site, and a negated part is its predicate's), and PIF's 3.
    assert Counter(path.name for path, _ in declared) == {
        "token_circulation.py": 9,
        "dftno.py": 1,
        "stno.py": 3,
        "spanning_tree.py": 4,
        "specification.py": 2,
        "pif.py": 3,
    }
    # Every part of PIF (on the tree) and of Dijkstra's ring (on the ring),
    # declared or not.
    sites = Counter(path.name for path, _ in {site for site, _ in checked})
    assert sites["pif.py"] == 9
    assert sites["dijkstra_ring.py"] == 2 + 1  # two guards and the residue
    # STNO's declarations name the tree under it: each part is checked over both.
    stno = Counter(site for site, reads in checked if site[0].name == "stno.py")
    assert sorted(stno.values()) == [1, 2, 2, 2]  # the residue, then the three parts
    # The DFTNO and STNO residues, against what their rules declare.
    residues = {site[0].name for site, reads in checked if isinstance(reads, frozenset)}
    assert {"dftno.py", "stno.py"} <= residues


def test_token_parts_declare_exactly_the_reads_the_probe_observes() -> None:
    token = DepthFirstTokenCirculation()
    # (action or rule, part index) -> observed own and neighbor reads, declared reads.
    observed: dict[tuple[str, int], tuple[set[str], set[str], Reads]] = {}
    for network in PROBE_NETWORKS:
        for seed in range(SAMPLES):
            configuration = token.random_configuration(network, seed=seed)
            for node in network.nodes():
                # Actions and violation rules alike.
                for owner in (*token.actions(network, node), *token.violation_rules(network, node)):
                    for index, (predicate, reads) in enumerate(owner.guard_parts):
                        view = TrackingGuardView(node, network, configuration)
                        predicate(view)
                        own, neighbor, _ = observed.setdefault(
                            (owner.name, index), (set(), set(), reads)
                        )
                        for source, name in view.read_variables:
                            (own if source == node else neighbor).add(name)
    assert len({name for name, _ in observed}) == 9 + 4
    assert len(observed) == 22 + 6
    for key, (own, neighbor, reads) in observed.items():
        assert (own, neighbor) == (reads.own, reads.neighbor_reads), key


def test_underdeclared_fixture_fires_rl008_three_times(capsys) -> None:
    assert main([str(FIXTURES / "reads_underdeclared.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [finding["rule"] for finding in payload] == ["RL008", "RL008", "RL008"]
    findings = {finding["function"]: finding for finding in payload}
    assert sorted(findings) == ["RU-Below", "RU-Copy", "RU-Raise"]
    assert "neighbor 'ru_x'" in findings["RU-Copy"]["message"]
    # The first part declares the neighbor read; the second part's own
    # declaration must cover it all the same.
    assert "neighbor 'ru_x'" in findings["RU-Raise"]["message"]
    assert "violation rule" in findings["RU-Below"]["message"]
    assert "neighbor 'ru_x'" in findings["RU-Below"]["message"]
    assert all(finding["line"] > 0 for finding in payload)


def test_lint_paths_reports_the_probes_findings() -> None:
    findings = lint_paths([FIXTURES / "reads_underdeclared.py"])
    assert sorted((finding.rule, finding.function) for finding in findings) == [
        ("RL008", "RU-Below"),
        ("RL008", "RU-Copy"),
        ("RL008", "RU-Raise"),
    ]


def test_an_underdeclared_negated_part_fires_rl008(capsys) -> None:
    fixture = FIXTURES / "reads_negated_underdeclared.py"
    assert main([str(fixture), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    # ``Not(_settled)`` reads what ``_settled`` reads: the neighbors' ``rn_x``.
    assert [(finding["rule"], finding["function"]) for finding in payload] == [
        ("RL008", "RN-Raise")
    ]
    assert "neighbor 'rn_x'" in payload[0]["message"]
    assert analyze_paths([fixture]).findings == []


def test_an_underdeclared_witness_part_fires_rl008(capsys, tmp_path) -> None:
    fixture = FIXTURES / "reads_witness_underdeclared.py"
    assert main([str(fixture), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    # ``Witness(_higher)`` reads what ``_higher`` reads: the neighbors' ``rw_x``.
    assert [(finding["rule"], finding["function"]) for finding in payload] == [
        ("RL008", "RW-Follow")
    ]
    assert "neighbor 'rw_x'" in payload[0]["message"]
    assert analyze_paths([fixture]).findings == []
    # The static pass resolves the witness part, and the statement's
    # ``view.witness(_higher)`` reads what ``_higher`` reads.
    out = tmp_path / "rwsets.json"
    main([str(fixture), "--summary", str(out)])
    (module,) = json.loads(out.read_text())["modules"].values()
    entry = module["ReadsWitnessUnderdeclared.RW-Follow"]
    assert entry["guard_resolved"] and entry["statement_resolved"]
    assert entry["guard_reads_neighbor"] == entry["statement_reads_neighbor"] == ["rw_x"]


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
    assert sorted((finding["rule"], finding["function"]) for finding in payload) == [
        ("RL008", "RA-Below"),
        ("RL008", "RA-Copy"),
    ]
    assert all("neighbor 'ra_x'" in finding["message"] for finding in payload)
    # Each finding is anchored at the file that defines the part.
    assert all(finding["path"].endswith("reads_aliased_underdeclared.py") for finding in payload)
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
    # assigns to the attribute, imported from another module.
    paths = [PACKAGE / "core" / "dftno.py", PACKAGE / "core" / "stno.py"]
    label_guards = [
        summary
        for summary in analyze_paths(paths).summaries
        if summary.action in ("NO-EdgeLabel", "STNO-EdgeLabel")
    ]
    assert len(label_guards) == 2
    for summary in label_guards:
        assert summary.guard_resolved
        assert {"no_eta", "no_pi"} <= summary.guard_reads_own
        assert "no_eta" in summary.guard_reads_neighbor
    # Both guards and both layers' rules share the part's one site in
    # core/specification.py, checked under its one declaration.
    findings, checked = check_reads(paths)
    assert findings == []
    specification = {
        (site, reads) for site, reads in checked if site[0].name == "specification.py"
    }
    assert len(specification) == 2  # the SP2 part and the name-range rule


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
    findings, _ = check_reads([PACKAGE / "substrates" / "token_circulation.py"])
    assert findings == []


def test_a_ring_only_layer_is_probed_on_the_ring(capsys) -> None:
    # The layer refuses the dense and the tree probe networks.
    assert main([str(FIXTURES / "reads_ring_underdeclared.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(finding["rule"], finding["function"]) for finding in payload] == [
        ("RL008", "RR-Copy")
    ]
    assert "neighbor 'rr_x'" in payload[0]["message"]


def test_a_residue_reading_past_its_rules_fires_rl008(capsys) -> None:
    fixture = FIXTURES / "residue_underdeclared.py"
    assert main([str(fixture), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(finding["rule"], finding["function"]) for finding in payload] == [
        ("RL008", "legitimacy_residue")
    ]
    assert "['rd_mark']" in payload[0]["message"]
    assert payload[0]["layer"] == "residue-underdeclared"
    assert analyze_paths([fixture]).findings == []


@pytest.mark.parametrize("check", [True, False])
def test_the_scheduler_checks_residue_reads_in_debug_mode(check: bool) -> None:
    network = generators.ring(5)
    protocol = ResidueUnderdeclared()
    scheduler = Scheduler(
        network,
        protocol,
        seed=1,
        configuration=protocol.initial_configuration(network),
        check_guard_locality=check,
    )
    if not check:
        assert scheduler.legitimate()
        return
    with pytest.raises(GuardLocalityError) as excinfo:
        scheduler.legitimate()
    assert (excinfo.value.rule, excinfo.value.action) == ("RL008", "legitimacy_residue")
    assert {name for _, name in excinfo.value.reads} == {"rd_mark"}
