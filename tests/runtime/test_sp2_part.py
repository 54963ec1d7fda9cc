"""SP2 stated once: the specification's SP2 part.

``OrientationSpecification.sp2_violated`` is the label part of the DFTNO and
STNO edge-relabeling guards and the second of both layers' violation rules
(after the name-range rule), so a compiled node holds one bit for it and a
change re-scans a neighborhood once.  These tests pin the two rules against
the single rule they replace, the shared bit, and the modulus check of the
specification and of the chordal helper the relabeling statements use.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.api.engines import build_protocol
from repro.core.chordal import chordal_edge_label, chordal_labels
from repro.core.dftno import DFTNO
from repro.core.specification import (
    SP2_READS,
    VAR_EDGE_LABELS,
    VAR_NAME,
    OrientationSpecification,
)
from repro.core.stno import STNO
from repro.errors import SpecificationError
from repro.graphs import generators
from repro.runtime.processor import GuardView
from repro.runtime.scheduler import Scheduler, compile_program

STACKS = ("dftno", "stno-bfs", "stno-dfs")


def _orientation_layer(protocol):
    (layer,) = [layer for layer in protocol.layers() if isinstance(layer, (DFTNO, STNO))]
    return layer


# ----------------------------------------------------------------------
# The two rules against the single rule they replace
# ----------------------------------------------------------------------
def _misoriented(specification: OrientationSpecification, view) -> bool:
    """The removed single orientation rule: SP1's range condition or SP2 fails."""
    modulus = specification.effective_modulus(view.network)
    name = view.read(VAR_NAME)
    if not (isinstance(name, int) and 0 <= name < modulus):
        return True
    labels = view.read(VAR_EDGE_LABELS)
    if not isinstance(labels, dict):
        return True
    for neighbor in view.neighbors:
        other = view.read_neighbor(neighbor, VAR_NAME)
        if not isinstance(other, int):
            other = 0
        if labels.get(neighbor) != chordal_edge_label(name, other, modulus):
            return True
    return False


def _agree(layer, network, configuration) -> int:
    """Assert the layer's rules hold exactly where the old rule did; count violating nodes."""
    violating = 0
    for node in network.nodes():
        view = GuardView(node, network, configuration)
        holds = any(rule.guard(view) for rule in layer.violation_rules(network, node))
        assert holds == _misoriented(layer.specification, view), node
        violating += holds
    return violating


def _orient(configuration, network, modulus: int) -> None:
    """Name every processor by its id and label its links chordally."""
    for node in network.nodes():
        configuration.set(node, VAR_NAME, node)
        configuration.set(
            node,
            VAR_EDGE_LABELS,
            {q: chordal_edge_label(node, q, modulus) for q in network.neighbors(node)},
        )


@pytest.mark.parametrize("modulus", [None, 23])
@pytest.mark.parametrize("stack", STACKS)
def test_the_two_rules_equal_the_old_rule_on_random_configurations(stack, modulus):
    protocol = build_protocol(stack)
    network = generators.random_connected(9, seed=4)
    layer = _orientation_layer(protocol)
    if modulus is not None:
        layer = type(layer)(modulus=modulus)
    rng = random.Random(stack)
    violating = [
        _agree(layer, network, protocol.random_configuration(network, rng=rng)) for _ in range(40)
    ]
    assert max(violating) > 0
    # And an oriented configuration, where no node violates either.
    configuration = protocol.initial_configuration(network)
    _orient(configuration, network, layer.modulus(network))
    assert _agree(layer, network, configuration) == 0


@pytest.mark.parametrize("stack", STACKS)
def test_the_two_rules_equal_the_old_rule_on_hand_built_states(stack):
    protocol = build_protocol(stack)
    network = generators.random_connected(9, seed=4)
    layer = _orientation_layer(protocol)
    n = network.n
    first = network.neighbors(0)[0]
    for name in (0, -1, n, n + 5, None, "x", True, 1.5):
        for labels in (None, [0, 1], "labels", {}, {q: 0 for q in network.neighbors(0)}):
            for neighbor_name in (0, n + 2, None, "y", 2.0, 2.5):
                configuration = protocol.initial_configuration(network)
                configuration.set(0, VAR_NAME, name)
                configuration.set(0, VAR_EDGE_LABELS, labels)
                configuration.set(first, VAR_NAME, neighbor_name)
                _agree(layer, network, configuration)


def test_holds_is_answered_from_the_two_rules():
    network = generators.random_connected(9, seed=4)
    protocol = build_protocol("dftno")
    specification = OrientationSpecification()
    rng = random.Random(7)
    for _ in range(30):
        configuration = protocol.random_configuration(network, rng=rng)
        report = specification.check(network, configuration)
        assert specification.holds(network, configuration) == report.holds
    _orient(configuration, network, network.n)
    assert specification.holds(network, configuration)
    configuration.set(0, VAR_NAME, network.n)  # out of range: the first rule
    assert not specification.holds(network, configuration)


# ----------------------------------------------------------------------
# One bit for the guard's label part and the rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "stack, action", [("dftno", DFTNO.ACTION_EDGE_LABEL), ("stno-bfs", STNO.ACTION_EDGE_LABEL)]
)
def test_a_compiled_node_holds_one_bit_for_sp2(stack, action):
    protocol = build_protocol(stack)
    network = generators.random_connected(9, seed=4)
    layer = _orientation_layer(protocol)
    sp2 = layer.specification.sp2_violated
    leaves = tuple(dict.fromkeys(protocol.layers()))
    for node in network.nodes():
        actions = tuple(protocol.actions(network, node))
        rules = tuple(tuple(leaf.violation_rules(network, node)) for leaf in leaves)
        parts, walks, segments = compile_program(actions, rules)
        (edge_label,) = [walk for a, walk in zip(actions, walks) if a.name == action]
        guard_bits = {bit for predicate, bit, _, _ in edge_label if predicate == sp2}
        rule_bits = {
            bit
            for _, steps, _ in segments
            for rule in steps
            for predicate, bit, _, _ in rule
            if predicate == sp2
        }
        assert len(guard_bits) == 1
        assert rule_bits == guard_bits
        (bit,) = guard_bits
        assert parts[bit.bit_length() - 1] == SP2_READS
        assert parts.count(SP2_READS) == 1


@pytest.mark.parametrize("stack", STACKS)
def test_a_name_change_rescans_sp2_once_per_node_for_guards_and_rules(stack, monkeypatch):
    calls: Counter[int] = Counter()
    scan = OrientationSpecification.sp2_violated

    def counted(self, view) -> bool:
        calls[view.node] += 1
        return scan(self, view)

    monkeypatch.setattr(OrientationSpecification, "sp2_violated", counted)
    network = generators.random_connected(12, seed=5)
    scheduler = Scheduler(network, build_protocol(stack), seed=2)
    scheduler.run_until_legitimate(20_000)
    assert scheduler.legitimate()
    node = 4
    calls.clear()
    old = scheduler.configuration.get(node, VAR_NAME)
    scheduler.configuration.set(node, VAR_NAME, (old + 1) % network.n)
    scheduler.enabled_actions()  # the guard walks first, then the rule walks
    assert scheduler.legitimacy_distance() > 0
    # Every node that reads the name re-scans, once for its guard and rule.
    assert calls == Counter({q: 1 for q in (node, *network.neighbors(node))})


# ----------------------------------------------------------------------
# The chordal helper keeps the modulus check
# ----------------------------------------------------------------------
def test_chordal_labels_is_chordal_edge_label_per_neighbor():
    assert chordal_labels(3, [0, 1, 5, 7], 8) == [chordal_edge_label(3, q, 8) for q in (0, 1, 5, 7)]
    # A corrupted neighbor name that is not an integer counts as 0.
    assert chordal_labels(3, [None, 5, "x", 2.0], 8) == [3, 6, 3, 3]


@pytest.mark.parametrize("modulus", [0, -3])
def test_a_non_positive_modulus_is_refused(modulus):
    # The relabeling statements' helper checks it at each call; the
    # specification, whose SP2 part takes ``mod N`` inline, and so both
    # orientation layers check it once, when they are built (both through
    # ``positive_modulus``).
    with pytest.raises(SpecificationError):
        chordal_labels(1, [0, 2], modulus)
    with pytest.raises(SpecificationError):
        chordal_labels(1, [], modulus)
    for build in (OrientationSpecification, DFTNO, STNO):
        with pytest.raises(SpecificationError):
            build(modulus=modulus)
