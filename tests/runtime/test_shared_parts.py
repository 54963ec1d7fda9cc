"""Shared part bits: one cached bit per distinct guard fact, for guards and rules alike.

The scheduler compiles each node's actions and violation rules onto its
distinct ``(predicate, Reads)`` parts (``compile_program``): a part tested by
several actions and rules, negated (``Not``) or not, is one bit, called once
per change that stales it.  These tests pin the sharing key, the call counts,
the soundness of a rule walk after a guard walk re-called a shared part,
the debug-mode checks on shared parts, and the compiled walk against the
reference interpreter on every shipped stack.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.api.engines import build_protocol
from repro.errors import GuardLocalityError
from repro.graphs import generators
from repro.obs import Instrumentation
from repro.runtime import reference
from repro.runtime.actions import Action, Not, Reads, Rule, all_of
from repro.runtime.processor import GuardView
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler, compile_kernels, compile_program
from repro.runtime.variables import int_variable
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.substrates.pif import PIFWave
from repro.substrates.spanning_tree import BFSSpanningTree, DFSSpanningTree
from repro.substrates.token_circulation import DepthFirstTokenCirculation
from tests.lint.fixtures.reads_negated_underdeclared import ReadsNegatedUnderdeclared

GATE_READS = Reads(own=frozenset({"g"}))
SCAN_READS = Reads(neighbor=frozenset({"x"}))


class Shared(Protocol):
    """``Go`` and ``Idle`` test the gate ``g == 1``, and so does the rule ``Open``.

    ``Go`` runs at an open processor next to a marked one (``x == 1``) and
    closes it; ``Idle`` runs at a closed one (``Not`` of the same gate) that
    is marked itself, and unmarks it.  The rule holds wherever the gate is
    open.  Every call of the gate and of the scan is counted per node.
    """

    name = "shared"

    def __init__(self, gate_reads: Reads = GATE_READS) -> None:
        self.calls: Counter[tuple[str, int]] = Counter()
        calls = self.calls

        def gate(view) -> bool:
            calls["gate", view.node] += 1
            return view.read("g") == 1

        def scan(view) -> bool:
            calls["scan", view.node] += 1
            return any(view.read_neighbor(q, "x") == 1 for q in view.neighbors)

        def marked(view) -> bool:
            return view.read("x") == 1

        def close(view) -> None:
            view.write("g", 0)

        def unmark(view) -> None:
            view.write("x", 0)

        own_x = Reads(own=frozenset({"x"}))
        self._program = (
            Action("Go", all_of((gate, gate_reads), (scan, SCAN_READS)), close, layer=self.name),
            Action("Idle", all_of((Not(gate), gate_reads), (marked, own_x)), unmark, layer=self.name),
        )
        self._rules = (Rule("Open", all_of((gate, gate_reads)), layer=self.name),)

    def variables(self, network, node):
        return [int_variable("g", 0, 1, initial=0), int_variable("x", 0, 1, initial=0)]

    def actions(self, network, node):
        return self._program

    def violation_rules(self, network, node):
        return self._rules


def _counters(scheduler: Scheduler) -> dict[str, float]:
    return scheduler.instrumentation.summary()["counters"]


def _scheduler(protocol: Protocol, network, **states: dict[int, int]) -> Scheduler:
    configuration = protocol.initial_configuration(network)
    for name, values in states.items():
        for node, value in values.items():
            configuration.set(node, name, value)
    return Scheduler(
        network, protocol, configuration=configuration, instrumentation=Instrumentation()
    )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def test_parts_share_a_bit_only_with_the_same_predicate_and_equal_reads():
    protocol = Shared()
    network = generators.ring(4)
    go, idle = protocol.actions(network, 0)
    parts, walks, segments = compile_program((go, idle), (protocol.violation_rules(network, 0),))
    # gate, scan, marked: the negated gate and the rule's gate reuse bit 0.
    assert parts == (GATE_READS, SCAN_READS, Reads(own=frozenset({"x"})))
    assert [[(bit, negated) for _, bit, negated, _ in steps] for steps in walks] == [
        [(0b001, 0), (0b010, 0)],
        [(0b001, 0b001), (0b100, 0)],
    ]
    ((slot, rule_steps, mask),) = segments
    assert (slot, mask) == (0, 0b001)
    assert [(bit, negated) for _, bit, negated, _ in rule_steps[0]] == [(0b001, 0)]
    # The same predicate under reads that differ is a part of its own.
    wider = Reads(own=frozenset({"g", "x"}))
    other = Action("Other", all_of((go.guard_parts[0][0], wider)), bool)
    parts, _, _ = compile_program((go, other))
    assert parts == (GATE_READS, SCAN_READS, wider)


def test_not_is_a_callable_guard():
    network = generators.ring(4)
    protocol = Shared()
    configuration = protocol.initial_configuration(network)
    configuration.set(0, "x", 1)
    view = GuardView(0, network, configuration)
    idle = protocol.actions(network, 0)[1]
    assert idle.guard(view)  # gate closed, marked
    configuration.set(0, "g", 1)
    assert not idle.guard(view)


def test_the_compiled_walk_negates_a_shared_bit():
    network = generators.ring(4)
    protocol = Shared()
    configuration = protocol.initial_configuration(network)
    configuration.set(0, "x", 1)
    _, walks, segments = compile_program(protocol.actions(network, 0))
    guards, _ = compile_kernels(walks, segments)
    view = GuardView(0, network, configuration)
    # Gate closed: Go stops at it, Idle holds on the same bit read clear.
    index, held, stale, consulted, calls = guards(-1, 0, view)
    assert (index, held & 0b111, consulted, calls) == (1, 0b100, 0b101, 2)
    assert protocol.calls == Counter({("gate", 0): 1})


# ----------------------------------------------------------------------
# Call counts
# ----------------------------------------------------------------------
def test_a_part_shared_by_two_actions_and_a_rule_is_called_once_per_change():
    network = generators.ring(4)
    protocol = Shared()
    scheduler = _scheduler(protocol, network)
    assert scheduler.enabled_actions() == {}
    assert scheduler.legitimate()
    # One gate call per node serves Go, Idle (negated) and the rule.
    assert protocol.calls == Counter({("gate", node): 1 for node in network.nodes()})
    protocol.calls.clear()
    scheduler.configuration.set(2, "g", 1)
    scheduler.enabled_actions()
    assert not scheduler.legitimate()
    assert protocol.calls == Counter({("gate", 2): 1, ("scan", 2): 1})
    counters = _counters(scheduler)
    # The rule walk re-walked node 2 but called nothing: the guard walk had.
    assert counters["legitimacy_nodes_checked"] == network.n + 1
    assert counters["rule_calls"] == 0
    # Per node the gate and Idle's ``marked`` at first, then the gate and scan at 2.
    assert counters["guard_calls"] == 2 * network.n + 2
    # Queried the other way round, the rule walk makes the call.
    protocol.calls.clear()
    scheduler.configuration.set(1, "g", 1)
    assert scheduler.legitimacy_distance() == 2
    scheduler.enabled_actions()
    assert protocol.calls == Counter({("gate", 1): 1, ("scan", 1): 1})
    assert _counters(scheduler)["rule_calls"] == 1


def test_a_rule_walk_sees_a_shared_part_a_guard_walk_flipped():
    # Node 0 is open, so the rule Open holds there; closing it flips the
    # shared gate.  The guard walk re-calls the gate (clearing its stale
    # bit) before the legitimacy query: the query must still re-walk the
    # rule, because the bit was staled since the rule's last walk.
    network = generators.ring(4)
    protocol = Shared()
    scheduler = _scheduler(protocol, network, g={0: 1}, x={1: 1})
    assert sorted(scheduler.enabled_actions()) == [0, 1]
    assert not scheduler.legitimate()
    scheduler.configuration.set(0, "g", 0)
    scheduler.enabled_actions()
    assert ("gate", 0) in protocol.calls
    assert scheduler.legitimate()
    assert scheduler.legitimacy_distance() == 0
    # And back: open it again, walk the guards first, then ask.
    scheduler.configuration.set(3, "g", 1)
    scheduler.enabled_actions()
    assert not scheduler.legitimate()
    assert scheduler.legitimacy_distance() == 1


def test_a_run_agrees_with_the_reference_on_a_shared_part():
    network = generators.random_connected(10, seed=3)
    protocol = Shared()
    rng = random.Random(5)
    for trial in range(20):
        configuration = protocol.random_configuration(network, rng=rng)
        scheduler = Scheduler(network, protocol, configuration=configuration, seed=trial)
        twin = reference.ReferenceScheduler(
            network, protocol, configuration=configuration, seed=trial
        )
        for _ in range(30):
            assert scheduler.legitimate() == twin.legitimate()
            assert scheduler.legitimacy_distance() == twin.legitimacy_distance()
            assert scheduler.enabled_actions() == twin.enabled_actions()
            if scheduler.step() is None:
                assert twin.step() is None
                break
            twin.step()
            assert scheduler.configuration == twin.configuration


# ----------------------------------------------------------------------
# Debug mode
# ----------------------------------------------------------------------
def test_a_shared_part_is_checked_once_and_names_every_holder():
    # The gate under-declares (it reads g but declares nothing).  A
    # legitimacy query walks the rule Open first, which calls the gate once;
    # that one call serves Go, Idle (negated) and Open, so the error names
    # all three, as repro-lint names a shared part's site.
    network = generators.ring(4)
    protocol = Shared(gate_reads=Reads())
    configuration = protocol.initial_configuration(network)
    scheduler = Scheduler(
        network, protocol, configuration=configuration, check_guard_locality=True
    )
    with pytest.raises(GuardLocalityError) as caught:
        scheduler.legitimate()
    assert caught.value.rule == "RL008"
    assert caught.value.action == "Go/Idle/Open"
    assert caught.value.layer == "shared"
    assert "guard or violation rule 'Go/Idle/Open'" in str(caught.value)
    assert protocol.calls[("gate", caught.value.node)] == 1


def test_an_underdeclared_negated_part_raises_rl008_at_run_time():
    network = generators.ring(4)
    protocol = ReadsNegatedUnderdeclared()
    configuration = protocol.initial_configuration(network)
    configuration.set(1, "rn_x", 2)
    scheduler = Scheduler(
        network, protocol, configuration=configuration, check_guard_locality=True
    )
    with pytest.raises(GuardLocalityError) as caught:
        scheduler.enabled_actions()
    assert caught.value.rule == "RL008"
    assert caught.value.action == "RN-Raise"
    assert all(name == "rn_x" and source != caught.value.node for source, name in caught.value.reads)
    # Without the check the negated part is walked like any other.
    plain = Scheduler(network, protocol, configuration=configuration, check_guard_locality=False)
    assert sorted(plain.enabled_actions()) == [0, 2]


# ----------------------------------------------------------------------
# Every shipped stack against the reference interpreter
# ----------------------------------------------------------------------
#: Each stack and substrate the package ships, on a network it runs on.
SHIPPED = {
    "dftno": (lambda: build_protocol("dftno"), generators.random_connected(9, seed=4)),
    "stno-bfs": (lambda: build_protocol("stno-bfs"), generators.random_connected(9, seed=4)),
    "stno-dfs": (lambda: build_protocol("stno-dfs"), generators.random_connected(9, seed=4)),
    "dftc": (DepthFirstTokenCirculation, generators.random_connected(9, seed=4)),
    "bfs": (BFSSpanningTree, generators.random_connected(9, seed=4)),
    "dfs": (DFSSpanningTree, generators.random_connected(9, seed=4)),
    "pif": (PIFWave, generators.random_tree(9, seed=4)),
    "dijkstra": (DijkstraTokenRing, generators.ring(6)),
}


@pytest.mark.parametrize("check", [False, True], ids=["release", "check"])
@pytest.mark.parametrize("name", SHIPPED)
def test_the_compiled_walk_matches_the_reference_on_random_configurations(name, check):
    build, network = SHIPPED[name]
    protocol = build()
    leaves = tuple(dict.fromkeys(protocol.layers()))
    rng = random.Random(name)
    for _ in range(25):
        configuration = protocol.random_configuration(network, rng=rng)
        expected = reference.enabled(network, protocol, configuration)
        for node in network.nodes():
            actions = tuple(protocol.actions(network, node))
            rules = tuple(tuple(leaf.violation_rules(network, node)) for leaf in leaves)
            _, walks, segments = compile_program(actions, rules, check)
            guards, rule_kernel = compile_kernels(walks, segments)
            view = GuardView(node, network, configuration)
            index, _, _, _, _ = guards(-1, 0, view)
            # By name: Dijkstra's and PIF's programs are built per call.
            first = actions[index].name if index < len(actions) else None
            assert first == getattr(expected.get(node), "name", None)
            violations = [set() for _ in leaves]
            rule_kernel(node, -1, -1, -1, 0, view, violations)
            for slot, _, _ in segments:
                holds = any(rule.guard(view) for rule in rules[slot])
                assert (node in violations[slot]) == holds
        # And the scheduler's maintained set, which walks with cached bits.
        scheduler = Scheduler(
            network, protocol, configuration=configuration, check_guard_locality=check
        )
        assert {node: action.name for node, action in scheduler.enabled_actions().items()} == {
            node: action.name for node, action in expected.items()
        }
