"""Guard kernels: the generated walks against a plain loop over the compiled steps.

``compile_kernels`` writes one guard kernel and one rule kernel per program
shape, as decision trees over the parts.  The oracles below are the loop the
scheduler walked before the kernels -- the first entry whose parts all hold,
a part called only when its stale bit is set -- and that loop's rule-segment
pass.  Random programs (shared parts, ``Not`` and ``Witness`` parts) on
random masks must give the same answers, masks, consulted bits, call counts,
witness slots and violation sets.
"""

from __future__ import annotations

import linecache
import re
import traceback
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engines import build_protocol
from repro.graphs import generators
from repro.runtime import scheduler as scheduler_module
from repro.runtime.actions import Action, Not, Reads, Rule, Witness, all_of
from repro.runtime.scheduler import Scheduler, compile_kernels, compile_program


def oracle_walk(walks, stale, held, view):
    """The first entry whose parts all hold, calling only stale parts (the old loop)."""
    calls = consulted = 0
    index = 0
    for steps in walks:
        for predicate, bit, negated, witness in steps:
            consulted |= bit
            if stale & bit:
                calls += 1
                stale ^= bit
                value = predicate(view)
                if witness is not None:
                    view._witnesses[witness] = value
                    value = value is not None
                if value:
                    held |= bit
                else:
                    held &= ~bit
            if not (held ^ negated) & bit:
                break
        else:
            return index, held, stale, consulted, calls
        index += 1
    return index, held, stale, consulted, calls


def oracle_rules(segments, node, hot, watched, stale, held, view, violations):
    """The old rule-segment pass: skip a segment no hot, watched bit of its mask touches."""
    watching = walked = calls = 0
    for slot, walks, mask in segments:
        if not hot & watched & mask:
            watching |= watched & mask
            continue
        index, held, stale, consulted, called = oracle_walk(walks, stale, held, view)
        calls += called
        if hot & consulted:
            walked += 1
        watching |= consulted
        if index < len(walks):
            violations[slot].add(node)
        else:
            violations[slot].discard(node)
    return held, stale, watching, walked, calls


class Pool:
    """``size`` parts, each a distinct function with a fixed outcome, calls counted.

    A witness part returns its value (0 included: it holds) or ``None``.
    """

    def __init__(self, outcomes, witnesses) -> None:
        self.calls: Counter[int] = Counter()
        self.functions = [self._function(k, outcome) for k, outcome in enumerate(outcomes)]
        self.witnesses = witnesses
        self.reads = [Reads(own=frozenset({f"v{k}"})) for k in range(len(outcomes))]

    def _function(self, k, outcome):
        def part(view):
            self.calls[k] += 1
            return outcome

        part.__qualname__ = f"part{k}"
        return part

    def guard(self, picks):
        """An ``all_of`` over ``(part, negated)`` picks."""
        parts = []
        for k, negated in picks:
            predicate = self.functions[k]
            if self.witnesses[k]:
                predicate = Witness(predicate)
            parts.append((Not(predicate) if negated else predicate, self.reads[k]))
        return all_of(*parts)


def _noop(view) -> None:
    return None


@st.composite
def programs(draw):
    size = draw(st.integers(1, 12))
    witnesses = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    outcomes = [
        draw(st.sampled_from((None, 0, 3)) if witness else st.booleans())
        for witness in witnesses
    ]
    pool = Pool(outcomes, witnesses)
    pick = st.tuples(st.integers(0, size - 1), st.booleans())
    conjuncts = st.lists(pick, min_size=1, max_size=4)
    actions = tuple(
        Action(f"A{i}", pool.guard(picks), _noop)
        for i, picks in enumerate(draw(st.lists(conjuncts, min_size=1, max_size=6)))
    )
    rules = tuple(
        tuple(Rule(f"R{slot}.{i}", pool.guard(picks)) for i, picks in enumerate(layer))
        for slot, layer in enumerate(
            draw(st.lists(st.lists(conjuncts, min_size=0, max_size=3), max_size=3))
        )
    )
    return pool, actions, rules


masks = st.one_of(st.just(-1), st.integers(0, (1 << 12) - 1))


@settings(max_examples=300, deadline=None)
@given(programs(), masks, masks)
def test_the_guard_kernel_equals_the_loop(program, stale, held):
    pool, actions, rules = program
    _, walks, segments = compile_program(actions, rules)
    guards, _ = compile_kernels(walks, segments)
    oracle_view, kernel_view = SimpleNamespace(_witnesses={}), SimpleNamespace(_witnesses={})
    expected = oracle_walk(walks, stale, held, oracle_view)
    oracle_calls = Counter(pool.calls)
    pool.calls.clear()
    assert guards(stale, held, kernel_view) == expected
    assert pool.calls == oracle_calls
    assert kernel_view._witnesses == oracle_view._witnesses


@settings(max_examples=300, deadline=None)
@given(programs(), masks, masks, masks, masks, st.data())
def test_the_rule_kernel_equals_the_segment_pass(program, stale, held, hot, watched, data):
    pool, actions, rules = program
    _, walks, segments = compile_program(actions, rules)
    _, rule_kernel = compile_kernels(walks, segments)
    node = 5
    before = [data.draw(st.booleans()) for _ in rules]
    expected_sets = [{node} if flag else set() for flag in before]
    kernel_sets = [{node} if flag else set() for flag in before]
    oracle_view, kernel_view = SimpleNamespace(_witnesses={}), SimpleNamespace(_witnesses={})
    expected = oracle_rules(
        segments, node, hot, watched, stale, held, oracle_view, expected_sets
    )
    oracle_calls = Counter(pool.calls)
    pool.calls.clear()
    assert rule_kernel(node, hot, watched, stale, held, kernel_view, kernel_sets) == expected
    assert kernel_sets == expected_sets
    assert pool.calls == oracle_calls
    assert kernel_view._witnesses == oracle_view._witnesses


# ----------------------------------------------------------------------
# Bounded source
# ----------------------------------------------------------------------
#: A linear walk's definition: written only for a branch past the tree budget.
LINEAR_WALK = re.compile(r"\s*def (g|r\d+_)\d+\(")

#: The committed line budget of the pathological shape below: two trees of
#: about 300 lines each plus flat linear walks of 7 lines per part.
PATHOLOGICAL_LINES = 1_800


def _pathological():
    """16 parts, 12 actions of 8 each, every part shared by 6 actions, half negated."""
    pool = Pool([k % 3 == 0 for k in range(16)], [False] * 16)
    actions = tuple(
        Action(
            f"A{i}",
            pool.guard([((i + 2 * j) % 16, (i + j) % 2 == 1) for j in range(8)]),
            _noop,
        )
        for i in range(12)
    )
    rules = (tuple(Rule(f"R{i}", pool.guard([((3 * i + j) % 16, j % 2 == 0) for j in range(6)]))
                   for i in range(6)),)
    return pool, actions, rules


def test_a_pathological_shape_stays_within_its_line_budget():
    pool, actions, rules = _pathological()
    _, walks, segments = compile_program(actions, rules)
    guards, rule_kernel = compile_kernels(walks, segments)
    source = linecache.getlines(guards.__code__.co_filename)
    assert len(source) <= PATHOLOGICAL_LINES
    # Past the tree budget the open branches resume on the linear walks.
    assert any(LINEAR_WALK.match(line) for line in source)
    for stale, held in ((-1, 0), (0b1010_1010_1010_1010, 0b0110_0110_0110_0110), (-1, -1)):
        expected = oracle_walk(walks, stale, held, SimpleNamespace(_witnesses={}))
        assert guards(stale, held, SimpleNamespace(_witnesses={})) == expected
        expected_sets, kernel_sets = [set()], [set()]
        expected = oracle_rules(segments, 1, -1, -1, stale, held,
                                SimpleNamespace(_witnesses={}), expected_sets)
        assert rule_kernel(1, -1, -1, stale, held, SimpleNamespace(_witnesses={}),
                           kernel_sets) == expected
        assert kernel_sets == expected_sets


def test_a_conjunction_of_150_parts_compiles_and_walks():
    # Deeper than Python's indentation limit if every part nested a level.
    pool = Pool([True] * 149 + [False], [k % 5 == 0 for k in range(150)])
    actions = (Action("Long", pool.guard([(k, False) for k in range(150)]), _noop),
               Action("Rest", pool.guard([(149, True)]), _noop))
    _, walks, segments = compile_program(actions)
    guards, _ = compile_kernels(walks, segments)
    for stale in (-1, 1 << 149):
        expected = oracle_walk(walks, stale, (1 << 149) - 1, SimpleNamespace(_witnesses={}))
        assert guards(stale, (1 << 149) - 1, SimpleNamespace(_witnesses={})) == expected
        assert expected[0] == 1


def test_the_shipped_shapes_stay_decision_trees():
    for stack in ("dftno", "stno-bfs", "stno-dfs"):
        protocol = build_protocol(stack)
        network = generators.random_connected(9, seed=4)
        leaves = tuple(dict.fromkeys(protocol.layers()))
        for node in network.nodes():
            actions = tuple(protocol.actions(network, node))
            rules = tuple(tuple(leaf.violation_rules(network, node)) for leaf in leaves)
            guards, _ = compile_kernels(*compile_program(actions, rules)[1:])
            source = linecache.getlines(guards.__code__.co_filename)
            assert not any(LINEAR_WALK.match(line) for line in source)


# ----------------------------------------------------------------------
# Shapes, binding and tracebacks
# ----------------------------------------------------------------------
def test_programs_of_one_shape_share_the_code_and_bind_their_own_parts():
    first = Pool([True, False], [False, False])
    second = Pool([False, True], [False, False])
    programs = [
        (Action("A", pool.guard([(0, False)]), _noop), Action("B", pool.guard([(1, False)]), _noop))
        for pool in (first, second)
    ]
    kernels = [compile_kernels(*compile_program(program)[1:])[0] for program in programs]
    assert kernels[0].__code__ is kernels[1].__code__
    view = SimpleNamespace(_witnesses={})
    assert kernels[0](-1, 0, view)[0] == 0
    assert kernels[1](-1, 0, view)[0] == 1
    assert first.calls == Counter({0: 1}) and second.calls == Counter({0: 1, 1: 1})


def test_a_scheduler_binds_one_kernel_per_distinct_program():
    network = generators.random_connected(12, seed=2)
    scheduler = Scheduler(network, build_protocol("dftno"), seed=2)
    # The root's program and everyone else's.
    assert len({id(kernel) for kernel in scheduler._guard_kernels}) == 2
    assert len({id(kernel) for kernel in scheduler._rule_kernels}) == 2


def test_the_shape_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(scheduler_module, "_KERNELS", {})
    monkeypatch.setattr(scheduler_module, "_KERNEL_SHAPES", 3)
    pool = Pool([True] * 5, [False] * 5)
    for size in range(1, 6):
        program = tuple(Action(f"A{i}", pool.guard([(i, False)]), _noop) for i in range(size))
        compile_kernels(*compile_program(program)[1:])
        assert len(scheduler_module._KERNELS) <= 3


def test_a_raising_part_shows_the_kernel_line_in_its_traceback():
    def broken(view) -> bool:
        raise RuntimeError("part failed")

    program = (Action("A", all_of((broken, Reads(own=frozenset({"x"})))), _noop),)
    guards, _ = compile_kernels(*compile_program(program)[1:])
    with pytest.raises(RuntimeError) as excinfo:
        guards(-1, 0, SimpleNamespace(_witnesses={}))
    text = "".join(traceback.format_exception(excinfo.value))
    assert 'File "<guard kernel ' in text
    assert "held = held | 1 if p0(view) else held & -2" in text
