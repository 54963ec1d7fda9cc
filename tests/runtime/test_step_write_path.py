"""The synchronous step's write path: one apply call, one counting pass, lean helpers.

A step applies every move's writes in one :meth:`Configuration.apply_step`
call, builds its records without the named tuples' Python-level
constructors, and :class:`~repro.runtime.observers.MetricsObserver` counts
its moves in one :meth:`ExecutionMetrics.record_moves` pass.  The BFS and
STNO helpers read ``n`` once per call and cap with a conditional instead of
``min``.  These tests pin each cut to the form it replaced: the same
changes and journal as one one-move :meth:`Configuration.apply_step` call
per move, the same record types, the same metrics as the reference
interpreter and as one one-move :meth:`ExecutionMetrics.record_moves` call
per move, and the same guard values and
writes as inline copies of the old formulas, on in-domain and out-of-domain
states.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dftno import build_dftno
from repro.core.specification import VAR_NAME
from repro.core.stno import STNO, VAR_START, VAR_WEIGHT, build_stno
from repro.graphs import generators
from repro.runtime.configuration import Configuration, copy_value
from repro.runtime.daemon import make_daemon
from repro.runtime.metrics import ExecutionMetrics
from repro.runtime.processor import GuardView, ProcessorView
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import MoveRecord, Scheduler, StepRecord
from repro.substrates.spanning_tree import VAR_BFS_DIST, BFSSpanningTree


# ----------------------------------------------------------------------
# One apply call per step
# ----------------------------------------------------------------------
def _configuration() -> Configuration:
    return Configuration({0: {"a": 1, "b": 2}, 1: {"a": 0}, 2: {"a": 5, "m": {1: 2}}})


#: A step's moves, in order: a plain change, an unchanged write, a change
#: plus a created slot, a ``None`` write to a new slot, a write to a node
#: with no state yet, and a second move of node 0 in the same step.
STEP = (
    (0, {"a": 3, "b": 2}),
    (1, {"a": 0}),
    (2, {"m": {1: 3}, "c": 7}),
    (1, {"z": None}),
    (7, {"a": 1}),
    (0, {"b": 4, "a": 3}),
)


def test_one_apply_call_equals_the_moves_applied_one_by_one():
    batched, single = _configuration(), _configuration()
    applied = batched.apply_step(STEP)
    one_by_one = [single.apply_step(((node, writes),))[0] for node, writes in STEP]
    assert applied == one_by_one
    assert batched == single
    dirty_batched, dirty_single = batched.drain_dirty(), single.drain_dirty()
    assert dirty_batched == dirty_single
    assert list(dirty_batched.items()) == list(dirty_single.items())


def test_apply_step_changes_and_journal():
    configuration = _configuration()
    applied = configuration.apply_step(STEP)
    assert applied == [
        {"a": (1, 3)},
        {},
        {"m": ({1: 2}, {1: 3}), "c": (None, 7)},
        {},  # a None write to a new slot is not a change...
        {"a": (None, 1)},
        {"b": (2, 4)},
    ]
    journal = configuration.drain_dirty()
    # ... but creating the slot is journaled, and names keep first-change order.
    assert journal == {0: ("a", "b"), 2: ("m", "c"), 1: ("z",), 7: ("a",)}
    assert list(journal) == [0, 2, 1, 7]
    assert configuration.get(1, "z") is None
    assert configuration.drain_dirty() == {}


def test_a_one_move_step_changes_and_journal():
    configuration = _configuration()
    assert configuration.apply_step(((0, {"a": 1, "b": 2}),)) == [{}]
    assert configuration.drain_dirty() == {}
    assert configuration.apply_step(((0, {"b": 3, "new": None}),)) == [{"b": (2, 3)}]
    assert configuration.drain_dirty() == {0: ("b", "new")}


def test_a_whole_state_entry_absorbs_later_moves():
    configuration = _configuration()
    configuration.replace_node(0, {"a": 9})
    configuration.apply_step(((0, {"a": 8}), (1, {"a": 4})))
    assert configuration.drain_dirty() == {0: None, 1: ("a",)}


def test_records_keep_their_types_and_field_order():
    assert MoveRecord._fields == ("node", "action", "layer", "changes")
    assert StepRecord._fields == ("step", "round", "executed", "changed_nodes", "moves")
    network = generators.height_tree(30, 4, seed=1)
    core = Scheduler(network, build_stno(tree="bfs"), daemon=make_daemon("synchronous"), seed=1)
    record = core.step()
    assert type(record) is StepRecord and record.moves
    for move in record.moves:
        assert type(move) is MoveRecord
        assert move == MoveRecord(move.node, move.action, move.layer, move.changes)
    assert record.executed == tuple((move.node, move.action) for move in record.moves)
    assert record.changed_nodes == tuple(move.node for move in record.moves if move.changes)


# ----------------------------------------------------------------------
# One counting pass
# ----------------------------------------------------------------------
STACKS = {
    "stno-bfs": lambda: build_stno(tree="bfs"),
    "stno-dfs": lambda: build_stno(tree="dfs"),
    "dftno": build_dftno,
}


@pytest.mark.parametrize("daemon", ("synchronous", "central", "distributed"))
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_metrics_equal_the_reference_and_a_per_move_count(stack, daemon):
    network = generators.random_connected(9, seed=4)
    cores = [
        core(network, STACKS[stack](), daemon=make_daemon(daemon), seed=6)
        for core in (Scheduler, ReferenceScheduler)
    ]
    recount = ExecutionMetrics()
    for _ in range(400):
        record, other = (core.step() for core in cores)
        assert record == other
        if record is None:
            break
        for move in record.moves:
            recount.record_moves((move,))
    metrics, reference = (core.metrics for core in cores)
    assert metrics.moves > 0
    assert metrics == reference
    assert metrics.as_dict() == recount.as_dict() | {"steps": metrics.steps, "rounds": metrics.rounds}
    for field in ("moves_per_node", "moves_per_action", "moves_per_layer"):
        assert list(getattr(metrics, field).items()) == list(getattr(recount, field).items())


def test_record_moves_counts_a_sequence_in_order():
    metrics = ExecutionMetrics()
    metrics.record_moves([(2, "A", "x", {}), (1, "B", "y", None), (2, "A", "x", {"v": (0, 1)})])
    metrics.record_moves(())
    assert metrics.moves == 3
    assert list(metrics.moves_per_node.items()) == [(2, 2), (1, 1)]
    assert metrics.moves_per_action == {"A": 2, "B": 1}
    assert metrics.moves_per_layer == {"x": 2, "y": 1}


# ----------------------------------------------------------------------
# The BFS and STNO helpers against inline copies of the old formulas
# ----------------------------------------------------------------------
def _old_bfs_desired(view):
    max_dist = view.network.n - 1
    best_dist = None
    best_parent = None
    for q in view.neighbors:
        dist_q = view.read_neighbor(q, VAR_BFS_DIST)
        if best_dist is None or dist_q < best_dist:
            best_dist = dist_q
            best_parent = q
    if best_dist is None:
        return 0, None
    return min(best_dist + 1, max_dist), best_parent


def _old_children(tree, view):
    return tuple(
        q for q in view.neighbors if view.try_read_neighbor(q, tree.parent_variable) == view.node
    )


def _old_child_weight(view, child):
    weight = view.try_read_neighbor(child, VAR_WEIGHT, default=1)
    if not isinstance(weight, int) or weight < 1:
        return 1
    return min(weight, view.network.n)


def _old_desired_weight(tree, view):
    total = 1 + sum(_old_child_weight(view, child) for child in _old_children(tree, view))
    return min(total, view.network.n)


def _old_desired_name(tree, view, modulus):
    if view.is_root:
        return 0
    parent = view.read(tree.parent_variable)
    if parent is None or parent not in view.neighbor_set:
        return view.read(VAR_NAME)
    table = view.try_read_neighbor(parent, VAR_START, default={})
    table = table if isinstance(table, dict) else {}
    assigned = table.get(view.node, 0)
    if not isinstance(assigned, int):
        return 0
    return assigned % modulus


def _old_desired_start(tree, view, own_name, modulus):
    given = own_name
    table = {}
    for child in _old_children(tree, view):
        table[child] = (given + 1) % modulus
        given += _old_child_weight(view, child)
    return table


def _old_name_wrong(tree, view, modulus):
    desired = _old_desired_name(tree, view, modulus)
    if view.read(VAR_NAME) != desired:
        return True
    stored = view.read(VAR_START)
    stored = stored if isinstance(stored, dict) else {}
    wanted = _old_desired_start(tree, view, desired, modulus)
    return not all(stored.get(child) == value for child, value in wanted.items())


def _typed(value):
    """A value with the exact types inside it, so ``True`` never equals ``1``."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_typed(item) for item in value)
    return (type(value), value)


#: Out-of-domain values: weights that are not ints, above n or below 1, start
#: tables that are not dicts or assign a non-int, and distances past n - 1.
ODD_WEIGHTS = ("w", 2.5, None, True, 0, -3, 10_000)
ODD_STARTS = ([1, 2], None, 7, "s", {0: "x", 1: 2.0, 2: True})
ODD_DISTS = (10_000, -1, True)


def _perturb(network, configuration, tree, rng):
    for node in network.nodes():
        if rng.random() < 0.3:
            configuration.set(node, VAR_WEIGHT, rng.choice(ODD_WEIGHTS))
        if rng.random() < 0.3:
            configuration.set(node, VAR_START, rng.choice(ODD_STARTS))
        if rng.random() < 0.3:
            configuration.set(node, VAR_NAME, rng.choice((-5, 10_000, 3)))
        if rng.random() < 0.3:
            # Point the parent at a random neighbor so subtrees (and weights) show up.
            configuration.set(node, tree.parent_variable, rng.choice(network.neighbors(node)))
        if isinstance(tree, BFSSpanningTree) and rng.random() < 0.3:
            configuration.set(node, VAR_BFS_DIST, rng.choice(ODD_DISTS))


def _stno_layer(protocol) -> STNO:
    (layer,) = [layer for layer in protocol.layers() if isinstance(layer, STNO)]
    return layer


def _assert_helpers_match(protocol, network, configuration, modulus):
    layer = _stno_layer(protocol)
    tree = layer.tree_layer
    wrap = modulus if modulus is not None else network.n
    for node in network.nodes():
        guard_view = GuardView(node, network, configuration)
        assert _typed(tree.children(guard_view)) == _typed(_old_children(tree, guard_view))
        for action in layer.actions(network, node):
            view = ProcessorView(node, network, configuration)
            writes = view.begin_move()
            # The weight and name guards are witness parts: their value is
            # what the statement adopts, None where the guard is false.  A
            # statement runs only where its guard holds.
            if action.name in (STNO.ACTION_WEIGHT, STNO.ACTION_ROOT_WEIGHT):
                weight = _old_desired_weight(tree, guard_view)
                wrong = guard_view.read(VAR_WEIGHT) != weight
                assert action.guard(guard_view) == wrong
                assert _typed(action.guard.function(guard_view)) == _typed(weight if wrong else None)
                if wrong:
                    action.statement(view)
                    assert _typed(writes) == _typed({VAR_WEIGHT: weight})
            elif action.name in (STNO.ACTION_NAME, STNO.ACTION_ROOT_NAME):
                name = _old_desired_name(tree, guard_view, wrap)
                start = _old_desired_start(tree, guard_view, name, wrap)
                wrong = _old_name_wrong(tree, guard_view, wrap)
                assert action.guard(guard_view) == wrong
                assert _typed(action.guard.function(guard_view)) == _typed(
                    (name, start) if wrong else None
                )
                if wrong:
                    action.statement(view)
                    assert _typed(writes) == _typed({VAR_NAME: name, VAR_START: start})
        if isinstance(tree, BFSSpanningTree) and not network.is_root(node):
            assert _typed(BFSSpanningTree._desired(guard_view)) == _typed(_old_bfs_desired(guard_view))


@pytest.mark.parametrize("modulus", (None, 23))
@pytest.mark.parametrize("tree", ("bfs", "dfs"))
@pytest.mark.parametrize("seed", range(6))
def test_stno_and_bfs_helpers_equal_the_old_formulas_on_random_states(seed, tree, modulus):
    rng = random.Random(seed)
    network = generators.random_connected(12, seed=seed)
    protocol = build_stno(tree=tree, modulus=modulus)
    configuration = protocol.random_configuration(network, seed=seed)
    _assert_helpers_match(protocol, network, configuration, modulus)
    _perturb(network, configuration, _stno_layer(protocol).tree_layer, rng)
    _assert_helpers_match(protocol, network, configuration, modulus)


def test_helpers_on_a_hand_built_path():
    # Path 0 - 1 - 2 - 3 rooted at 0, parents pointing towards the root.
    network = generators.path(4)
    protocol = build_stno(tree="bfs")
    tree = _stno_layer(protocol).tree_layer
    configuration = protocol.random_configuration(network, seed=0)
    for node, parent in ((0, None), (1, 0), (2, 1), (3, 2)):
        configuration.set(node, tree.parent_variable, parent)
    for weights, starts in (
        ({1: "w", 2: 2.5, 3: None}, {0: [1], 1: None, 2: 7}),  # non-int weights, non-dict tables
        ({1: 99, 2: 50, 3: 4}, {0: {1: "x"}, 1: {2: True}, 2: {3: 2.0}}),  # weights > n
        ({1: 0, 2: -7, 3: 1}, {0: {}, 1: {2: 1}, 2: {3: 9}}),  # weights < 1
    ):
        for node, weight in weights.items():
            configuration.set(node, VAR_WEIGHT, weight)
        for node, start in starts.items():
            configuration.set(node, VAR_START, start)
        configuration.set(1, VAR_BFS_DIST, 10_000)
        _assert_helpers_match(protocol, network, configuration, None)
    configuration.set(3, VAR_BFS_DIST, 20_000)
    view = GuardView(2, network, configuration)
    assert BFSSpanningTree._desired(view) == (3, 1)  # capped at n - 1 = 3


# ----------------------------------------------------------------------
# copy_value's exact-type check
# ----------------------------------------------------------------------
def test_copy_value_copies_a_flat_scalar_map_shallowly():
    original = {1: 2, "a": None, 2.5: True, "s": "t"}
    copied = copy_value(original)
    assert copied == original and copied is not original


def test_copy_value_isolates_a_map_holding_a_list():
    original = {1: [2, 3], 2: 4}
    copied = copy_value(original)
    original[1].append(5)
    assert copied == {1: [2, 3], 2: 4}


def test_copy_value_isolates_a_map_with_a_tuple_key():
    original = {(1, 2): 3, 4: 5}
    copied = copy_value(original)
    original[(1, 2)] = 6
    del original[4]
    assert copied == {(1, 2): 3, 4: 5}


def test_copy_value_isolates_a_map_keyed_by_a_mutable_object():
    class Key:
        def __init__(self) -> None:
            self.tags = ["a"]

    key = Key()
    copied = copy_value({key: 1})
    key.tags.append("b")
    (copied_key,) = copied
    assert copied_key is not key and copied_key.tags == ["a"]


def test_copy_value_deep_copies_a_dict_subclass_and_shares_scalars():
    class Labels(dict):
        pass

    original = Labels({1: 2})
    copied = copy_value(original)
    assert copied == original and copied is not original and type(copied) is Labels
    for scalar in (1, "s", None, 2.5, True):
        assert copy_value(scalar) is scalar
