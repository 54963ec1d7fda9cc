"""Unit tests for configurations, processor views and guarded actions."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.graphs import generators
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration, copy_value
from repro.runtime.daemon import SynchronousDaemon
from repro.runtime.processor import ProcessorView, TrackingProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import map_variable


@pytest.fixture
def config() -> Configuration:
    return Configuration({0: {"x": 1, "m": {1: 5}}, 1: {"x": 2}, 2: {"x": 3}})


def test_configuration_get_and_set(config):
    assert config.get(0, "x") == 1
    config.set(0, "x", 9)
    assert config.get(0, "x") == 9
    config.set(5, "fresh", "value")
    assert config.get(5, "fresh") == "value"


def test_configuration_get_missing_raises(config):
    with pytest.raises(ProtocolError):
        config.get(0, "missing")
    with pytest.raises(ProtocolError):
        config.get(99, "x")


def test_configuration_has_and_variables(config):
    assert config.has(0, "x")
    assert not config.has(0, "zzz")
    assert set(config.variables_of(0)) == {"x", "m"}
    assert set(config.nodes()) == {0, 1, 2}


def test_configuration_copy_is_deep(config):
    copy = config.copy()
    copy.get(0, "m")[1] = 99
    assert config.get(0, "m")[1] == 5
    copy.set(1, "x", 42)
    assert config.get(1, "x") == 2


def test_configuration_apply_writes_and_state_of(config):
    config.apply_writes(1, {"x": 7, "y": 8})
    assert config.get(1, "y") == 8
    state = config.state_of(1)
    state["x"] = 0
    assert config.get(1, "x") == 7


# ----------------------------------------------------------------------
# The value-copy rule: scalars shared, flat maps by dict(), the rest deep
# ----------------------------------------------------------------------
def test_copy_value_shares_scalars_and_detaches_containers():
    for scalar in (3, True, "s", 1.5, None):
        assert copy_value(scalar) is scalar
    flat = {1: 5, 2: "x", 3: None}
    assert copy_value(flat) == flat and copy_value(flat) is not flat
    nested = {1: [1, 2]}
    copied = copy_value(nested)
    assert copied == nested and copied[1] is not nested[1]
    listed = [1, {2: 3}]
    copied = copy_value(listed)
    assert copied == listed and copied[1] is not listed[1]


class _Labeler(Protocol):
    """Writes ``{q: 1 for each neighbor q}`` into ``m``, then scribbles on its own map."""

    name = "labeler"

    def variables(self, network, node):
        return (map_variable("m", 0, 9),)

    def actions(self, network, node):
        return (Action("Label", _labels_wrong, _label, layer=self.name),)


def _labels_wrong(view) -> bool:
    return view.read("m") != {q: 1 for q in view.neighbors}


def _label(view) -> None:
    table = {q: 1 for q in view.neighbors}
    view.write("m", table)
    table[view.neighbors[0]] = 7
    table[99] = 9


def test_a_flat_map_mutated_after_write_does_not_change_the_step():
    network = generators.path(3)
    scheduler = Scheduler(
        network,
        _Labeler(),
        daemon=SynchronousDaemon(),
        configuration=Configuration({node: {"m": {}} for node in network.nodes()}),
    )
    record = scheduler.step()
    for node in network.nodes():
        expected = {q: 1 for q in network.neighbors(node)}
        assert scheduler.configuration.get(node, "m") == expected
    assert {move.node: move.changes["m"][1] for move in record.moves} == {
        node: {q: 1 for q in network.neighbors(node)} for node in network.nodes()
    }
    assert scheduler.step() is None  # silent: the scribbles never landed


@pytest.mark.parametrize(
    "value, mutate",
    [
        ({1: 5, 2: 6}, lambda value: value.update({1: 99, 3: 0})),
        ({1: [1, 2]}, lambda value: value[1].append(3)),
        ([1, {2: 3}], lambda value: value[1].update({2: 99})),
    ],
    ids=("map", "nested-map", "nested-list"),
)
def test_snapshots_stay_independent_of_the_source(value, mutate):
    config = Configuration({0: {"v": value, "s": 1}})
    original = copy_value(value)
    snapshots = {
        "copy": config.copy().get(0, "v"),
        "to_dict": config.to_dict()[0]["v"],
        "state_of": config.state_of(0)["v"],
    }
    # An in-place change of the source (past the journal) reaches no
    # snapshot; sharing any mutable part would carry it over.
    mutate(config.get(0, "v"))
    assert config.get(0, "v") != original
    for name, snapshot in snapshots.items():
        assert snapshot == original, name


def test_configuration_equality_and_diff(config):
    other = config.copy()
    assert config == other
    other.set(2, "x", 10)
    assert config != other
    diff = config.diff(other)
    assert diff == {2: {"x": (3, 10)}}
    assert config != "something else"


def test_configuration_to_dict_and_format(config):
    data = config.to_dict()
    assert data[1]["x"] == 2
    text = config.format()
    assert "x=1" in text
    restricted = config.format(variables=("x",))
    assert "m=" not in restricted


def test_configuration_repr(config):
    assert "nodes=3" in repr(config)


# ----------------------------------------------------------------------
# ProcessorView
# ----------------------------------------------------------------------
def test_view_reads_own_and_neighbor_variables():
    network = generators.path(3)
    config = Configuration({node: {"v": node * 10} for node in network.nodes()})
    view = ProcessorView(1, network, config)
    assert view.read("v") == 10
    assert view.read_neighbor(0, "v") == 0
    assert view.read_neighbor(2, "v") == 20
    assert view.neighbors == (0, 2)
    assert view.degree == 2
    assert view.port(2) == 1
    assert not view.is_root
    assert view.network is network
    assert view.node == 1


def test_view_rejects_non_neighbor_reads():
    network = generators.path(4)
    config = Configuration({node: {"v": 0} for node in network.nodes()})
    view = ProcessorView(0, network, config)
    with pytest.raises(ProtocolError):
        view.read_neighbor(3, "v")
    with pytest.raises(ProtocolError):
        view.try_read_neighbor(3, "v")


def test_view_try_read_neighbor_default():
    network = generators.path(3)
    config = Configuration({0: {"v": 1}, 1: {"v": 2}, 2: {}})
    view = ProcessorView(1, network, config)
    assert view.try_read_neighbor(2, "v", default=-1) == -1
    assert view.try_read_neighbor(0, "v", default=-1) == 1


def test_view_read_your_own_writes_and_read_pre():
    network = generators.path(3)
    config = Configuration({node: {"v": 5} for node in network.nodes()})
    view = ProcessorView(1, network, config)
    view.write("v", 9)
    assert view.read("v") == 9          # sees its own write in the same step
    assert view.read_pre("v") == 5      # pre-step value still accessible
    assert config.get(1, "v") == 5      # nothing applied yet
    assert view.pending_writes == {"v": 9}


def test_view_write_copies_mutable_values():
    network = generators.path(2)
    config = Configuration({0: {"m": {}}, 1: {"m": {}}})
    view = ProcessorView(0, network, config)
    value = {1: 1}
    view.write("m", value)
    value[1] = 99
    assert view.pending_writes["m"] == {1: 1}


def test_view_is_root_flag():
    network = generators.path(3)
    config = Configuration({node: {} for node in network.nodes()})
    assert ProcessorView(0, network, config).is_root
    assert not ProcessorView(2, network, config).is_root


# ----------------------------------------------------------------------
# View contract: the release view and the debug (tracking) view
# ----------------------------------------------------------------------
VIEWS = pytest.mark.parametrize("view_class", [ProcessorView, TrackingProcessorView])


@VIEWS
def test_view_contract_non_neighbor_reads_raise(view_class):
    network = generators.path(4)
    config = Configuration({node: {"v": node} for node in network.nodes()})
    view = view_class(1, network, config)
    for far in (3, 1, 99):  # a non-neighbor, the node itself, an unknown id
        with pytest.raises(ProtocolError, match="non-neighbor"):
            view.read_neighbor(far, "v")
        with pytest.raises(ProtocolError, match="non-neighbor"):
            view.try_read_neighbor(far, "v", default=-1)


@VIEWS
def test_view_contract_missing_variables(view_class):
    network = generators.path(3)
    config = Configuration({0: {"v": 0}, 1: {"v": 1}})  # processor 2 has no state
    view = view_class(1, network, config)
    reads = [
        lambda: view.read("w"),
        lambda: view.read_pre("w"),
        lambda: view.read_neighbor(0, "w"),
        lambda: view.read_neighbor(2, "v"),
    ]
    for read in reads:
        with pytest.raises(ProtocolError, match="no value for variable"):
            read()
    assert view.try_read_neighbor(0, "w", default=-1) == -1  # missing variable
    assert view.try_read_neighbor(2, "v", default=-1) == -1  # missing node
    assert view.try_read_neighbor(2, "v") is None
    assert view.try_read_neighbor(0, "v", default=-1) == 0


@VIEWS
def test_view_contract_written_values_are_detached(view_class):
    network = generators.path(2)
    config = Configuration({0: {"m": {}, "s": 0}, 1: {"m": {}}})
    view = view_class(0, network, config)
    table = {1: [1, 2]}
    view.write("m", table)
    table[1].append(3)
    table[2] = [0]
    assert view.pending_writes == {"m": {1: [1, 2]}}
    view.write("s", 5)
    view.pending_writes["s"] = 6  # the property hands out a copy
    assert view.read("s") == 5
    assert view.neighbor_set == frozenset({1})


def test_release_view_keeps_no_read_log():
    network = generators.path(3)
    config = Configuration({node: {"v": node} for node in network.nodes()})
    view = ProcessorView(1, network, config)
    view.read("v")
    view.read_neighbor(0, "v")
    assert not hasattr(view, "read_variables")


def test_tracking_view_logs_reads_served_from_pending_writes():
    network = generators.path(3)
    config = Configuration({node: {"v": node, "w": 0} for node in network.nodes()})
    view = TrackingProcessorView(1, network, config)
    view.write("v", 9)
    assert view.read("v") == 9
    assert view.read_variables == frozenset({(1, "v")})
    view.read_pre("w")
    view.try_read_neighbor(2, "w")
    view.read_neighbor(0, "v")
    assert view.read_variables == frozenset({(1, "v"), (1, "w"), (2, "w"), (0, "v")})
    assert view.read_nodes == frozenset({0, 1, 2})


def test_tracking_view_logs_reads_that_reach_around_the_api():
    network = generators.path(4)
    config = Configuration({node: {"v": node} for node in network.nodes()})
    view = TrackingProcessorView(0, network, config)
    assert view._configuration.get(3, "v") == 3  # bypasses the neighbor check
    assert view._configuration.has(2, "v")
    assert view.read_variables == frozenset({(3, "v"), (2, "v")})
    assert view.read_nodes == frozenset({2, 3})


# ----------------------------------------------------------------------
# Action
# ----------------------------------------------------------------------
def test_action_enabled_and_execute():
    network = generators.path(2)
    config = Configuration({0: {"v": 0}, 1: {"v": 0}})
    action = Action("bump", lambda view: view.read("v") < 3, lambda view: view.write("v", view.read("v") + 1))
    view = ProcessorView(0, network, config)
    assert action.guard(view)
    action.statement(view)
    assert view.pending_writes == {"v": 1}


def test_action_with_extra_statement_runs_both_and_sees_writes():
    network = generators.path(2)
    config = Configuration({0: {"v": 0, "copy": -1}, 1: {"v": 0}})
    base = Action("set", lambda view: True, lambda view: view.write("v", 7))
    hooked = base.with_extra_statement(lambda view: view.write("copy", view.read("v")), suffix="")
    view = ProcessorView(0, network, config)
    hooked.statement(view)
    assert view.pending_writes == {"v": 7, "copy": 7}
    assert hooked.name == "set"


def test_action_with_extra_statement_suffix_changes_name():
    base = Action("set", lambda view: True, lambda view: None)
    assert base.with_extra_statement(lambda view: None).name == "set+hook"


def test_replace_node_drops_stale_variables():
    config = Configuration({0: {"a": 1, "b": 2}})
    config.replace_node(0, {"a": 7})
    assert config.variables_of(0) == ("a",)
    assert config.get(0, "a") == 7
    assert not config.has(0, "b")
    config.replace_node(1, {"c": 3})  # creating a node works too
    assert config.get(1, "c") == 3
