"""Read-aware invalidation: the journal's changed variables, the stale-bit
enabled set, the rules' own-only re-check, and the RL008 runtime check.

The scheduler marks a guard stale only when a journaled change touches a
variable its action declares reading (``Action.reads``), and re-walks a
processor only up to its first enabled action.  These tests hold that
enabled set to a fresh full scan after every kind of mutation, and hold
every shipped declaration to the reads its guard really makes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.engines import build_protocol
from repro.core.specification import VAR_EDGE_LABELS, VAR_NAME
from repro.errors import GuardLocalityError
from repro.graphs import generators
from repro.obs import Instrumentation, summary_counter
from repro.runtime.actions import Action, Reads
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import make_daemon
from repro.runtime.faults import corrupt_configuration
from repro.runtime import reference
from repro.runtime.scheduler import Scheduler
from repro.scenarios.events import LinkChange
from repro.substrates.spanning_tree import BFSSpanningTree, DFSSpanningTree
from repro.substrates.token_circulation import DepthFirstTokenCirculation
from tests.lint.fixtures.reads_underdeclared import ReadsUnderdeclared

STACKS = ("dftno", "stno-bfs", "stno-dfs")


# ----------------------------------------------------------------------
# Journal: node -> changed variables
# ----------------------------------------------------------------------
def test_journal_unions_variables_of_one_node():
    config = Configuration({0: {"x": 1, "y": 1}, 1: {"x": 1}})
    config.set(0, "x", 2)
    config.apply_step(((0, {"y": 2, "x": 3}),))
    config.set(1, "x", 2)
    assert config.drain_dirty() == {0: ("x", "y"), 1: ("x",)}
    assert config.drain_dirty() == {}


def test_journal_whole_state_change_wins():
    config = Configuration({0: {"x": 1}, 1: {"x": 1}})
    config.set(0, "x", 2)
    config.replace_node(0, {"x": 5})
    config.replace_node(1, {"x": 3})
    config.set(1, "x", 7)  # after None: stays None
    assert config.drain_dirty() == {0: None, 1: None}


def test_foreign_journal_ids_are_skipped():
    network = generators.random_connected(6, seed=1)
    protocol = build_protocol("dftno")
    scheduler = Scheduler(network, protocol, seed=2)
    scheduler.legitimate()
    before = scheduler.enabled_actions()
    scheduler.configuration.set(999, "x", 1)
    scheduler.configuration.replace_node(-1, {"x": 1})
    assert scheduler.enabled_actions() == before
    assert scheduler.legitimate() == protocol.legitimate(network, scheduler.configuration)


# ----------------------------------------------------------------------
# Stale-bit enabled set vs a fresh full scan
# ----------------------------------------------------------------------
def _fresh_scan(scheduler: Scheduler) -> dict[int, Action]:
    return reference.enabled(
        scheduler.network, scheduler.protocol, scheduler.configuration, scheduler.frozen_nodes
    )


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(("step", "write", "replace", "freeze", "unfreeze", "link")),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    stack=st.sampled_from(STACKS),
    daemon=st.sampled_from(("central", "distributed", "synchronous")),
    operations=OPERATIONS,
)
def test_stale_bit_enabled_set_equals_a_full_scan(stack, daemon, operations):
    network = generators.random_connected(8, seed=3)
    protocol = build_protocol(stack)
    scheduler = Scheduler(network, protocol, daemon=make_daemon(daemon), seed=4)
    assert scheduler.enabled_actions() == _fresh_scan(scheduler)
    for kind, node, seed in operations:
        rng = random.Random(seed)
        if kind == "step":
            for _ in range(1 + seed % 5):
                scheduler.step()
        elif kind == "write":
            # One variable, a fresh value from its domain: a partial change.
            state = protocol.random_state(scheduler.network, node, rng)
            variable = rng.choice(sorted(state))
            scheduler.configuration.set(node, variable, state[variable])
        elif kind == "replace":
            scheduler.replace_node(node, protocol.random_state(scheduler.network, node, rng))
        elif kind == "freeze":
            scheduler.freeze((node,))
        elif kind == "unfreeze":
            scheduler.unfreeze((node,))
        else:
            LinkChange(mode="add" if seed % 2 else "remove").apply(scheduler, rng)
        assert scheduler.enabled_actions() == _fresh_scan(scheduler), kind


def _counters(scheduler: Scheduler) -> dict[str, float]:
    return scheduler.instrumentation.summary()["counters"]


def _settled_dftno() -> Scheduler:
    network = generators.random_connected(10, extra_edge_probability=0.3, seed=5)
    scheduler = Scheduler(
        network, build_protocol("dftno"), seed=6, instrumentation=Instrumentation()
    )
    scheduler.run_until_legitimate(max_steps=5_000)
    assert scheduler.legitimate()
    scheduler.enabled_actions()
    return scheduler


def test_an_own_only_change_rewalks_only_its_node():
    scheduler = _settled_dftno()
    node = next(
        node for node in scheduler.network.nodes() if node not in scheduler.enabled_actions()
    )
    before = _counters(scheduler)["guards_evaluated"]
    # Edge labels are read only by the node's own edge-relabeling guard.
    scheduler.configuration.set(node, VAR_EDGE_LABELS, {})
    enabled = scheduler.enabled_actions()
    assert _counters(scheduler)["guards_evaluated"] == before + 1
    assert enabled[node].name == "NO-EdgeLabel"


def test_guard_calls_are_counted_alongside_processors():
    scheduler = _settled_dftno()
    counters = _counters(scheduler)
    assert counters["guard_calls"] >= counters["guards_evaluated"] > 0


# ----------------------------------------------------------------------
# A node's rules are re-walked alone after an own-only change
# ----------------------------------------------------------------------
def test_tracker_rechecks_only_the_node_after_an_own_only_change():
    scheduler = _settled_dftno()
    network = scheduler.network
    node = 3
    checked = summary_counter(scheduler.instrumentation.summary(), "legitimacy_nodes_checked")
    scheduler.configuration.set(node, VAR_EDGE_LABELS, {})
    assert not scheduler.legitimate()
    after = summary_counter(scheduler.instrumentation.summary(), "legitimacy_nodes_checked")
    assert after == checked + 1
    # A name is read by the neighbors' rules: the closed neighborhood.  The
    # query re-walks the known violator first, which still violates; the
    # neighbors wait for a walk of the whole frontier.
    renamed = (scheduler.configuration.get(node, VAR_NAME) + 1) % network.n
    scheduler.configuration.set(node, VAR_NAME, renamed)
    assert not scheduler.legitimate()
    assert summary_counter(scheduler.instrumentation.summary(), "legitimacy_nodes_checked") == (
        after + 1
    )
    assert scheduler.legitimacy_distance() > 0
    final = summary_counter(scheduler.instrumentation.summary(), "legitimacy_nodes_checked")
    assert final == after + network.degree(node) + 1


# ----------------------------------------------------------------------
# Runtime RL008: declared reads hold on the shipped stacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "protocol",
    [
        *(build_protocol(stack) for stack in STACKS),
        DepthFirstTokenCirculation(),
        BFSSpanningTree(),
        DFSSpanningTree(),
    ],
    ids=lambda protocol: protocol.name,
)
def test_shipped_declarations_hold_under_the_runtime_check(protocol):
    # Guard parts run on tracking views at every step, rule parts at every
    # legitimacy query.
    network = generators.random_connected(9, extra_edge_probability=0.3, seed=7)
    rng = random.Random(8)
    layers = (protocol, *protocol.layers())
    for daemon in ("distributed", "synchronous"):
        scheduler = Scheduler(
            network, protocol, daemon=make_daemon(daemon), seed=9, check_guard_locality=True
        )
        seen = set()

        def steps() -> None:
            for _ in range(400):
                scheduler.step()
                for layer in layers:
                    seen.add(scheduler.legitimate(layer))

        steps()
        scheduler.set_configuration(
            corrupt_configuration(
                scheduler.configuration, protocol, network, node_fraction=0.4, rng=rng
            )
        )
        steps()
        assert seen == {True, False}


def test_underdeclared_guard_raises_rl008():
    network = generators.ring(6)
    protocol = ReadsUnderdeclared()
    scheduler = Scheduler(network, protocol, seed=1, check_guard_locality=True)
    with pytest.raises(GuardLocalityError) as excinfo:
        scheduler.enabled_actions()
    error = excinfo.value
    assert error.rule == "RL008"
    assert error.action == "RU-Copy"
    assert error.layer == "reads-underdeclared"
    assert error.reads
    assert all(name == "ru_x" and source != error.node for source, name in error.reads)
    assert "RL008" in str(error) and "'ru_x'" in str(error)


def test_underdeclared_rule_part_raises_rl008_on_a_legitimacy_query():
    network = generators.ring(6)
    protocol = ReadsUnderdeclared()
    scheduler = Scheduler(network, protocol, seed=1, check_guard_locality=True)
    with pytest.raises(GuardLocalityError) as excinfo:
        scheduler.legitimate()
    error = excinfo.value
    assert error.rule == "RL008"
    assert error.action == "RU-Below"
    assert error.layer == "reads-underdeclared"
    assert error.reads
    assert all(name == "ru_x" and source != error.node for source, name in error.reads)
    assert "violation rule 'RU-Below'" in str(error)
    # Without the check the rule is walked like any other.
    plain = Scheduler(network, protocol, seed=1, check_guard_locality=False)
    assert plain.legitimate() == protocol.legitimate(network, plain.configuration)


def test_undeclared_actions_read_everything():
    assert Action("A", bool, bool).reads is None
    reads = Reads(own=frozenset({"a"}), neighbor=frozenset({"b"}))
    hooked = Action("A", bool, bool, reads=reads).with_extra_statement(bool)
    assert hooked.reads is reads
