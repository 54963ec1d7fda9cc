"""Pointer-directed reads: the scheduler against the reference interpreter, in lockstep.

The token layer declares most of its neighbor reads through its pointers
(``Reads(via=...)`` at the parent or the delegated child, ``Reads(named_by=...)``
at a delegator), so the incremental scheduler stales those parts only at the
processors its pointer shadow picks out.  These tests run it beside the
reference interpreter (:class:`~repro.runtime.reference.ReferenceScheduler`,
the ``scheduler-fullscan`` engine) from one configuration and one random
stream and,
after every step and every mutation, compare the enabled set, ``legitimate()``
for the stack and for each layer, and ``legitimacy_distance()``.  The
mutations move pointers the way the shadow must follow: a partial write that
moves ``tc_child`` from one neighbor to another (the old target's forward
guard must be re-checked), pointers set to ``None``, to no node or to a node
that is no neighbor, whole-state replacements, a replaced configuration and a
replaced network.  The runtime RL008 check and the declaration type's own
algebra are held here too.
"""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from repro.api.engines import build_protocol
from repro.errors import GuardLocalityError
from repro.graphs import generators
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads, all_of
from repro.runtime.daemon import make_daemon
from repro.runtime.faults import corrupt_configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import VariableSpec, int_variable, pointer_variable
from repro.substrates import token_circulation as tc
from tests.lint.fixtures.reads_pointer_undeclared import ReadsPointerUndeclared

STACKS = ("dftno", "stno-dfs")
POINTERS = (tc.VAR_CHILD, tc.VAR_PARENT)


class Lockstep:
    """A scheduler and a reference twin fed the same mutations."""

    def __init__(self, stack: str, network: RootedNetwork, seed: int, daemon: str) -> None:
        self.protocol = build_protocol(stack)
        incremental = Scheduler(network, self.protocol, daemon=make_daemon(daemon), seed=seed)
        reference = ReferenceScheduler(
            network,
            self.protocol,
            daemon=make_daemon(daemon),
            configuration=incremental.configuration,
        )
        reference.rng.setstate(incremental.rng.getstate())
        self.cores = (incremental, reference)

    @property
    def incremental(self) -> Scheduler:
        return self.cores[0]

    def agree(self) -> None:
        incremental, reference = self.cores
        assert incremental.configuration == reference.configuration
        for layer in (None, *self.protocol.layers()):
            assert incremental.legitimate(layer) == reference.legitimate(layer), layer
        assert incremental.legitimacy_distance() == reference.legitimacy_distance()
        assert incremental.enabled_actions() == reference.enabled_actions()

    def step(self) -> bool:
        records = [core.step() for core in self.cores]
        assert (records[0] is None) == (records[1] is None)
        if records[0] is not None:
            assert records[0].executed == records[1].executed
        self.agree()
        return records[0] is not None

    def set(self, node: int, variable: str, value: object) -> None:
        for core in self.cores:
            core.configuration.set(node, variable, value)
        self.agree()

    def replace_node(self, node: int, state: dict) -> None:
        for core in self.cores:
            core.replace_node(node, state)
        self.agree()

    def set_configuration(self, configuration) -> None:
        for core in self.cores:
            core.set_configuration(configuration)
        self.agree()

    def set_network(self, network: RootedNetwork) -> None:
        for core in self.cores:
            core.set_network(network)
        self.agree()


def _pointer_value(network: RootedNetwork, node: int, rng: random.Random) -> object:
    """``None``, no node at all, a node that is no neighbor, or a neighbor."""
    strangers = [q for q in network.nodes() if q != node and q not in network.neighbor_set(node)]
    choices: list[object] = [None, network.n + 7, -1, *network.neighbors(node)]
    if strangers:
        choices.append(rng.choice(strangers))
    return rng.choice(choices)


def _settled(stack: str, daemon: str = "distributed") -> Lockstep:
    network = generators.random_connected(10, extra_edge_probability=0.4, seed=5)
    lockstep = Lockstep(stack, network, seed=6, daemon=daemon)
    lockstep.agree()
    for _ in range(2_000):
        if lockstep.incremental.legitimate():
            break
        lockstep.step()
    assert lockstep.incremental.legitimate()
    return lockstep


@pytest.mark.parametrize("daemon", ("central", "distributed", "synchronous"))
@pytest.mark.parametrize("stack", STACKS)
def test_lockstep_through_pointer_writes(stack, daemon):
    network = generators.random_connected(10, extra_edge_probability=0.4, seed=3)
    lockstep = Lockstep(stack, network, seed=4, daemon=daemon)
    rng = random.Random(11)
    lockstep.agree()
    for step in range(400):
        if step % 7 == 3:
            # A partial write of one pointer: the journal names the variable.
            node = rng.randrange(network.n)
            pointer = rng.choice(POINTERS)
            lockstep.set(node, pointer, _pointer_value(network, node, rng))
        if step % 31 == 17:
            node = rng.randrange(network.n)
            lockstep.replace_node(node, lockstep.protocol.random_state(network, node, rng))
        lockstep.step()


@pytest.mark.parametrize("stack", STACKS)
def test_moving_a_child_pointer_restales_the_old_target(stack):
    """A delegator's ``tc_child`` moves from ``p`` to ``w`` by a partial write.

    ``p``'s forward guard read the delegator's state only because its child
    pointer named ``p``: only staling the pointer's old target re-checks it.
    """
    lockstep = _settled(stack)
    network = lockstep.incremental.network
    moved = 0
    for _ in range(400):
        enabled = lockstep.incremental.enabled_actions()
        configuration = lockstep.incremental.configuration
        forwarded = [
            (delegator, child)
            for delegator in network.nodes()
            if configuration.get(delegator, tc.VAR_STATE) == tc.ACTIVE
            and (child := configuration.get(delegator, tc.VAR_CHILD)) in enabled
            and enabled[child].name.startswith(tc.DepthFirstTokenCirculation.ACTION_FORWARD)
            and network.degree(delegator) > 1
        ]
        if forwarded:
            delegator, child = forwarded[0]
            other = next(q for q in network.neighbors(delegator) if q != child)
            lockstep.set(delegator, tc.VAR_CHILD, other)
            after = lockstep.incremental.enabled_actions().get(child)
            assert after is None or not after.name.startswith(
                tc.DepthFirstTokenCirculation.ACTION_FORWARD
            )
            moved += 1
            # And back by a whole-state replacement.
            state = dict(lockstep.incremental.configuration.peek_state(delegator))
            state[tc.VAR_CHILD] = child
            lockstep.replace_node(delegator, state)
            if moved == 3:
                break
        lockstep.step()
    assert moved == 3


@pytest.mark.parametrize("stack", STACKS)
def test_pointers_naming_no_neighbor(stack):
    lockstep = _settled(stack)
    network = lockstep.incremental.network
    rng = random.Random(2)
    for node in network.nodes():
        strangers = [q for q in network.nodes() if q != node and not network.has_edge(node, q)]
        for value in (None, network.n + 3, *strangers[:1], *network.neighbors(node)[:1]):
            lockstep.set(node, rng.choice(POINTERS), value)
        for _ in range(3):
            lockstep.step()


@pytest.mark.parametrize("stack", STACKS)
def test_replaced_configuration_and_networks(stack):
    lockstep = _settled(stack)
    network = lockstep.incremental.network
    rng = random.Random(9)
    corrupted = corrupt_configuration(
        lockstep.incremental.configuration, lockstep.protocol, network, node_fraction=0.4, rng=rng
    )
    lockstep.set_configuration(corrupted)
    for _ in range(40):
        lockstep.step()
    # Fresh arbitrary configurations: every pointer may move at once, and
    # none of it through the journal.
    for _ in range(8):
        lockstep.set_configuration(lockstep.protocol.random_configuration(network, rng=rng))
        for _ in range(15):
            lockstep.step()
    # Rotate every port order: each pointer still names the same neighbor,
    # but every scan of the neighbors now runs in another order.
    shifted = RootedNetwork(
        network.n,
        network.edges(),
        root=network.root,
        name=f"{network.name}-shifted",
        port_orders={
            node: network.neighbors(node)[1:] + network.neighbors(node)[:1]
            for node in network.nodes()
        },
    )
    lockstep.set_network(shifted)
    for _ in range(60):
        lockstep.step()
    # Drop a link a child pointer follows: the pointer then names a node
    # that is no neighbor.
    u, v = next(
        (u, v)
        for u, v in sorted(shifted.edges())
        if shifted.degree(u) > 1 and shifted.degree(v) > 1 and _connected_without(shifted, u, v)
    )
    lockstep.set(u, tc.VAR_CHILD, v)
    lockstep.set_network(
        RootedNetwork(
            shifted.n,
            [edge for edge in shifted.edges() if set(edge) != {u, v}],
            root=shifted.root,
            name=f"{shifted.name}-({u},{v})",
            port_orders={
                node: tuple(q for q in shifted.neighbors(node) if {node, q} != {u, v})
                for node in shifted.nodes()
            },
        )
    )
    assert lockstep.incremental.configuration.get(u, tc.VAR_CHILD) == v
    for _ in range(200):
        lockstep.step()


def _connected_without(network: RootedNetwork, u: int, v: int) -> bool:
    seen, frontier = {u}, [u]
    while frontier:
        node = frontier.pop()
        for q in network.neighbors(node):
            if {node, q} != {u, v} and q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen) == network.n


# ----------------------------------------------------------------------
# What a change stales
# ----------------------------------------------------------------------
def test_a_level_change_stales_only_the_node_and_its_stacked_children():
    """``tc_lvl`` is read at neighbors only via ``tc_par`` and named_by ``tc_child``."""
    lockstep = _settled("dftno")
    scheduler = lockstep.incremental
    network, configuration = scheduler.network, scheduler.configuration
    node = next(
        node
        for node in network.nodes()
        if configuration.get(node, tc.VAR_CHILD) is None
        and any(configuration.get(q, tc.VAR_PARENT) != node for q in network.neighbors(node))
    )
    scheduler.legitimate()
    scheduler.enabled_actions()
    before = list(scheduler._stale)
    level = configuration.get(node, tc.VAR_LEVEL)
    configuration.set(node, tc.VAR_LEVEL, (level + 1) % network.n)
    scheduler.legitimate()
    touched = {other for other in network.nodes() if scheduler._stale[other] & ~before[other]}
    holders = {q for q in network.neighbors(node) if configuration.get(q, tc.VAR_PARENT) == node}
    assert touched <= {node} | holders
    lockstep.cores[1].configuration.set(node, tc.VAR_LEVEL, (level + 1) % network.n)
    lockstep.agree()


def test_equal_tables_share_their_stale_masks_and_no_pointer_costs_nothing():
    network = generators.random_connected(12, seed=2)
    first, second = (Scheduler(network, build_protocol("dftno"), seed=seed) for seed in (1, 2))
    assert first._mask_memo is second._mask_memo
    assert first._pointers == (tc.VAR_CHILD, tc.VAR_PARENT)
    bfs = Scheduler(network, build_protocol("stno-bfs"), seed=1)
    assert bfs._pointers == ()
    bfs.run_until_legitimate(max_steps=500)
    assert bfs._mask_memo
    assert all(entry[-1] is None for entry in bfs._mask_memo.values())


# ----------------------------------------------------------------------
# Runtime RL008 for pointer-directed reads
# ----------------------------------------------------------------------
VAR_POINTER = "pr_ptr"
VAR_X = "pr_x"


class _PointerReader(Protocol):
    """A guard part reading ``pr_x`` at every neighbor of an inner node, declared ``reads``."""

    name = "pointer-reader"

    def __init__(self, reads: Reads) -> None:
        def any_neighbor_above(view: ProcessorView) -> bool:
            if view.degree < 2:
                return False
            own = view.read(VAR_X)
            view.read(VAR_POINTER)
            return any(view.read_neighbor(q, VAR_X) > own for q in view.neighbors)

        def noop(view: ProcessorView) -> None:
            pass

        self._program = (
            Action("PR-Above", all_of((any_neighbor_above, reads)), noop, layer=self.name),
        )

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return (
            pointer_variable(VAR_POINTER, allow_none=True, description="a neighbor"),
            int_variable(VAR_X, 0, 3, initial=0, description="a value"),
        )

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._program


def _check(reads: Reads, pointers: dict[int, int | None]) -> None:
    network = generators.path(3)
    protocol = _PointerReader(reads)
    configuration = protocol.initial_configuration(network)
    for node, target in pointers.items():
        configuration.set(node, VAR_POINTER, target)
    Scheduler(
        network, protocol, configuration=configuration, check_guard_locality=True
    ).enabled_actions()


def test_a_via_read_off_the_pointer_raises_rl008_naming_the_pointer():
    via = Reads(own=frozenset({VAR_X, VAR_POINTER}), via={VAR_POINTER: frozenset({VAR_X})})
    # The middle node reads both ends; its pointer names only one.
    with pytest.raises(GuardLocalityError) as caught:
        _check(via, {0: 1, 1: 0, 2: 1})
    assert caught.value.rule == "RL008"
    assert caught.value.node == 1
    assert caught.value.reads == ((2, VAR_X),)
    assert f"via {{{VAR_POINTER!r}: [{VAR_X!r}]}}" in str(caught.value)


def test_a_named_by_read_off_the_pointer_raises_rl008_naming_the_pointer():
    named_by = Reads(
        own=frozenset({VAR_X, VAR_POINTER}),
        neighbor=frozenset({VAR_POINTER}),
        named_by={VAR_POINTER: frozenset({VAR_X})},
    )
    # Both ends name the middle node: every read is covered.
    _check(named_by, {0: 1, 1: None, 2: 1})
    with pytest.raises(GuardLocalityError) as caught:
        _check(named_by, {0: 1, 1: None, 2: None})
    assert caught.value.rule == "RL008"
    assert caught.value.node == 1
    assert caught.value.reads == ((2, VAR_X),)
    assert f"named_by {{{VAR_POINTER!r}: [{VAR_X!r}]}}" in str(caught.value)


def test_the_pointer_undeclared_fixture_raises_rl008_at_run_time():
    network = generators.ring(4)
    protocol = ReadsPointerUndeclared()
    scheduler = Scheduler(
        network,
        protocol,
        configuration=protocol.initial_configuration(network),
        check_guard_locality=True,
    )
    with pytest.raises(GuardLocalityError) as caught:
        scheduler.enabled_actions()
    assert caught.value.rule == "RL008"
    assert caught.value.reads == ((0, "rp_ptr"),)


# ----------------------------------------------------------------------
# The declaration type
# ----------------------------------------------------------------------
def test_pointer_reads_normalise_and_compare_by_value():
    first = Reads(own=frozenset({"p"}), via={"p": {"x", "y"}})
    second = Reads(own=frozenset({"p"}), via=(("p", frozenset({"y", "x"})),))
    assert first == second and hash(first) == hash(second)
    assert first.via == (("p", frozenset({"x", "y"})),)
    assert first.neighbor_reads == frozenset({"x", "y"})
    named = Reads(neighbor=frozenset({"c"}), named_by={"c": {"z"}})
    assert named.neighbor_reads == frozenset({"c", "z"})
