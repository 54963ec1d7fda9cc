"""Guard witnesses: a statement adopts the value its guard's witness part computed.

A :class:`~repro.runtime.actions.Witness` part holds where its function
returns something other than ``None``; the scheduler keeps the value of the
part's last call in the node's witness slot and the statement reads it with
``ProcessorView.witness`` instead of recomputing it.  The reference
interpreter keeps no slots, so its statements recompute: the lockstep runs
below hold the kept values to fresh recomputation on every shipped stack
that uses witnesses (BFS relax, STNO weight and name, TC forward and
delegate).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api.engines import build_protocol
from repro.errors import GuardLocalityError
from repro.graphs import generators
from repro.runtime.actions import Action, Not, Reads, Witness, all_of
from repro.runtime.daemon import make_daemon
from repro.runtime.processor import GuardView, ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler, compile_kernels, compile_program
from repro.runtime.variables import int_variable
from repro.substrates import token_circulation as tc
from repro.substrates.spanning_tree import BFSSpanningTree
from repro.substrates.token_circulation import DepthFirstTokenCirculation


# ----------------------------------------------------------------------
# Lockstep against the reference interpreter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("check", [False, True], ids=["release", "check"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("daemon", ["distributed", "central", "synchronous"])
@pytest.mark.parametrize("stack", ["dftno", "stno-bfs", "stno-dfs"])
def test_kept_witnesses_equal_fresh_recomputation_in_lockstep(stack, daemon, seed, check):
    network = generators.random_connected(10, seed=seed)
    scheduler, reference = (
        core(
            network, build_protocol(stack), daemon=make_daemon(daemon), seed=seed,
            check_guard_locality=check,
        )
        for core in (Scheduler, ReferenceScheduler)
    )
    assert scheduler.configuration == reference.configuration
    for _ in range(400):
        record = scheduler.step()
        assert record == reference.step(), f"step {scheduler.steps_executed}"
        if record is None:
            break
    assert scheduler.configuration == reference.configuration
    assert scheduler.metrics == reference.metrics


# ----------------------------------------------------------------------
# A toy witness: the first marked neighbor, which may be node 0
# ----------------------------------------------------------------------
class Follow(Protocol):
    """``Copy`` copies ``x`` from the first neighbor (port order) with ``x == 1``.

    Its guard is the witness part ``first_marked``, which returns that
    neighbor -- node 0 on a star centred at 0 -- while the own ``x`` is 0.
    Every call of the witness is counted per node.  ``Idle`` holds where the
    same witness does not (a ``Not(Witness(...))`` part sharing its bit).
    """

    name = "follow"

    def __init__(self, impure: bool = False) -> None:
        self.calls: Counter[int] = Counter()
        calls = self.calls

        def first_marked(view) -> int | None:
            calls[view.node] += 1
            if view.read("x") == 1:
                return None
            for q in view.neighbors:
                if view.read_neighbor(q, "x") == 1:
                    # An impure witness answers with a different neighbor on
                    # every call after the first: what check mode must catch.
                    return q + calls[view.node] - 1 if impure else q
            return None

        def copy(view) -> None:
            source = view.witness(first_marked)
            view.write("x", view.read_neighbor(source, "x"))
            view.write("y", source)

        reads = Reads(own=frozenset({"x"}), neighbor=frozenset({"x"}))
        self.first_marked = first_marked
        self._program = (
            Action("Copy", all_of((Witness(first_marked), reads)), copy, layer=self.name),
            Action("Idle", all_of((Not(Witness(first_marked)), reads)), lambda view: None,
                   layer=self.name),
        )

    def variables(self, network, node):
        return [int_variable("x", 0, 1, initial=0), int_variable("y", 0, network.n, initial=0)]

    def actions(self, network, node):
        return self._program[:1]


def _star_marked_at_root(protocol: Protocol):
    """A star centred at the root 0, only the root marked, every ``y`` at 3."""
    network = generators.star(4)
    configuration = protocol.initial_configuration(network)
    configuration.set(0, "x", 1)
    for node in network.nodes():
        configuration.set(node, "y", 3)
    return network, configuration


def test_a_witness_and_its_negation_share_one_bit():
    protocol = Follow()
    network = generators.star(4)
    parts, walks, _ = compile_program(protocol._program)
    assert len(parts) == 1
    assert [[(bit, negated, witness) for _, bit, negated, witness in steps] for steps in walks] == [
        [(1, 0, protocol.first_marked)],
        [(1, 1, protocol.first_marked)],
    ]
    guards, _ = compile_kernels(walks, ())
    view = GuardView(1, network, _star_marked_at_root(protocol)[1])
    assert guards(-1, 0, view) == (0, 1, -2, 1, 1)
    assert view._witnesses == {protocol.first_marked: 0}


def test_a_plain_and_a_witness_use_of_one_function_is_refused():
    protocol = Follow()
    reads = Reads(own=frozenset({"x"}), neighbor=frozenset({"x"}))
    plain = Action("Plain", all_of((protocol.first_marked, reads)), lambda view: None)
    with pytest.raises(ValueError, match="Witness part and a plain part"):
        compile_program((protocol._program[0], plain))


def test_the_statement_adopts_the_root_as_its_kept_witness():
    protocol = Follow()
    network, configuration = _star_marked_at_root(protocol)
    scheduler = Scheduler(network, protocol, configuration=configuration,
                          daemon=make_daemon("synchronous"), check_guard_locality=False)
    assert sorted(scheduler.enabled_nodes()) == [1, 2, 3]
    walked = Counter(protocol.calls)
    scheduler.step()
    # Each leaf copied from node 0 and recorded it: the kept 0 was used, not
    # mistaken for "no witness", and no statement called the part again.
    assert protocol.calls == walked
    for node in (1, 2, 3):
        assert scheduler.configuration.state_of(node) == {"x": 1, "y": 0}


def test_without_a_kept_value_the_statement_recomputes():
    protocol = Follow()
    network, configuration = _star_marked_at_root(protocol)
    view = ProcessorView(2, network, configuration)
    writes = view.begin_move()
    protocol._program[0].statement(view)
    assert writes == {"x": 1, "y": 0}
    assert protocol.calls == Counter({2: 1})


def test_check_mode_recomputes_a_kept_witness_and_accepts_a_pure_one():
    protocol = Follow()
    network, configuration = _star_marked_at_root(protocol)
    scheduler = Scheduler(network, protocol, configuration=configuration,
                          daemon=make_daemon("synchronous"), check_guard_locality=True)
    scheduler.step()
    assert all(scheduler.configuration.get(node, "x") == 1 for node in network.nodes())


def test_check_mode_raises_on_a_witness_that_changed_behind_its_bit():
    protocol = Follow(impure=True)
    network, configuration = _star_marked_at_root(protocol)
    scheduler = Scheduler(network, protocol, configuration=configuration,
                          daemon=make_daemon("synchronous"), check_guard_locality=True)
    with pytest.raises(GuardLocalityError, match="stale witness") as excinfo:
        scheduler.step()
    assert excinfo.value.rule == "RL008"
    assert excinfo.value.node == 1


# ----------------------------------------------------------------------
# The shipped witnesses
# ----------------------------------------------------------------------
def test_the_token_is_forwarded_from_the_root_node_zero():
    # Path 0 - 1 - 2: the root (0) holds the token and delegates to 1,
    # which has not joined the root's wave yet.
    network = generators.path(3)
    protocol = DepthFirstTokenCirculation()
    configuration = protocol.initial_configuration(network)
    for name, value in ((tc.VAR_STATE, tc.ACTIVE), (tc.VAR_WAVE, 1), (tc.VAR_CHILD, 1)):
        configuration.set(0, name, value)
    scheduler = Scheduler(network, protocol, configuration=configuration,
                          daemon=make_daemon("central"))
    assert scheduler.enabled_actions()[1].name == protocol.ACTION_FORWARD
    assert scheduler._writers[1].witness(protocol._forwarding_parent) == 0
    record = scheduler.step()
    assert record.executed == ((1, protocol.ACTION_FORWARD),)
    assert scheduler.configuration.get(1, tc.VAR_PARENT) == 0
    assert scheduler.configuration.get(1, tc.VAR_LEVEL) == 1


def test_a_bfs_relax_move_does_not_rescan_the_neighbors(monkeypatch):
    calls: Counter[int] = Counter()
    desired = BFSSpanningTree._desired

    def counted(view):
        calls[view.node] += 1
        return desired(view)

    monkeypatch.setattr(BFSSpanningTree, "_desired", staticmethod(counted))
    network = generators.path(5)
    configuration = BFSSpanningTree().initial_configuration(network)
    scheduler = Scheduler(
        network, BFSSpanningTree(), configuration=configuration, check_guard_locality=False
    )
    enabled = scheduler.enabled_actions()
    assert sorted(enabled) == [1, 2, 3, 4]  # every distance starts at 0
    walked = sum(calls.values())
    for node, action in enabled.items():
        view = scheduler._writers[node]
        writes = view.begin_move()
        action.statement(view)
        assert writes == {"bt_dist": 1, "bt_par": node - 1}
    assert sum(calls.values()) == walked
