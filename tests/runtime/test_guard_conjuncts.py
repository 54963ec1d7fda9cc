"""Conjunct-level guard caching: ``all_of`` guards, part bits and guard views.

The incremental scheduler caches one truth value per guard part and re-calls
a part only when a change to a variable that part declares reading may have
flipped it; a processor is re-walked only when a bit its last walk consulted
went stale.  These tests count part calls on a small gated protocol, hold the
enabled set to a fresh scan, check each part against its own declaration,
and check that guards cannot write.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.api import NetworkSpec, RunSpec, run
from repro.api.engines import build_protocol
from repro.errors import GuardLocalityError, ProtocolError
from repro.graphs import generators
from repro.obs import Instrumentation
from repro.runtime.actions import Action, Reads, all_of
from repro.runtime.configuration import Configuration
from repro.runtime.processor import GuardView, TrackingGuardView
from repro.runtime.protocol import Protocol
from repro.runtime import reference
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler, compile_kernels, compile_program
from repro.runtime.variables import int_variable

GATE_READS = Reads(own=frozenset({"g"}))
SCAN_READS = Reads(neighbor=frozenset({"x"}))


class Gated(Protocol):
    """``Go`` is enabled at an open processor (``g == 1``) next to a marked one (``x == 1``).

    The gate reads only the processor's own ``g``, the scan only its
    neighbors' ``x``; every part call is counted per ``(part, node)``.
    """

    name = "gated"

    def __init__(self, gate_reads: Reads = GATE_READS, scan_reads: Reads = SCAN_READS) -> None:
        self.calls: Counter[tuple[str, int]] = Counter()
        self._program = (
            Action(
                "Go",
                all_of((self._open, gate_reads), (self._marked_neighbor, scan_reads)),
                self._close,
                layer=self.name,
            ),
        )

    def variables(self, network, node):
        return [int_variable("g", 0, 1, initial=0), int_variable("x", 0, 1, initial=0)]

    def actions(self, network, node):
        return self._program

    def _open(self, view) -> bool:
        self.calls["gate", view.node] += 1
        return view.read("g") == 1

    def _marked_neighbor(self, view) -> bool:
        self.calls["scan", view.node] += 1
        return any(view.read_neighbor(q, "x") == 1 for q in view.neighbors)

    @staticmethod
    def _close(view) -> None:
        view.write("g", 0)


def _fresh_scan(scheduler: Scheduler) -> dict[int, Action]:
    return reference.enabled(scheduler.network, scheduler.protocol, scheduler.configuration)


def _gated_ring() -> tuple[Gated, Scheduler]:
    """Ring 0-1-2-3-0, every gate closed, ``x`` marked at processor 0."""
    network = generators.ring(4)
    protocol = Gated()
    configuration = protocol.initial_configuration(network)
    configuration.set(0, "x", 1)
    scheduler = Scheduler(
        network, protocol, configuration=configuration, instrumentation=Instrumentation()
    )
    assert scheduler.enabled_actions() == {}
    assert not any(part == "scan" for part, _ in protocol.calls)
    protocol.calls.clear()
    return protocol, scheduler


def _counters(scheduler: Scheduler) -> dict[str, float]:
    return scheduler.instrumentation.summary()["counters"]


def test_a_part_behind_a_false_gate_is_not_called_on_a_neighbor_change():
    protocol, scheduler = _gated_ring()
    walks = _counters(scheduler)["guards_evaluated"]
    # ``x`` at 1 is read only by the scans of 0 and 2, which sit behind
    # their closed gates: no walk consulted those bits, so no processor is
    # re-walked and nothing is called.
    scheduler.configuration.set(1, "x", 1)
    assert scheduler.enabled_actions() == {}
    assert protocol.calls == Counter()
    assert _counters(scheduler)["guards_evaluated"] == walks


def test_flipping_the_gate_calls_the_second_part_once():
    protocol, scheduler = _gated_ring()
    scheduler.configuration.set(1, "x", 1)
    scheduler.enabled_actions()
    # Open the gates of 0 (its scan went stale with the change at 1) and of
    # 3 (its scan was never called, and no change since touched it).
    scheduler.configuration.set(0, "g", 1)
    scheduler.configuration.set(3, "g", 1)
    enabled = scheduler.enabled_actions()
    assert protocol.calls == Counter(
        {("gate", 0): 1, ("scan", 0): 1, ("gate", 3): 1, ("scan", 3): 1}
    )
    assert enabled == _fresh_scan(scheduler)
    assert sorted(enabled) == [0, 3]


def test_guard_calls_count_part_calls():
    protocol, scheduler = _gated_ring()
    before = _counters(scheduler)["guard_calls"]
    scheduler.configuration.set(0, "g", 1)
    scheduler.enabled_actions()
    assert _counters(scheduler)["guard_calls"] - before == sum(protocol.calls.values()) == 2


def test_the_full_scan_engine_calls_every_reached_part():
    network = generators.ring(4)
    protocol = Gated()
    configuration = protocol.initial_configuration(network)
    configuration.set(0, "g", 1)
    configuration.set(1, "x", 1)
    scheduler = ReferenceScheduler(network, protocol, configuration=configuration)
    assert sorted(scheduler.enabled_actions()) == [0]
    # Every gate once, and the scan only behind the one open gate.
    assert protocol.calls == Counter(
        {("gate", 0): 1, ("gate", 1): 1, ("gate", 2): 1, ("gate", 3): 1, ("scan", 0): 1}
    )


def test_views_follow_a_replaced_configuration():
    protocol, scheduler = _gated_ring()
    replacement = scheduler.configuration.copy()
    replacement.set(1, "g", 1)
    scheduler.set_configuration(replacement)
    assert scheduler.enabled_actions() == _fresh_scan(scheduler)
    assert sorted(scheduler.enabled_actions()) == [1]


def test_the_guard_kernel_reports_the_consulted_bits():
    network = generators.ring(4)
    protocol = Gated()
    configuration = protocol.initial_configuration(network)
    parts, walks, segments = compile_program(protocol.actions(network, 0))
    assert parts == (GATE_READS, SCAN_READS) and segments == ()
    assert [(bit, negated) for _, bit, negated, _ in walks[0]] == [(0b01, 0), (0b10, 0)]
    guards, _ = compile_kernels(walks, segments)
    # Gate closed: only bit 0 is consulted; the scan's bit stays stale.
    view = GuardView(0, network, configuration)
    index, held, stale, consulted, calls = guards(-1, 0, view)
    assert (index, held, consulted, calls) == (1, 0, 0b01, 1)
    assert stale & 0b10
    configuration.set(0, "g", 1)
    index, held, stale, consulted, calls = guards(stale | 0b01, held, view)
    assert (index, held, stale & 0b11, consulted, calls) == (1, 0b01, 0, 0b11, 2)


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
def test_a_part_is_checked_against_its_own_reads_not_the_union():
    # The gate over-declares the neighbors' ``x``, so the guard as a whole
    # declares the scan's read; the scan's own declaration does not.
    network = generators.ring(4)
    protocol = Gated(
        gate_reads=Reads(own=frozenset({"g"}), neighbor=frozenset({"x"})), scan_reads=Reads()
    )
    gate, scan = protocol.actions(network, 0)[0].guard_parts
    assert gate[1].neighbor == frozenset({"x"}) and scan[1] == Reads()
    configuration = protocol.initial_configuration(network)
    configuration.set(0, "g", 1)
    scheduler = Scheduler(
        network, protocol, configuration=configuration, check_guard_locality=True
    )
    with pytest.raises(GuardLocalityError) as excinfo:
        scheduler.enabled_actions()
    error = excinfo.value
    assert error.rule == "RL008"
    assert error.action == "Go" and error.node == 0
    assert tuple(error.reads) == ((1, "x"), (3, "x"))


def test_all_of_with_reads_raises_value_error():
    guard = all_of((bool, GATE_READS))
    with pytest.raises(ValueError, match="per part"):
        Action("Go", guard, bool, reads=GATE_READS)


def test_an_all_of_action_declares_its_reads_per_part():
    action = Action("Go", all_of((bool, GATE_READS), (bool, SCAN_READS)), bool)
    assert action.reads is None
    assert [reads for _, reads in action.guard_parts] == [GATE_READS, SCAN_READS]
    # A hooked copy keeps the conjunction and its parts.
    hooked = action.with_extra_statement(bool)
    assert hooked.guard is action.guard and hooked.guard_parts == action.guard_parts
    # A plain guard is one part declared by ``reads``.
    plain = Action("Go", bool, bool, reads=GATE_READS)
    assert plain.guard_parts == ((bool, GATE_READS),)


def test_a_conjunction_is_a_callable_guard():
    network = generators.ring(4)
    protocol = Gated()
    configuration = protocol.initial_configuration(network)
    configuration.set(0, "g", 1)
    view = GuardView(0, network, configuration)
    action = protocol.actions(network, 0)[0]
    assert not action.guard(view)  # the scan is false
    configuration.set(1, "x", 1)
    assert action.guard(view)
    assert protocol.calls["scan", 0] == 2


@pytest.mark.parametrize("stack", ["dftno", "stno-bfs", "stno-dfs"])
def test_a_protocol_is_freed_without_the_cycle_collector(stack):
    # Programs shared across nodes hold plain functions, not methods bound
    # to the protocol: a reference cycle would keep every protocol a run
    # built alive until a full collection.
    network = generators.random_connected(8, seed=1)
    spec = RunSpec(
        protocol=stack, network=NetworkSpec(family="random_connected", size=8, seed=1), seed=2
    )
    run(spec)  # first-run imports and caches are not per-run garbage
    gc.collect()
    gc.disable()
    try:
        protocol = build_protocol(stack)
        for node in network.nodes():
            protocol.actions(network, node)
            protocol.variables(network, node)
        alive = [weakref.ref(layer) for layer in (protocol, *protocol.layers())]
        del protocol
        assert [ref() for ref in alive] == [None] * len(alive)
        # A whole run -- protocol, scheduler, views, result -- leaves no
        # cyclic garbage behind either.
        run(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Guards cannot write
# ----------------------------------------------------------------------
class GuardMutates(Protocol):
    """Guard ``A`` writes ``x`` and fails; guard ``B`` would see the write."""

    name = "guard-mutates"

    def variables(self, network, node):
        return [int_variable("x", 0, 1, initial=0), int_variable("y", 0, 1, initial=0)]

    def actions(self, network, node):
        def a_guard(view) -> bool:
            view.write("x", 1)
            return False

        def b_guard(view) -> bool:
            return view.read("x") == 1 and view.read("y") == 1

        return [
            Action("A", a_guard, lambda view: None, layer=self.name),
            Action("B", b_guard, lambda view: None, layer=self.name),
        ]


@pytest.mark.parametrize("core", [Scheduler, ReferenceScheduler], ids=["incremental", "fullscan"])
@pytest.mark.parametrize("check", [False, True], ids=["release", "check"])
def test_a_guard_write_raises_on_both_engines(core, check):
    network = generators.ring(4)
    protocol = GuardMutates()
    scheduler = core(
        network,
        protocol,
        configuration=protocol.initial_configuration(network),
        check_guard_locality=check,
    )
    scheduler.configuration.set(0, "y", 1)
    with pytest.raises(ProtocolError, match=r"processor 0 .*'x'"):
        scheduler.enabled_actions()
    with pytest.raises(ProtocolError, match="write"):
        reference.enabled(network, protocol, scheduler.configuration)


@pytest.mark.parametrize("view_class", [GuardView, TrackingGuardView])
def test_guard_views_are_read_only(view_class):
    network = generators.path(2)
    configuration = Configuration({0: {"v": 0}, 1: {"v": 1}})
    view = view_class(0, network, configuration)
    with pytest.raises(ProtocolError, match="processor 0 tried to write variable 'v'"):
        view.write("v", 5)
    assert view.read("v") == 0 and view.read_neighbor(1, "v") == 1
    configuration.set(0, "v", 2)
    assert view.read("v") == 2  # reads the live configuration
