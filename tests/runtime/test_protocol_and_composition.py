"""Unit tests for the Protocol base class and the composition operators."""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from repro.errors import ProtocolError
from repro.graphs import generators
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action
from repro.runtime.composition import HookedComposition, HookingLayer, LayeredProtocol
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, int_variable


class CounterProtocol(Protocol):
    """A toy protocol: every processor counts up to its target value."""

    name = "counter"

    def __init__(self, target: int = 3, variable: str = "count") -> None:
        self.target = target
        self.variable = variable

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [int_variable(self.variable, 0, self.target, initial=0)]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return [
            Action(
                "Count",
                lambda view: view.read(self.variable) < self.target,
                lambda view: view.write(self.variable, view.read(self.variable) + 1),
                layer=self.name,
            )
        ]

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        return all(
            configuration.get(node, self.variable) == self.target for node in network.nodes()
        )


class EmptyProtocol(Protocol):
    name = "empty"

    def variables(self, network, node):
        return [int_variable("x", 0, 1)]

    def actions(self, network, node):
        return []


class DuplicateVariableProtocol(Protocol):
    name = "dup"

    def variables(self, network, node):
        return [int_variable("x", 0, 1), int_variable("x", 0, 1)]

    def actions(self, network, node):
        return [Action("noop", lambda view: False, lambda view: None)]


# ----------------------------------------------------------------------
# Protocol base class
# ----------------------------------------------------------------------
def test_initial_configuration_uses_variable_initials(small_ring):
    protocol = CounterProtocol(target=5)
    config = protocol.initial_configuration(small_ring)
    assert all(config.get(node, "count") == 0 for node in small_ring.nodes())


def test_random_configuration_is_in_domain_and_seeded(small_ring):
    protocol = CounterProtocol(target=5)
    a = protocol.random_configuration(small_ring, seed=3)
    b = protocol.random_configuration(small_ring, seed=3)
    c = protocol.random_configuration(small_ring, seed=4)
    assert a == b
    assert any(a.get(node, "count") != c.get(node, "count") for node in small_ring.nodes())
    assert all(0 <= a.get(node, "count") <= 5 for node in small_ring.nodes())


def test_random_configuration_accepts_rng(small_ring):
    protocol = CounterProtocol()
    rng = random.Random(9)
    config = protocol.random_configuration(small_ring, rng=rng)
    assert all(config.has(node, "count") for node in small_ring.nodes())


def test_space_bits_sums_variables(small_ring):
    protocol = CounterProtocol(target=7)  # 8 values -> 3 bits
    assert protocol.space_bits(small_ring, 0) == 3


def test_variable_names_and_layers(small_ring):
    protocol = CounterProtocol()
    assert protocol.variable_names(small_ring, 0) == ("count",)
    assert protocol.layers() == (protocol,)
    assert "CounterProtocol" in repr(protocol)


def test_validate_rejects_duplicate_variables(small_ring):
    with pytest.raises(ProtocolError):
        DuplicateVariableProtocol().validate(small_ring)


def test_validate_rejects_actionless_processor(small_ring):
    with pytest.raises(ProtocolError):
        EmptyProtocol().validate(small_ring)


# ----------------------------------------------------------------------
# LayeredProtocol
# ----------------------------------------------------------------------
def test_layered_protocol_merges_variables_and_actions(small_ring):
    lower = CounterProtocol(target=2, variable="low")
    upper = CounterProtocol(target=3, variable="high")
    upper.name = "counter-high"
    layered = LayeredProtocol([lower, upper])
    assert set(layered.variable_names(small_ring, 0)) == {"low", "high"}
    assert len(layered.actions(small_ring, 0)) == 2
    assert layered.name == "counter+counter-high"
    assert len(layered.layers()) == 2


def test_layered_protocol_legitimate_requires_all_layers(small_ring):
    lower = CounterProtocol(target=1, variable="low")
    upper = CounterProtocol(target=1, variable="high")
    layered = LayeredProtocol([lower, upper])
    config = Configuration({node: {"low": 1, "high": 0} for node in small_ring.nodes()})
    assert not layered.legitimate(small_ring, config)
    config = Configuration({node: {"low": 1, "high": 1} for node in small_ring.nodes()})
    assert layered.legitimate(small_ring, config)


def test_layered_protocol_rejects_variable_clash(small_ring):
    with pytest.raises(ProtocolError):
        LayeredProtocol([CounterProtocol(), CounterProtocol()]).validate(small_ring)


def test_layered_protocol_needs_at_least_one_layer():
    with pytest.raises(ProtocolError):
        LayeredProtocol([])


# ----------------------------------------------------------------------
# HookedComposition
# ----------------------------------------------------------------------
class MirrorOverlay(HookingLayer):
    """Overlay that mirrors the base counter into its own variable on each count."""

    name = "mirror"

    def variables(self, network, node):
        return [int_variable("mirror", 0, network.n * 10, initial=0)]

    def hooks(self, network, node):
        return {"Count": lambda view: view.write("mirror", view.read("count"))}

    def actions(self, network, node):
        return []

    def legitimacy_residue(self, network, configuration):
        return all(
            configuration.get(node, "mirror") == configuration.get(node, "count")
            for node in network.nodes()
        )


class BadHookOverlay(MirrorOverlay):
    name = "bad-hook"

    def hooks(self, network, node):
        return {"NoSuchAction": lambda view: None}


def test_hooked_composition_runs_hook_in_same_step(small_ring):
    base = CounterProtocol(target=2)
    composed = HookedComposition(base, MirrorOverlay())
    composed.validate(small_ring)
    config = composed.initial_configuration(small_ring)
    view = ProcessorView(0, small_ring, config)
    action = composed.actions(small_ring, 0)[0]
    assert action.name == "Count"
    action.statement(view)
    # The hook saw the freshly written counter value.
    assert view.pending_writes == {"count": 1, "mirror": 1}


def test_hooked_composition_legitimacy_combines_layers(small_ring):
    base = CounterProtocol(target=1)
    composed = HookedComposition(base, MirrorOverlay())
    good = Configuration({node: {"count": 1, "mirror": 1} for node in small_ring.nodes()})
    bad = Configuration({node: {"count": 1, "mirror": 0} for node in small_ring.nodes()})
    assert composed.legitimate(small_ring, good)
    assert not composed.legitimate(small_ring, bad)


def test_hooked_composition_exposes_base_and_overlay(small_ring):
    base = CounterProtocol()
    overlay = MirrorOverlay()
    composed = HookedComposition(base, overlay, name="combo")
    assert composed.base is base
    assert composed.overlay is overlay
    assert composed.name == "combo"
    assert composed.layers() == (base, overlay)
    assert set(composed.variable_names(small_ring, 0)) == {"count", "mirror"}


def test_hooked_composition_rejects_unknown_hook_target(small_ring):
    composed = HookedComposition(CounterProtocol(), BadHookOverlay())
    with pytest.raises(ProtocolError):
        composed.validate(small_ring)


def test_hooked_composition_rejects_variable_clash(small_ring):
    class ClashOverlay(MirrorOverlay):
        def variables(self, network, node):
            return [int_variable("count", 0, 1)]

    with pytest.raises(ProtocolError):
        HookedComposition(CounterProtocol(), ClashOverlay()).validate(small_ring)


def test_hooking_layer_defaults():
    layer = HookingLayer.__new__(MirrorOverlay)  # default hooks() via base class
    assert HookingLayer.hooks(layer, None, 0) == {}
    assert HookingLayer.actions(layer, None, 0) == []
