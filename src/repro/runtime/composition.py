"""Protocol composition.

The paper's two orientation protocols are *layered* on top of an underlying
protocol (depth-first token circulation for DFTNO, spanning-tree construction
for STNO): the upper layer reads the lower layer's variables but never writes
them, and the lower layer ignores the upper layer entirely.  This is the
classic fair/collateral composition of self-stabilizing protocols, and it is
what :class:`LayeredProtocol` implements.

DFTNO additionally attaches its ``Nodelabel`` and ``UpdateMax`` macros to the
*moments* the token moves: "``Forward(p) --> Nodelabel_p``" means the node
labels itself in the same atomic step in which it receives the token.
:class:`HookedComposition` supports exactly that: an upper
:class:`HookingLayer` can register extra statements on named actions of the
base layer; they run after the base statement inside the same atomic step.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, StatementFn
from repro.runtime.protocol import PerNetwork, Protocol
from repro.runtime.variables import VariableSpec


def _check_disjoint_variables(layers: Sequence[Protocol], network: RootedNetwork) -> None:
    for node in network.nodes():
        seen: dict[str, str] = {}
        for layer in layers:
            for spec in layer.variables(network, node):
                if spec.name in seen:
                    raise ProtocolError(
                        f"variable {spec.name!r} is declared by both layer {seen[spec.name]!r} "
                        f"and layer {layer.name!r} at processor {node}"
                    )
                seen[spec.name] = layer.name


def _concatenate_programs(
    network: RootedNetwork, layers: tuple[Protocol, ...]
) -> list[tuple[Action, ...]]:
    """Every node's program on ``network``, the layers' programs concatenated, by node."""
    return [
        tuple(action for layer in layers for action in layer.actions(network, node))
        for node in network.nodes()
    ]


class LayeredProtocol(Protocol):
    """Fair composition of protocol layers (lowest layer first).

    * variables are the union of the layers' variables (names must be
      disjoint);
    * the program of a processor is the concatenation of the layers' programs,
      lower layers first (so substrate error-correction runs before the upper
      layer reacts to it), built once per network as a tuple;
    * its legitimacy is its leaf layers' rules and residues
      (:meth:`~repro.runtime.protocol.Protocol.legitimate`).
    """

    def __init__(self, layers: Sequence[Protocol], name: str | None = None) -> None:
        if not layers:
            raise ProtocolError("a layered protocol needs at least one layer")
        self._layers = tuple(layers)
        self.name = name or "+".join(layer.name for layer in self._layers)
        self._programs = PerNetwork(_concatenate_programs, self._layers)

    def layers(self) -> tuple[Protocol, ...]:
        nested: list[Protocol] = []
        for layer in self._layers:
            nested.extend(layer.layers())
        return tuple(nested)

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        specs: list[VariableSpec] = []
        for layer in self._layers:
            specs.extend(layer.variables(network, node))
        return specs

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._programs(network)[node]

    def validate(self, network: RootedNetwork) -> None:
        _check_disjoint_variables(self._layers, network)
        super().validate(network)


HookFn = Callable[..., None]


class HookingLayer(Protocol):
    """A protocol layer that can also piggy-back statements on a base layer.

    In addition to the usual :meth:`variables` / :meth:`actions` /
    :meth:`violation_rules` interface, a hooking layer implements :meth:`hooks`,
    returning a mapping ``base action name -> statement`` for a given
    processor.  :class:`HookedComposition` splices those statements into the
    base layer's matching actions.
    """

    def hooks(self, network: RootedNetwork, node: int) -> Mapping[str, StatementFn]:
        """Extra statements keyed by the base-layer action name they extend.

        Return statements that compare equal from call to call (plain
        functions, or methods of the layer): nodes whose hooks are equal
        share one composed program.
        """
        return {}

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:  # pragma: no cover
        return []


def _compose_programs(
    network: RootedNetwork, base: Protocol, overlay: HookingLayer
) -> list[tuple[Action, ...]]:
    """Every node's composed program on ``network``, indexed by node.

    Nodes whose base program, hooks and overlay program are equal share one
    composed program, built once: with layers that build their programs
    once, that is one per distinct program, whatever the network's size.
    """
    composed: dict[tuple, tuple[Action, ...]] = {}
    programs: list[tuple[Action, ...]] = []
    for node in network.nodes():
        base_program = tuple(base.actions(network, node))
        hooks = overlay.hooks(network, node)
        own = tuple(overlay.actions(network, node))
        key = (base_program, tuple(hooks.items()), own)
        program = composed.get(key)
        if program is None:
            program = composed[key] = tuple(
                action.with_extra_statement(hooks[action.name], suffix="")
                if action.name in hooks
                else action
                for action in base_program
            ) + own
        programs.append(program)
    return programs


class HookedComposition(Protocol):
    """Compose a base protocol with a :class:`HookingLayer` on top of it.

    The composed program of a processor consists of

    1. the base layer's actions, where any action named in the overlay's
       :meth:`~HookingLayer.hooks` has the hook statement appended (same
       atomic step, hook runs after the base statement and sees its writes);
    2. followed by the overlay's own stand-alone actions (e.g. DFTNO's edge
       relabeling rule).

    The composed programs are built once per network, one per distinct
    (base program, hooks, overlay program).
    """

    def __init__(self, base: Protocol, overlay: HookingLayer, name: str | None = None) -> None:
        self._base = base
        self._overlay = overlay
        self.name = name or f"{overlay.name}@{base.name}"
        self._programs = PerNetwork(_compose_programs, base, overlay)

    @property
    def base(self) -> Protocol:
        """The underlying protocol layer."""
        return self._base

    @property
    def overlay(self) -> HookingLayer:
        """The upper (hooking) protocol layer."""
        return self._overlay

    def layers(self) -> tuple[Protocol, ...]:
        return tuple(self._base.layers()) + tuple(self._overlay.layers())

    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return list(self._base.variables(network, node)) + list(
            self._overlay.variables(network, node)
        )

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        return self._programs(network)[node]

    def validate(self, network: RootedNetwork) -> None:
        _check_disjoint_variables((self._base, self._overlay), network)
        for node in network.nodes():
            base_names = {action.name for action in self._base.actions(network, node)}
            for hooked_name in self._overlay.hooks(network, node):
                if hooked_name not in base_names:
                    raise ProtocolError(
                        f"layer {self._overlay.name!r} hooks unknown base action "
                        f"{hooked_name!r} at processor {node}"
                    )
        super().validate(network)


__all__ = ["LayeredProtocol", "HookingLayer", "HookedComposition"]
