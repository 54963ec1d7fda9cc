"""Base class for distributed protocols written as guarded-action programs."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Rule
from repro.runtime.configuration import Configuration
from repro.runtime.processor import GuardView
from repro.runtime.variables import VariableSpec


class PerNetwork:
    """``compute(network, *args)``, recomputed only when a different network object arrives.

    Networks are immutable, so a value derived from one -- a layer's
    variable schema, reference BFS distances, the reference DFS tree --
    stays valid until a topology change hands the protocol a new network
    object.  Kept on a protocol instance, ``compute`` and ``args`` must not
    reference the instance (pass a plain function, not a bound method), or
    the instance sits in a reference cycle only a full collection frees.
    ``repro-lint`` reads the variable factories of a ``compute`` it can
    resolve as part of the layer's variable schema.
    """

    __slots__ = ("_compute", "_args", "_network", "_value")

    def __init__(self, compute: Callable[..., Any], *args: Any) -> None:
        self._compute = compute
        self._args = args
        self._network: RootedNetwork | None = None
        self._value: Any = None

    def __call__(self, network: RootedNetwork) -> Any:
        if network is not self._network:
            self._value = self._compute(network, *self._args)
            self._network = network
        return self._value


class Protocol(ABC):
    """A distributed protocol: per-processor variables and guarded actions.

    Subclasses describe, for every processor of a given network, which
    variables it owns (:meth:`variables`) and which guarded actions form its
    program (:meth:`actions`).  Self-stabilization (Definition 2.1.2) is
    stated against the protocol's *legitimacy predicate*
    (:meth:`legitimate`), which every layer gives by local checking:
    :meth:`violation_rules` lists, per processor,
    :class:`~repro.runtime.actions.Rule` conjunctions that hold where the
    processor is not legitimate (each part reads only the closed
    neighborhood and declares what it reads, exactly like a guard part), and
    :meth:`legitimacy_residue` is the global remainder the rules cannot see
    (SP1's name uniqueness, Dijkstra's single privilege; ``True`` by
    default).  :meth:`legitimate` is defined here once, and a subclass that
    defines it raises ``TypeError``.  The scheduler caches the rule parts
    like guard parts and re-calls only those a change can flip.  A residue
    must read only variables its layer's rules declare: it is re-evaluated
    only after a change to one of them (after any change when the layer
    states no rules).

    The base class derives everything the scheduler and the fault injector
    need from there: clean and arbitrary configurations and the
    per-processor space cost in bits.
    """

    #: Short identifier used in traces, metrics and composition error messages.
    name: str = "protocol"

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abstractmethod
    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        """Variable declarations of ``node``'s program.

        Called for every node by validation and by every configuration
        drawn, so build the specs once per network, not per call: a schema
        that is the same at every node is one :class:`PerNetwork` value
        (:class:`~repro.runtime.variables.VariableSpec` functions take the
        node as an argument).  Callers must not mutate the returned sequence.
        """

    @abstractmethod
    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        """Guarded actions of ``node``'s program, in priority order.

        Guards read the network through the view, so a layer's programs
        (typically one for the root, one for the others) are built once per
        instance, not per call.  A program kept on the instance holds plain
        functions -- nested functions or static methods that do not reference
        the instance -- since a method bound to the instance would make a
        reference cycle that only a full collection frees.
        """

    # ------------------------------------------------------------------
    # Legitimacy
    # ------------------------------------------------------------------
    def violation_rules(self, network: RootedNetwork, node: int) -> Sequence[Rule]:
        """The rules whose holding makes ``node`` illegitimate for this layer.

        Cheapest and most often false first: a node's rules are walked in
        order up to the first that holds.  Build them once (per instance or
        module), not per call.  None by default.
        """
        return ()

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """The global remainder of :meth:`legitimate` beyond the violation rules."""
        return True

    def legitimate(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Whether ``configuration`` satisfies the protocol's legitimacy predicate.

        No violation rule of a leaf layer (:meth:`layers`) holds at any node
        and every leaf's residue holds.
        """
        leaves = tuple(dict.fromkeys(self.layers()))
        for node in network.nodes():
            view = GuardView(node, network, configuration)
            for leaf in leaves:
                for rule in leaf.violation_rules(network, node):
                    if rule.guard(view):
                        return False
        return all(leaf.legitimacy_residue(network, configuration) for leaf in leaves)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "legitimate" in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} defines legitimate(); state legitimacy with "
                "violation_rules() and legitimacy_residue() instead"
            )

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def variable_names(self, network: RootedNetwork, node: int) -> tuple[str, ...]:
        """Names of the variables ``node`` owns."""
        return tuple(spec.name for spec in self.variables(network, node))

    def initial_state(self, network: RootedNetwork, node: int) -> dict[str, object]:
        """The clean designed-for initial state of ``node`` (not relied upon)."""
        return {spec.name: spec.initial(network, node) for spec in self.variables(network, node)}

    def random_state(
        self, network: RootedNetwork, node: int, rng: random.Random
    ) -> dict[str, object]:
        """An arbitrary state of ``node`` drawn from each variable's domain."""
        return {spec.name: spec.random(network, node, rng) for spec in self.variables(network, node)}

    def initial_configuration(self, network: RootedNetwork) -> Configuration:
        """The clean initial configuration of the whole system."""
        return Configuration({node: self.initial_state(network, node) for node in network.nodes()})

    def random_configuration(
        self, network: RootedNetwork, rng: random.Random | None = None, seed: int | None = None
    ) -> Configuration:
        """An arbitrary configuration (models the aftermath of transient faults)."""
        if rng is None:
            rng = random.Random(seed)
        return Configuration(
            {node: self.random_state(network, node, rng) for node in network.nodes()}
        )

    def space_bits(self, network: RootedNetwork, node: int) -> int:
        """Total bits of locally shared memory ``node`` needs for this protocol."""
        return sum(spec.space_bits(network, node) for spec in self.variables(network, node))

    def layers(self) -> tuple["Protocol", ...]:
        """The protocol layers this protocol is composed of (itself by default)."""
        return (self,)

    def validate(self, network: RootedNetwork) -> None:
        """Sanity-check the protocol definition against ``network``.

        Raises
        ------
        ProtocolError
            If a processor declares duplicate variable names or has no
            actions.  Called once by the scheduler before execution starts.
        """
        for node in network.nodes():
            names = [spec.name for spec in self.variables(network, node)]
            if len(names) != len(set(names)):
                raise ProtocolError(
                    f"protocol {self.name!r} declares duplicate variables at processor {node}: {names}"
                )
            if not list(self.actions(network, node)):
                raise ProtocolError(
                    f"protocol {self.name!r} defines no actions for processor {node}"
                )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


__all__ = ["PerNetwork", "Protocol"]
