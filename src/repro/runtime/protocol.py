"""Base class for distributed protocols written as guarded-action programs."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Action, Reads
from repro.runtime.configuration import Configuration
from repro.runtime.variables import VariableSpec


class Protocol(ABC):
    """A distributed protocol: per-processor variables and guarded actions.

    Subclasses describe, for every processor of a given network, which
    variables it owns (:meth:`variables`) and which guarded actions form its
    program (:meth:`actions`).  They also provide the protocol's *legitimacy
    predicate* (:meth:`legitimate`), which is what self-stabilization
    (Definition 2.1.2) is stated against.

    The base class derives everything the scheduler and the fault injector
    need from those three methods: clean and arbitrary configurations and the
    per-processor space cost in bits.
    """

    #: Short identifier used in traces, metrics and composition error messages.
    name: str = "protocol"

    #: What :meth:`node_legitimate` reads at the node itself (``own``) and at
    #: its neighbors (``neighbor``), in the :class:`~repro.runtime.actions.Reads`
    #: form guards declare; :meth:`legitimacy_residue` and :meth:`node_tally`
    #: may read only variables listed in either set.  ``None`` means any
    #: variable.  The incremental legitimacy tracker, fed by the scheduler's
    #: journal drain, re-checks a node after an own-read change there and its
    #: closed neighborhood after a neighbor-read change.
    legitimacy_reads: Reads | None = None

    #: Names of the per-node counts :meth:`node_tally` returns; empty when the
    #: layer's residue keeps no tally.
    residue_tally: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abstractmethod
    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        """Variable declarations of ``node``'s program."""

    @abstractmethod
    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        """Guarded actions of ``node``'s program, in priority order."""

    @abstractmethod
    def legitimate(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Whether ``configuration`` satisfies the protocol's legitimacy predicate."""

    # ------------------------------------------------------------------
    # Legitimacy decomposition (read by the incremental LegitimacyTracker)
    # ------------------------------------------------------------------
    def node_legitimate(
        self, network: RootedNetwork, configuration: Configuration, node: int
    ) -> bool:
        """The per-node conjunct of :meth:`legitimate` at ``node``.

        A layer that decomposes its predicate returns here the part that
        reads only ``node``'s closed neighborhood (itself and its
        neighbors), and defines :meth:`legitimate` as "this holds at every
        node and :meth:`legitimacy_residue` holds".  The default -- no
        decomposition -- holds everywhere.
        """
        return True

    def legitimacy_residue(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """The global remainder of :meth:`legitimate` beyond the per-node conjuncts.

        The default is the whole predicate, which is correct for any layer
        that does not decompose (see :meth:`node_legitimate`).
        """
        return self.legitimate(network, configuration)

    def node_tally(
        self, network: RootedNetwork, configuration: Configuration, node: int
    ) -> tuple[int, ...]:
        """``node``'s contribution to the counts :meth:`residue_from_tally` reads.

        Only for layers that declare :attr:`residue_tally`: the legitimacy
        tracker keeps the per-node tallies -- which, like the conjunct, read
        only the closed neighborhood and :attr:`legitimacy_reads` -- summed
        over the nodes it re-checks, so the residue costs O(1) instead of a
        scan.
        """
        return ()

    def residue_from_tally(
        self, network: RootedNetwork, configuration: Configuration, totals: Sequence[int]
    ) -> bool:
        """:meth:`legitimacy_residue` from the summed :meth:`node_tally` counts."""
        return self.legitimacy_residue(network, configuration)

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


__all__ = ["Protocol"]
