"""Incremental legitimacy: ``L_NO`` kept up to date from the configuration journal.

Every protocol layer states its legitimacy predicate in two parts (see
:meth:`~repro.runtime.protocol.Protocol.node_legitimate` and
:meth:`~repro.runtime.protocol.Protocol.legitimacy_residue`):

* a per-node conjunct that reads only the node's closed neighborhood -- the
  token layer's stack consistency, SP1's range condition plus SP2 at one
  processor, a tree node's reference distance or parent;
* a small global residue -- "at most one token holder" for the token layer,
  name uniqueness for SP1, nothing for the trees.  A layer that does not
  decompose (Dijkstra's ring, PIF) keeps its whole predicate as the residue.

The layer's ``legitimate`` is "the conjunct holds at every node and the
residue holds", so the global predicate and this tracker share one
definition.  :class:`LegitimacyTracker` keeps, per layer, the set of nodes
whose conjunct fails.  It watches the same change journal that feeds the
scheduler's incremental enabled set: a change at ``v`` can only flip the
conjuncts of ``v``'s closed neighborhood, so only those are re-checked.  A
layer's residue is evaluated only when the layer's violation set is empty,
and then cached until the next change.
"""

from __future__ import annotations

from typing import Iterable

from repro.graphs.network import RootedNetwork
from repro.obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from repro.runtime.configuration import Configuration
from repro.runtime.protocol import Protocol


class LegitimacyTracker:
    """Per-layer violation sets of ``protocol`` on one configuration object.

    The tracker is bound to ``network`` and ``configuration`` *objects*: it
    registers a watcher on the configuration at construction, and a
    replacement configuration or network needs a new tracker (the
    :class:`~repro.runtime.scheduler.Scheduler` builds one lazily).  Call
    :meth:`detach` before dropping a tracker whose configuration lives on.
    """

    def __init__(
        self,
        network: RootedNetwork,
        protocol: Protocol,
        configuration: Configuration,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.network = network
        self.configuration = configuration
        self._instr = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self._layers: tuple[Protocol, ...] = tuple(dict.fromkeys(protocol.layers()))
        self._slots: dict[Protocol, tuple[int, ...]] = {}
        self._violations: list[set[int]] = [set() for _ in self._layers]
        # Per layer: nodes journaled since its last sync with a change to a
        # variable the layer's legitimacy reads.  A nonempty set also voids
        # the layer's cached residue, which may read the whole configuration.
        self._pending: list[set[int]] = [set() for _ in self._layers]
        self._residues: dict[int, bool] = {}
        for slot in range(len(self._layers)):
            self._check(slot, network.nodes())
        watch = tuple(
            (layer.legitimacy_reads, pending) for layer, pending in zip(self._layers, self._pending)
        )

        # A closure over the pending sets only: the configuration holds its
        # watchers, and a bound method would tie it and the tracker into a
        # reference cycle that outlives the run until the cyclic collector.
        def on_change(node: int, variables: tuple[str, ...] | None) -> None:
            for reads, pending in watch:
                if reads is None or variables is None or not reads.isdisjoint(variables):
                    pending.add(node)

        self._on_change = on_change
        configuration.add_watcher(on_change)

    def detach(self) -> None:
        """Stop watching the configuration."""
        self.configuration.discard_watcher(self._on_change)

    def _check(self, slot: int, nodes: Iterable[int]) -> None:
        """Re-evaluate layer ``slot``'s conjunct at ``nodes``."""
        network, configuration = self.network, self.configuration
        conjunct = self._layers[slot].node_legitimate
        violations = self._violations[slot]
        checked = 0
        for node in nodes:
            checked += 1
            if conjunct(network, configuration, node):
                violations.discard(node)
            else:
                violations.add(node)
        if self._instr.enabled:
            self._instr.count("legitimacy_nodes_checked", checked)

    def _sync(self, slot: int) -> None:
        """Fold layer ``slot``'s journaled changes in: re-check their closed neighborhoods."""
        pending = self._pending[slot]
        if not pending:
            return
        network = self.network
        frontier: set[int] = set()
        for node in pending:
            if 0 <= node < network.n:  # skip foreign ids journaled by hand
                frontier.add(node)
                frontier.update(network.neighbor_set(node))
        pending.clear()
        self._residues.pop(slot, None)
        self._check(slot, frontier)

    def _slots_of(self, layer: Protocol) -> tuple[int, ...]:
        slots = self._slots.get(layer)
        if slots is None:
            index = {tracked: slot for slot, tracked in enumerate(self._layers)}
            try:
                slots = tuple(index[leaf] for leaf in layer.layers())
            except KeyError:
                raise ValueError(
                    f"layer {layer.name!r} is not part of the tracked protocol"
                ) from None
            self._slots[layer] = slots
        return slots

    def legitimate(self, layer: Protocol | None = None) -> bool:
        """Whether ``layer`` (default: the whole protocol) is legitimate now.

        ``layer`` is the tracked protocol, one of its layers, or a
        composition of some of them (e.g. a DFS tree substrate made of the
        token layer and its recording overlay).
        """
        slots = self._slots_of(layer) if layer is not None else range(len(self._layers))
        for slot in slots:
            self._sync(slot)
        if any(self._violations[slot] for slot in slots):
            return False
        residues = self._residues
        for slot in slots:
            holds = residues.get(slot)
            if holds is None:
                holds = residues[slot] = self._layers[slot].legitimacy_residue(
                    self.network, self.configuration
                )
            if not holds:
                return False
        return True


__all__ = ["LegitimacyTracker"]
