"""Incremental legitimacy: ``L_NO`` kept up to date from the scheduler's journal drain.

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
whose conjunct fails.  It is fed by the scheduler: every drain of the
configuration's change journal that marks guards stale is also handed to
:meth:`LegitimacyTracker.note`.  The tracker reads the layer's
``legitimacy_reads`` declaration the way the scheduler reads a guard's: a
change at ``v`` of a variable the conjunct reads only at the node itself
re-checks ``v`` alone, one it reads at neighbors re-checks ``v``'s closed
neighborhood, and any other change re-checks nothing.  A layer's residue is
evaluated only when the layer's violation set is empty, and then cached
until the next change.  A layer that declares a ``residue_tally`` (the
token layer's active and holder counts) has its per-node tallies kept on
the same re-checked nodes, so its residue reads the totals instead of
scanning the configuration.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.graphs.network import RootedNetwork
from repro.obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from repro.runtime.configuration import Configuration
from repro.runtime.protocol import Protocol


class LegitimacyTracker:
    """Per-layer violation sets of ``protocol`` on one configuration object.

    The tracker is bound to ``network`` and ``configuration`` *objects* and
    learns of changes only through :meth:`note`, so whoever writes the
    configuration must hand it every drained journal entry; a replacement
    configuration or network needs a new tracker (the
    :class:`~repro.runtime.scheduler.Scheduler` drops its tracker on a
    replacement and builds one lazily).
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
        # Per layer: nodes noted since its last sync with a change to a
        # variable the layer's legitimacy reads only at the node itself
        # (``_pending_own``) or also at neighbors (``_pending_near``).  A
        # nonempty set also voids the layer's cached residue, which may read
        # the whole configuration.
        self._pending_own: list[set[int]] = [set() for _ in self._layers]
        self._pending_near: list[set[int]] = [set() for _ in self._layers]
        self._residues: dict[int, bool] = {}
        # Per tallying layer: each node's last ``node_tally`` and their sums.
        self._tallies: list[list[tuple[int, ...]] | None] = [
            [(0,) * len(layer.residue_tally)] * network.n if layer.residue_tally else None
            for layer in self._layers
        ]
        self._totals: list[list[int]] = [[0] * len(layer.residue_tally) for layer in self._layers]
        # Changed-variable tuple -> the pending sets it feeds (memoised: the
        # journal repeats a handful of tuples).
        self._targets: dict[tuple[str, ...] | None, tuple[set[int], ...]] = {}
        for slot in range(len(self._layers)):
            self._check(slot, network.nodes())

    def note(self, changes: Mapping[int, tuple[str, ...] | None]) -> None:
        """Queue re-checks for drained journal entries ``node -> variables``.

        ``variables`` is ``None`` for a whole-state change.  Nothing is
        evaluated here: each layer folds its queue in on its next query.
        """
        targets = self._targets
        for node, variables in changes.items():
            fed = targets.get(variables)
            if fed is None:
                fed = targets[variables] = self._classify(variables)
            for pending in fed:
                pending.add(node)

    def _classify(self, variables: tuple[str, ...] | None) -> tuple[set[int], ...]:
        """The pending sets a change of ``variables`` feeds, one per layer it can flip."""
        fed: list[set[int]] = []
        for layer, own, near in zip(self._layers, self._pending_own, self._pending_near):
            reads = layer.legitimacy_reads
            if reads is None or variables is None or not reads.neighbor.isdisjoint(variables):
                fed.append(near)
            elif not reads.own.isdisjoint(variables):
                fed.append(own)
        return tuple(fed)

    def _check(self, slot: int, nodes: Iterable[int]) -> None:
        """Re-evaluate layer ``slot``'s conjunct (and tally) at ``nodes``."""
        network, configuration = self.network, self.configuration
        layer = self._layers[slot]
        conjunct = layer.node_legitimate
        violations = self._violations[slot]
        tallies = self._tallies[slot]
        checked = 0
        for node in nodes:
            checked += 1
            if conjunct(network, configuration, node):
                violations.discard(node)
            else:
                violations.add(node)
            if tallies is not None:
                tally = layer.node_tally(network, configuration, node)
                previous = tallies[node]
                if tally != previous:
                    tallies[node] = tally
                    totals = self._totals[slot]
                    for position, (old, new) in enumerate(zip(previous, tally)):
                        totals[position] += new - old
        if self._instr.enabled:
            self._instr.count("legitimacy_nodes_checked", checked)

    def _sync(self, slot: int) -> None:
        """Fold layer ``slot``'s noted changes in: re-check what they can flip."""
        own, near = self._pending_own[slot], self._pending_near[slot]
        if not own and not near:
            return
        network = self.network
        n = network.n
        frontier = {node for node in own if 0 <= node < n}  # skip foreign ids
        for node in near:
            if 0 <= node < n:
                frontier.add(node)
                frontier.update(network.neighbor_set(node))
        own.clear()
        near.clear()
        self._residues.pop(slot, None)
        self._check(slot, frontier)

    def _slots_of(self, layer: Protocol) -> tuple[int, ...]:
        slots = self._slots.get(layer)
        if slots is None:
            index = {tracked: slot for slot, tracked in enumerate(self._layers)}
            slots = self._slots[layer] = tuple(index[leaf] for leaf in layer.layers())
        return slots

    def legitimate(self, layer: Protocol | None = None) -> bool:
        """Whether ``layer`` (default: the whole protocol) is legitimate now.

        ``layer`` is the tracked protocol, one of its layers, or a
        composition of some of them (e.g. a DFS tree substrate made of the
        token layer and its recording overlay); the scheduler rejects any
        other layer before asking.
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
                layer = self._layers[slot]
                if self._tallies[slot] is not None:
                    holds = layer.residue_from_tally(
                        self.network, self.configuration, tuple(self._totals[slot])
                    )
                else:
                    holds = layer.legitimacy_residue(self.network, self.configuration)
                residues[slot] = holds
            if not holds:
                return False
        return True


__all__ = ["LegitimacyTracker"]
