"""Execution and space metrics.

The paper states its results in three currencies:

* *steps* / *moves* -- DFTNO stabilizes in O(n) steps after the token layer;
* *rounds* -- the asynchronous round complexity used for STNO's O(h) bound;
* *bits of locally shared memory per processor* -- O(Delta * log N) for both
  orientation layers, plus the underlying protocol's own cost.

:class:`ExecutionMetrics` accumulates the first two during a run;
:func:`space_bits_per_node` and :func:`space_summary` compute the third
directly from the protocol's variable declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.graphs.network import RootedNetwork
from repro.runtime.protocol import Protocol


@dataclass
class ExecutionMetrics:
    """Counters accumulated by the scheduler during one execution."""

    steps: int = 0
    moves: int = 0
    rounds: int = 0
    moves_per_node: dict[int, int] = field(default_factory=dict)
    moves_per_action: dict[str, int] = field(default_factory=dict)
    moves_per_layer: dict[str, int] = field(default_factory=dict)

    def record_moves(self, moves: Iterable[Sequence[Any]]) -> None:
        """Account for executed actions, each a ``(node, action, layer, changes)`` move.

        A step's :class:`~repro.runtime.scheduler.MoveRecord` tuple is such a
        sequence; the counters are updated in one pass over it.
        """
        per_node, per_action, per_layer = (
            self.moves_per_node, self.moves_per_action, self.moves_per_layer
        )
        node_count, action_count, layer_count = per_node.get, per_action.get, per_layer.get
        counted = 0
        for node, action, layer, _ in moves:
            per_node[node] = node_count(node, 0) + 1
            per_action[action] = action_count(action, 0) + 1
            per_layer[layer] = layer_count(layer, 0) + 1
            counted += 1
        self.moves += counted

    def merge(self, other: "ExecutionMetrics") -> None:
        """Add another run's counters into this one (used by repeated trials)."""
        self.steps += other.steps
        self.moves += other.moves
        self.rounds += other.rounds
        for node, count in other.moves_per_node.items():
            self.moves_per_node[node] = self.moves_per_node.get(node, 0) + count
        for action, count in other.moves_per_action.items():
            self.moves_per_action[action] = self.moves_per_action.get(action, 0) + count
        for layer, count in other.moves_per_layer.items():
            self.moves_per_layer[layer] = self.moves_per_layer.get(layer, 0) + count

    def as_dict(self) -> dict[str, object]:
        """Plain-dictionary form for reports."""
        return {
            "steps": self.steps,
            "moves": self.moves,
            "rounds": self.rounds,
            "moves_per_node": dict(self.moves_per_node),
            "moves_per_action": dict(self.moves_per_action),
            "moves_per_layer": dict(self.moves_per_layer),
        }


def space_bits_per_node(protocol: Protocol, network: RootedNetwork) -> dict[int, int]:
    """Bits of locally shared memory each processor needs for ``protocol``."""
    return {node: protocol.space_bits(network, node) for node in network.nodes()}


def space_summary(protocol: Protocol, network: RootedNetwork) -> dict[str, object]:
    """Aggregate space report: totals, per-node maximum, and per-layer breakdown."""
    per_node = space_bits_per_node(protocol, network)
    per_layer: dict[str, dict[str, int]] = {}
    for layer in protocol.layers():
        layer_bits = {node: layer.space_bits(network, node) for node in network.nodes()}
        per_layer[layer.name] = {
            "total_bits": sum(layer_bits.values()),
            "max_bits_per_node": max(layer_bits.values()),
        }
    return {
        "protocol": protocol.name,
        "network": network.name,
        "n": network.n,
        "max_degree": network.max_degree,
        "total_bits": sum(per_node.values()),
        "max_bits_per_node": max(per_node.values()),
        "mean_bits_per_node": sum(per_node.values()) / network.n,
        "per_layer": per_layer,
    }


def theoretical_orientation_bits(network: RootedNetwork) -> int:
    """The paper's O(Delta * log N) orientation-layer bound, evaluated exactly.

    Used by EXP-T3 to compare measured space against the bound's shape:
    ``Delta * ceil(log2 N)`` for the edge labels plus ``2 * ceil(log2 N)`` for
    the node name and the auxiliary counter.
    """
    from repro.runtime.variables import bits_for_values

    log_n = bits_for_values(network.n)
    return network.max_degree * log_n + 2 * log_n


__all__ = [
    "ExecutionMetrics",
    "space_bits_per_node",
    "space_summary",
    "theoretical_orientation_bits",
]
