"""Transient-fault modelling: partial corruption of a configuration.

Self-stabilization (Definition 2.1.2) quantifies over *every* initial
configuration, which is the abstraction of transient faults: whatever a burst
of memory corruption leaves behind, the protocol recovers.  A fully arbitrary
configuration is :meth:`~repro.runtime.protocol.Protocol.random_configuration`;
:func:`corrupt_configuration` perturbs an existing configuration at a chosen
fraction of processors/variables (a "partial" fault);
:class:`~repro.scenarios.events.CorruptionBurst` applies such a burst to a
running scheduler as a scenario event.
"""

from __future__ import annotations

import random

from repro.graphs.network import RootedNetwork
from repro.runtime.configuration import Configuration
from repro.runtime.protocol import Protocol


def corrupt_configuration(
    configuration: Configuration,
    protocol: Protocol,
    network: RootedNetwork,
    node_fraction: float = 1.0,
    variable_fraction: float = 1.0,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Configuration:
    """A copy of ``configuration`` with some variables replaced by arbitrary values.

    ``node_fraction`` of the processors are hit, chosen at random; at each hit
    processor, ``variable_fraction`` of its variables are replaced by fresh
    arbitrary values from their domains.  A *positive* fraction always hits at
    least one processor / variable (so tiny bursts are not silently rounded
    away), while a fraction of exactly ``0.0`` means **zero**: the returned
    configuration is an identical copy.
    """
    if not 0.0 <= node_fraction <= 1.0:
        raise ValueError("node_fraction must lie in [0, 1]")
    if not 0.0 <= variable_fraction <= 1.0:
        raise ValueError("variable_fraction must lie in [0, 1]")
    rng = rng or random.Random(seed)
    corrupted = configuration.copy()

    nodes = list(network.nodes())
    hit_count = _fraction_count(node_fraction, len(nodes))
    hit_nodes = rng.sample(nodes, hit_count) if hit_count else []

    for node in hit_nodes:
        arbitrary = protocol.random_state(network, node, rng)
        names = list(arbitrary)
        chosen_count = _fraction_count(variable_fraction, len(names))
        chosen = rng.sample(names, chosen_count) if chosen_count else []
        for name in chosen:
            corrupted.set(node, name, arbitrary[name])
    return corrupted


def _fraction_count(fraction: float, total: int) -> int:
    """How many of ``total`` items a fraction selects: 0.0 -> 0, else >= 1."""
    if fraction <= 0.0:
        return 0
    return max(1, round(fraction * total))


__all__ = ["corrupt_configuration"]
