"""Declarations of the locally shared variables a protocol owns.

The paper measures protocols by the number of *bits* per processor
(O(Delta * log N) for both orientation algorithms), so every variable carries
a bit-cost function alongside its initial-value and arbitrary-value
constructors.  The arbitrary-value constructor is what models transient
faults: self-stabilization (Definition 2.1.2) demands convergence from *any*
assignment of the variables within their domains.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.graphs.network import RootedNetwork

InitialFn = Callable[[RootedNetwork, int], Any]
RandomFn = Callable[[RootedNetwork, int, random.Random], Any]
BitsFn = Callable[[RootedNetwork, int], int]


def bits_for_values(count: int) -> int:
    """Number of bits required to store one of ``count`` distinct values."""
    if count <= 1:
        return 0
    return int(math.ceil(math.log2(count)))


@dataclass(frozen=True)
class VariableSpec:
    """Description of one locally shared variable.

    Attributes
    ----------
    name:
        Variable identifier; must be unique inside a composed protocol stack.
    initial:
        ``f(network, node)`` returning the clean "designed" initial value.
        Self-stabilizing protocols do not rely on it (they must converge from
        arbitrary values), but it is convenient for isolation tests and for
        non-stabilizing baselines.
    random:
        ``f(network, node, rng)`` returning an arbitrary value from the
        variable's domain; used for fault injection.
    bits:
        ``f(network, node)`` returning the storage cost in bits at ``node``.
    description:
        Free-form documentation string surfaced in space reports.
    """

    name: str
    initial: InitialFn
    random: RandomFn
    bits: BitsFn
    description: str = ""

    def space_bits(self, network: RootedNetwork, node: int) -> int:
        """Bits used by this variable at ``node``."""
        return self.bits(network, node)


# ----------------------------------------------------------------------
# Factory helpers for the variable shapes used by the protocols
# ----------------------------------------------------------------------
def int_variable(
    name: str,
    low: int,
    high: Callable[[RootedNetwork, int], int] | int,
    initial: InitialFn | int = 0,
    description: str = "",
) -> VariableSpec:
    """An integer variable ranging over ``low .. high`` (inclusive).

    ``high`` may be a constant or a function of ``(network, node)`` -- e.g.
    node names range over ``0..N-1`` where ``N`` is the network size.
    """

    def high_value(network: RootedNetwork, node: int) -> int:
        return high(network, node) if callable(high) else high

    def initial_value(network: RootedNetwork, node: int) -> int:
        return initial(network, node) if callable(initial) else initial

    def random_value(network: RootedNetwork, node: int, rng: random.Random) -> int:
        return rng.randint(low, max(low, high_value(network, node)))

    def bit_cost(network: RootedNetwork, node: int) -> int:
        return bits_for_values(high_value(network, node) - low + 1)

    return VariableSpec(name, initial_value, random_value, bit_cost, description)


def enum_variable(
    name: str,
    values: Sequence[Any],
    initial: Any = None,
    description: str = "",
) -> VariableSpec:
    """A variable taking one of a fixed, small set of symbolic values."""
    values = tuple(values)
    if not values:
        raise ValueError("enum_variable needs at least one value")
    default = values[0] if initial is None else initial

    return VariableSpec(
        name,
        lambda network, node: default,
        lambda network, node, rng: rng.choice(values),
        lambda network, node: bits_for_values(len(values)),
        description,
    )


def pointer_variable(
    name: str,
    allow_none: bool = True,
    initial: InitialFn | None = None,
    description: str = "",
) -> VariableSpec:
    """A pointer to one of the node's neighbors (or ``None`` when allowed).

    Used for parent (``A_p``) and descendant (``D_p``) pointers.  Storage cost
    is ``log(Delta_p + 1)`` bits.
    """

    def initial_value(network: RootedNetwork, node: int) -> Any:
        if initial is not None:
            return initial(network, node)
        return None if allow_none else network.neighbors(node)[0]

    def random_value(network: RootedNetwork, node: int, rng: random.Random) -> Any:
        choices: list[Any] = list(network.neighbors(node))
        if allow_none:
            choices.append(None)
        return rng.choice(choices)

    def bit_cost(network: RootedNetwork, node: int) -> int:
        return bits_for_values(network.degree(node) + (1 if allow_none else 0))

    return VariableSpec(name, initial_value, random_value, bit_cost, description)


def map_variable(
    name: str,
    value_low: int,
    value_high: Callable[[RootedNetwork, int], int] | int,
    initial_value: int = 0,
    description: str = "",
) -> VariableSpec:
    """A per-neighbor map ``neighbor -> integer`` (e.g. edge labels ``pi_p``).

    Storage cost is ``Delta_p * log(range)`` bits, which is what drives the
    O(Delta * log N) space bound of both orientation protocols.
    """

    def high_value(network: RootedNetwork, node: int) -> int:
        return value_high(network, node) if callable(value_high) else value_high

    def initial(network: RootedNetwork, node: int) -> dict[int, int]:
        return {neighbor: initial_value for neighbor in network.neighbors(node)}

    def random_value(network: RootedNetwork, node: int, rng: random.Random) -> dict[int, int]:
        high = max(value_low, high_value(network, node))
        return {
            neighbor: rng.randint(value_low, high) for neighbor in network.neighbors(node)
        }

    def bit_cost(network: RootedNetwork, node: int) -> int:
        per_entry = bits_for_values(high_value(network, node) - value_low + 1)
        return network.degree(node) * per_entry

    return VariableSpec(name, initial, random_value, bit_cost, description)


__all__ = [
    "VariableSpec",
    "bits_for_values",
    "int_variable",
    "enum_variable",
    "pointer_variable",
    "map_variable",
]
