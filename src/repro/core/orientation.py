"""High-level API: orient a network with DFTNO or STNO and get the result back.

This is the entry point downstream users call.  It wires together a network,
the chosen protocol stack, a daemon, and a fault model (arbitrary initial
states by default -- the self-stabilization setting), runs the scheduler until
the orientation specification holds, and returns both the extracted
:class:`~repro.core.chordal.ChordalOrientation` and the full run statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.chordal import ChordalOrientation
from repro.core.dftno import build_dftno
from repro.core.specification import OrientationSpecification
from repro.core.stno import build_stno
from repro.errors import ConvergenceError
from repro.graphs.network import RootedNetwork
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import RunResult, Scheduler
from repro.substrates.spanning_tree import SpanningTreeProtocol


@dataclass
class OrientationResult:
    """Everything an orientation run produced.

    Attributes
    ----------
    orientation:
        The extracted chordal orientation (validated against the network).
    run:
        The scheduler's :class:`~repro.runtime.scheduler.RunResult` (steps,
        moves, rounds, stabilization point, final configuration).
    protocol:
        The composed protocol that was executed (substrate + orientation
        layer), e.g. for space accounting.
    network:
        The network that was oriented.
    """

    orientation: ChordalOrientation
    run: RunResult
    protocol: Protocol
    network: RootedNetwork

    @property
    def stabilization_steps(self) -> int | None:
        """Steps until the orientation specification held for good."""
        return self.run.first_legitimate_step

    @property
    def stabilization_rounds(self) -> int | None:
        """Asynchronous rounds until the orientation specification held for good."""
        return self.run.first_legitimate_round


def extract_orientation(
    network: RootedNetwork, configuration: Configuration, modulus: int | None = None
) -> ChordalOrientation:
    """Read the orientation variables out of a configuration (no validation)."""
    return OrientationSpecification(modulus=modulus).extract(network, configuration)


def _run(
    network: RootedNetwork,
    protocol: Protocol,
    daemon: Daemon | None,
    seed: int | None,
    from_arbitrary_state: bool,
    max_steps: int | None,
    confirm_steps: int,
    modulus: int | None = None,
) -> OrientationResult:
    rng = random.Random(seed)
    configuration = None if from_arbitrary_state else protocol.initial_configuration(network)
    if max_steps is None:
        # Generous default budget: both protocols stabilize within a handful of
        # waves, each of which costs O(n + m) moves.
        max_steps = 400 * (network.n + network.num_edges()) + 2_000
    scheduler = Scheduler(
        network,
        protocol,
        daemon=daemon or DistributedDaemon(),
        configuration=configuration,
        rng=rng,
    )
    # The orientation specification can hold transiently before the names have
    # settled to their final values (a token wave in flight may still rename a
    # processor).  Confirming legitimacy over at least one full wave --
    # O(n + m) moves -- guarantees the returned orientation is the settled one.
    settle_window = 4 * (network.n + network.num_edges()) + 8
    run = scheduler.run_until_legitimate(
        max_steps=max_steps, confirm_steps=max(confirm_steps, settle_window)
    )
    if not run.converged:
        raise ConvergenceError(
            f"{protocol.name} did not orient {network.name} within {max_steps} steps",
            steps=run.steps,
        )
    orientation = extract_orientation(network, run.configuration, modulus=modulus)
    orientation.require_valid(network)
    return OrientationResult(orientation=orientation, run=run, protocol=protocol, network=network)


def orient_with_dftno(
    network: RootedNetwork,
    daemon: Daemon | None = None,
    seed: int | None = None,
    modulus: int | None = None,
    from_arbitrary_state: bool = True,
    max_steps: int | None = None,
    confirm_steps: int = 0,
) -> OrientationResult:
    """Orient ``network`` with DFTNO (token-circulation based, Chapter 3).

    Parameters
    ----------
    network:
        The rooted network to orient.
    daemon:
        Scheduling adversary (default: the paper's distributed daemon).
    seed:
        Randomness for the daemon and, when ``from_arbitrary_state`` is true,
        for the arbitrary initial configuration.
    modulus:
        Chordal modulus ``N`` (default: the network size).
    from_arbitrary_state:
        Start from an arbitrary configuration (the self-stabilization setting)
        or from the protocol's clean initial state.
    max_steps:
        Step budget before :class:`~repro.errors.ConvergenceError` is raised.
    confirm_steps:
        Extra steps executed after stabilization to check closure empirically.
    """
    protocol = build_dftno(modulus=modulus)
    return _run(
        network,
        protocol,
        daemon,
        seed,
        from_arbitrary_state,
        max_steps,
        confirm_steps,
        modulus=modulus,
    )


def orient_with_stno(
    network: RootedNetwork,
    tree: str | SpanningTreeProtocol = "bfs",
    daemon: Daemon | None = None,
    seed: int | None = None,
    modulus: int | None = None,
    from_arbitrary_state: bool = True,
    max_steps: int | None = None,
    confirm_steps: int = 0,
) -> OrientationResult:
    """Orient ``network`` with STNO (spanning-tree based, Chapter 4).

    ``tree`` selects the substrate: ``"bfs"`` (default), ``"dfs"`` (the DFS
    tree maintained by the token circulation), or any ready
    :class:`~repro.substrates.spanning_tree.SpanningTreeProtocol` instance.
    The remaining parameters match :func:`orient_with_dftno`.
    """
    protocol = build_stno(tree=tree, modulus=modulus)
    return _run(
        network,
        protocol,
        daemon,
        seed,
        from_arbitrary_state,
        max_steps,
        confirm_steps,
        modulus=modulus,
    )


__all__ = [
    "OrientationResult",
    "orient_with_dftno",
    "orient_with_stno",
    "extract_orientation",
]
