"""Stabilization-time measurements for the layered orientation protocols.

Both theorems are phrased relative to the underlying layer: DFTNO takes O(n)
steps *after the token circulation stabilizes* (Section 3.2.3) and STNO takes
O(h) steps *after the spanning tree stabilizes* (Section 4.2.3).  The
measurement therefore tracks two predicates along one execution:

* the moment the *substrate* legitimacy predicate starts holding for good, and
* the moment the full orientation specification (``SP1 /\\ SP2``) starts
  holding for good,

and reports both absolute values and their difference (the quantity the
theorems bound), in steps and in asynchronous rounds, from arbitrary initial
configurations.  The run itself is
:meth:`~repro.runtime.scheduler.Scheduler.run_until_legitimate`;
:func:`step_budget` and :func:`closure_window` are the one definition of how
long it may take and how long legitimacy must hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict
from typing import Sequence

from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.errors import ConvergenceError
from repro.graphs.network import RootedNetwork
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.obs.instrument import Instrumentation
from repro.runtime.observers import Observer
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler


def step_budget(network: RootedNetwork) -> int:
    """Default step budget of a stabilization phase: ``500 (n + m) + 3000``."""
    return 500 * (network.n + network.num_edges()) + 3_000


def closure_window(network: RootedNetwork) -> int:
    """Consecutive legitimate checks that count as stabilized: ``3 (n + m) + 10``.

    At least one full token wave (O(n + m) moves), so that a transiently
    satisfied specification is not mistaken for the stabilized one.
    """
    return 3 * (network.n + network.num_edges()) + 10


def protocol_stack(name: str) -> tuple[Protocol, Protocol]:
    """The protocol stack behind a normalized protocol name, and its substrate.

    The single place the ``"dftno"`` / ``"stno-<tree>"`` naming is decoded.
    The substrate is the layer the theorem's bound is stated after: the token
    circulation under DFTNO, the spanning tree under STNO.
    """
    if name == "dftno":
        protocol = build_dftno()
        return protocol, protocol.base
    protocol = build_stno(tree=name.split("-", 1)[1])
    return protocol, protocol.layers()[-1].tree_layer


@dataclass(frozen=True)
class StabilizationSample:
    """One measured execution of a layered protocol."""

    protocol: str
    network: str
    n: int
    edges: int
    parameter: int
    daemon: str
    seed: int
    converged: bool
    total_steps: int
    total_rounds: int
    substrate_steps: int | None
    substrate_rounds: int | None
    full_steps: int | None
    full_rounds: int | None

    @property
    def overlay_steps(self) -> int | None:
        """Steps the orientation layer needed after the substrate stabilized."""
        if self.full_steps is None or self.substrate_steps is None:
            return None
        return max(0, self.full_steps - self.substrate_steps)

    @property
    def overlay_rounds(self) -> int | None:
        """Rounds the orientation layer needed after the substrate stabilized."""
        if self.full_rounds is None or self.substrate_rounds is None:
            return None
        return max(0, self.full_rounds - self.substrate_rounds)

    def as_row(self) -> dict[str, object]:
        """Flat dictionary (including the derived overlay columns) for tables."""
        row = asdict(self)
        row["overlay_steps"] = self.overlay_steps
        row["overlay_rounds"] = self.overlay_rounds
        return row


def presettled_substrate_configuration(
    network: RootedNetwork,
    full_protocol: Protocol,
    substrate_protocol: Protocol,
    rng: random.Random,
    max_steps: int = 200_000,
) -> Configuration:
    """An arbitrary configuration of ``full_protocol`` whose substrate part is stabilized.

    The theorems of the thesis bound the orientation layers' stabilization time
    *after* the underlying protocol has stabilized; this helper produces the
    corresponding starting point: the substrate's variables carry a legitimate
    state (obtained by running the substrate alone), while the orientation
    layer's variables are arbitrary.
    """
    substrate_scheduler = Scheduler(
        network,
        substrate_protocol,
        daemon=DistributedDaemon(),
        configuration=substrate_protocol.initial_configuration(network),
        rng=random.Random(rng.randrange(1 << 30)),
    )
    substrate_result = substrate_scheduler.run_until_legitimate(max_steps=max_steps)
    if not substrate_result.converged:
        raise ConvergenceError(
            f"substrate {substrate_protocol.name!r} did not stabilize on {network.name}"
        )
    configuration = full_protocol.random_configuration(network, rng=rng)
    for node in network.nodes():
        for variable in substrate_protocol.variable_names(network, node):
            configuration.set(node, variable, substrate_result.configuration.get(node, variable))
    return configuration


def measure_stabilization(
    network: RootedNetwork,
    protocol: str,
    daemon: Daemon | None = None,
    seed: int | None = None,
    max_steps: int | None = None,
    parameter: int | None = None,
    after_substrate: bool = False,
    observers: Sequence[Observer] = (),
    incremental: bool = True,
    check_guard_locality: bool = False,
    instrumentation: Instrumentation | None = None,
) -> StabilizationSample:
    """Run the ``protocol`` stack from an arbitrary configuration and time two predicates.

    ``protocol`` is a normalized protocol name (``"dftno"``, ``"stno-bfs"``,
    ``"stno-dfs"``).  The legitimacy of its substrate (see
    :func:`protocol_stack`) and of the whole stack are checked before the
    first step and after every step; the recorded time is the first step
    (and round) after which each predicate held continuously until the end
    of the run.  The run ends once the full predicate has held for
    :func:`closure_window` consecutive checks, when the protocol falls
    silent, or after ``max_steps`` (default :func:`step_budget`) steps.

    With ``after_substrate=True`` the run starts from a configuration whose
    substrate is already legitimate while the orientation variables are
    arbitrary -- the phrasing of Theorems 3.2.3 and 4.2.1/4.2.3.
    ``observers`` receive every step/round notification plus
    ``on_converged`` with the finished sample.  ``incremental=False`` forces
    the scheduler's historical full guard scan and global legitimacy
    predicates (the ``scheduler-fullscan`` differential-testing path).
    ``check_guard_locality=True`` runs every guard on the read-tracking view
    (:class:`~repro.errors.GuardLocalityError` on violation); ``False`` leaves
    the choice to the ``REPRO_DEBUG_GUARDS`` environment variable.
    """
    stack, substrate = protocol_stack(protocol)
    daemon = daemon or DistributedDaemon()
    configuration = None
    if after_substrate:
        configuration = presettled_substrate_configuration(
            network, stack, substrate, random.Random(seed)
        )
    scheduler = Scheduler(
        network,
        stack,
        daemon=daemon,
        rng=random.Random(seed),
        configuration=configuration,
        observers=observers,
        incremental=incremental,
        check_guard_locality=check_guard_locality or None,
        instrumentation=instrumentation,
    )
    result = scheduler.run_until_legitimate(
        max_steps=max_steps if max_steps is not None else step_budget(network),
        confirm_steps=closure_window(network) - 1,
        substrate=substrate,
    )
    sample = StabilizationSample(
        protocol=stack.name,
        network=network.name,
        n=network.n,
        edges=network.num_edges(),
        parameter=parameter if parameter is not None else network.n,
        daemon=daemon.name,
        seed=seed if seed is not None else -1,
        converged=result.converged,
        total_steps=result.steps,
        total_rounds=result.rounds,
        substrate_steps=result.substrate_step,
        substrate_rounds=result.substrate_round,
        full_steps=result.first_legitimate_step,
        full_rounds=result.first_legitimate_round,
    )
    if result.converged:
        scheduler.notify_converged(sample)
    return sample


__all__ = [
    "StabilizationSample",
    "closure_window",
    "measure_stabilization",
    "presettled_substrate_configuration",
    "protocol_stack",
    "step_budget",
]
