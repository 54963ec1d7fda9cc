"""Execute scenarios against any protocol/daemon/topology combination.

:class:`ScenarioRunner` wraps the existing
:class:`~repro.runtime.scheduler.Scheduler`: it first lets the protocol
stabilize from an arbitrary configuration, then walks the scenario's timed
events -- run the inter-event window (counting closure violations), apply the
event, measure the disturbance it caused, and time the re-stabilization --
and returns a :class:`~repro.analysis.recovery.ScenarioReport` with one
:class:`~repro.analysis.recovery.EventRecovery` per event.

A corruption burst is one event kind among crash/rejoin, link dynamics and
daemon switches, and the recovery bookkeeping lives in
:mod:`repro.analysis.recovery` instead of each experiment loop.
"""

from __future__ import annotations

import random

from typing import Sequence

from repro.analysis.convergence import closure_window, step_budget
from repro.analysis.recovery import EventRecovery, ScenarioReport, disturbed_nodes
from repro.core.specification import VAR_EDGE_LABELS, VAR_NAME
from repro.graphs.network import RootedNetwork
from repro.obs.instrument import Instrumentation
from repro.runtime.daemon import Daemon
from repro.runtime.observers import Observer, dispatch_safely
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.scenarios.scenario import Scenario

#: The variables the orientation specification is stated over; disturbance is
#: measured against these when the protocol declares them.
ORIENTATION_VARIABLES = (VAR_NAME, VAR_EDGE_LABELS)


class ScenarioRunner:
    """Drives one scenario execution and reports per-event recovery metrics.

    Parameters
    ----------
    network / protocol / daemon / seed:
        The cell under test, exactly as a stabilization run would take them.
    scenario:
        The declarative event schedule to inflict.
    phase_budget:
        Step budget for the initial stabilization and for each recovery
        (default: :func:`~repro.analysis.convergence.step_budget`, the
        stabilization harness's bound).  Every stabilization is *confirmed*
        over :func:`~repro.analysis.convergence.closure_window` further steps,
        so a transiently satisfied predicate is not reported as a recovery.
        That is one legitimate check more than the harness asks for (it
        counts the check that opens the streak, this runner does not); it
        is kept because changing it would change every stored scenario row.
    observers:
        :class:`~repro.runtime.observers.Observer` instances.  They receive
        the scheduler's step/round notifications, ``on_event`` with each
        event's :class:`~repro.analysis.recovery.EventRecovery` the moment its
        recovery phase ends, and ``on_converged`` with the final
        :class:`~repro.analysis.recovery.ScenarioReport` when the whole
        scenario recovered.
    instrumentation:
        Forwarded to the scheduler: the whole scenario execution -- initial
        stabilization, event windows, recoveries -- accumulates into one
        :class:`~repro.obs.Instrumentation` registry.
    """

    def __init__(
        self,
        network: RootedNetwork,
        protocol: Protocol,
        scenario: Scenario,
        daemon: Daemon | None = None,
        seed: int | None = None,
        phase_budget: int | None = None,
        observers: Sequence[Observer] = (),
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.scenario = scenario
        self.daemon = daemon
        self.seed = seed
        self.phase_budget = phase_budget if phase_budget is not None else step_budget(network)
        self.confirm_steps = closure_window(network)
        #: What disturbance is measured over: the orientation variables
        #: ``no_eta`` / ``no_pi`` when the protocol declares them, else
        #: every variable (``None``).
        declared = protocol.variable_names(network, network.root)
        self.watch_variables = (
            ORIENTATION_VARIABLES
            if all(name in declared for name in ORIENTATION_VARIABLES)
            else None
        )
        # A list, not a tuple: failure isolation disables (removes) an
        # observer that raises, here exactly as inside the scheduler.
        self.observers = list(observers)
        self.instrumentation = instrumentation

    def run(self) -> ScenarioReport:
        """Execute the scenario once and return the full recovery report."""
        rng = random.Random(self.seed)
        scheduler = Scheduler(
            self.network,
            self.protocol,
            daemon=self.daemon,
            rng=random.Random(rng.randrange(1 << 30)),
            observers=self.observers,
            instrumentation=self.instrumentation,
        )
        return self._run(scheduler, rng)

    def _run(self, scheduler: Scheduler, rng: random.Random) -> ScenarioReport:
        """Stabilize ``scheduler`` (any scheduler class, such as the reference
        interpreter), then inflict every event, drawing from ``rng``."""
        configured_daemon = scheduler.daemon.name
        initial = scheduler.run_until_legitimate(
            max_steps=scheduler.steps_executed + self.phase_budget,
            confirm_steps=self.confirm_steps,
        )
        recoveries: list[EventRecovery] = []
        # Closure is only checkable when the previous phase actually
        # re-stabilized; after a failed recovery the system is already
        # illegitimate and counting those steps would misattribute a
        # convergence failure as a closure failure.
        stabilized = initial.converged

        for index, timed in enumerate(self.scenario.events):
            # Inter-event window: the system should *stay* legitimate (closure).
            violations = 0
            for _ in range(timed.delay_steps):
                if scheduler.step() is None:
                    break
                if stabilized and not scheduler.legitimate():
                    violations += 1

            before = scheduler.configuration.copy()
            outcome = timed.event.apply(scheduler, rng)
            disturbed = disturbed_nodes(
                before, scheduler.configuration, self.watch_variables
            )
            broke = not scheduler.legitimate()

            start_steps = scheduler.steps_executed
            start_rounds = scheduler.rounds_completed
            recovery = scheduler.run_until_legitimate(
                max_steps=start_steps + self.phase_budget,
                confirm_steps=self.confirm_steps,
            )
            recovered = recovery.converged
            stabilized = recovered
            record = EventRecovery(
                index=index,
                kind=outcome.kind,
                description=outcome.description,
                applied=outcome.applied,
                disturbed=len(disturbed),
                disturbed_fraction=len(disturbed) / scheduler.network.n,
                broke_legitimacy=broke,
                recovered=recovered,
                recovery_steps=(
                    recovery.first_legitimate_step - start_steps
                    if recovered and recovery.first_legitimate_step is not None
                    else None
                ),
                recovery_rounds=(
                    recovery.first_legitimate_round - start_rounds
                    if recovered and recovery.first_legitimate_round is not None
                    else None
                ),
                closure_violations=violations,
                deadlocked=recovery.terminated and not recovered,
            )
            recoveries.append(record)
            dispatch_safely(self.observers, "on_event", self, record)

        report = ScenarioReport(
            scenario=self.scenario.name,
            protocol=self.protocol.name,
            network=scheduler.network.name,
            n=scheduler.network.n,
            edges=scheduler.network.num_edges(),
            daemon=configured_daemon,
            seed=self.seed if self.seed is not None else -1,
            initial_converged=initial.converged,
            initial_steps=initial.first_legitimate_step,
            initial_rounds=initial.first_legitimate_round,
            events=tuple(recoveries),
            total_steps=scheduler.steps_executed,
            total_rounds=scheduler.rounds_completed,
        )
        if report.converged:
            dispatch_safely(self.observers, "on_converged", self, report)
        return report


def run_scenario(
    network: RootedNetwork,
    protocol: Protocol,
    scenario: Scenario,
    daemon: Daemon | None = None,
    seed: int | None = None,
    **kwargs: object,
) -> ScenarioReport:
    """Convenience wrapper: ``ScenarioRunner(...).run()``."""
    return ScenarioRunner(
        network, protocol, scenario, daemon=daemon, seed=seed, **kwargs
    ).run()


__all__ = ["ORIENTATION_VARIABLES", "ScenarioRunner", "run_scenario"]
