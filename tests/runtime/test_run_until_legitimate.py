"""``Scheduler.run_until_legitimate``: the one run-until-stable loop.

The loop is checked against a reference written with nothing but
``step()`` and the layers' global ``legitimate`` predicates: record every
check of a run, then read off where the run must stop and where the final
legitimate streaks of the stack and of its substrate began.
"""

from __future__ import annotations

import pytest

from repro.analysis.convergence import protocol_stack
from repro.api.spec import DAEMONS, PROTOCOLS
from repro.graphs import generators
from repro.runtime.daemon import SynchronousDaemon, make_daemon
from repro.runtime.scheduler import Scheduler
from tests.runtime.test_scheduler import (
    CountdownProtocol,
    MaxPropagation,
    TransientLegitimacyProtocol,
)

NETWORKS = {
    "random_connected": lambda: generators.random_connected(8, seed=3),
    "random_tree": lambda: generators.random_tree(8, seed=4),
}


def _streak_start(checks, index, column):
    """Step/round where the streak of true ``column`` values ending at ``index`` began."""
    if not checks[index][column]:
        return None, None
    start = index
    while start > 0 and checks[start - 1][column]:
        start -= 1
    return checks[start]["step"], checks[start]["round"]


def reference_run(scheduler, substrate, max_steps, confirm_steps):
    """What the loop must report, from ``step()`` and global predicates only."""
    network = scheduler.network
    checks = []
    terminated = False
    while True:
        checks.append(
            {
                "step": scheduler.steps_executed,
                "round": scheduler.rounds_completed,
                "substrate": substrate.legitimate(network, scheduler.configuration),
                "full": scheduler.protocol.legitimate(network, scheduler.configuration),
            }
        )
        recent = checks[-(confirm_steps + 1):]
        if len(recent) == confirm_steps + 1 and all(check["full"] for check in recent):
            break
        if scheduler.steps_executed >= max_steps:
            break
        if scheduler.step() is None:
            terminated = True
            break
    last = len(checks) - 1
    return {
        "steps": scheduler.steps_executed,
        "terminated": terminated,
        "converged": checks[last]["full"],
        "first_legitimate": _streak_start(checks, last, "full"),
        "substrate": _streak_start(checks, last, "substrate"),
    }


@pytest.mark.parametrize("confirm_steps", [0, 25])
@pytest.mark.parametrize("family", sorted(NETWORKS))
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("stack", PROTOCOLS)
def test_loop_matches_the_step_and_predicate_reference(stack, daemon, family, confirm_steps):
    network = NETWORKS[family]()
    max_steps = 4_000

    def scheduler():
        protocol, substrate = protocol_stack(stack)
        return Scheduler(network, protocol, daemon=make_daemon(daemon), seed=13), substrate

    loop, substrate = scheduler()
    result = loop.run_until_legitimate(
        max_steps=max_steps, confirm_steps=confirm_steps, substrate=substrate
    )
    reference, reference_substrate = scheduler()
    expected = reference_run(reference, reference_substrate, max_steps, confirm_steps)

    assert result.steps == expected["steps"]
    assert result.terminated == expected["terminated"]
    assert result.converged == expected["converged"]
    assert (result.first_legitimate_step, result.first_legitimate_round) == expected["first_legitimate"]
    assert (result.substrate_step, result.substrate_round) == expected["substrate"]
    assert result.configuration == reference.configuration


def test_without_substrate_the_substrate_fields_stay_empty(small_random):
    result = Scheduler(small_random, MaxPropagation(), seed=2).run_until_legitimate(max_steps=500)
    assert result.converged
    assert result.substrate_step is None and result.substrate_round is None


def test_legitimate_at_the_start_takes_zero_steps(small_random):
    protocol = MaxPropagation()
    settled = Scheduler(small_random, protocol, seed=3).run_until_legitimate(max_steps=500)
    scheduler = Scheduler(small_random, protocol, configuration=settled.configuration, seed=3)
    result = scheduler.run_until_legitimate(max_steps=500, confirm_steps=0)
    assert result.steps == 0
    assert result.converged and not result.terminated
    assert result.first_legitimate_step == 0 and result.first_legitimate_round == 0


def test_a_silent_run_stops_terminated(small_ring):
    protocol = CountdownProtocol(start=3)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
    )
    result = scheduler.run_until_legitimate(max_steps=1_000, confirm_steps=50)
    assert result.terminated
    assert result.converged
    assert result.steps == 3 == result.first_legitimate_step


def test_the_budget_can_run_out_mid_confirmation(small_random):
    protocol, substrate = protocol_stack("dftno")
    settled = Scheduler(small_random, protocol, seed=5).run_until_legitimate(max_steps=20_000)
    assert settled.converged
    budget = settled.steps + 10
    scheduler = Scheduler(small_random, protocol, seed=5)
    result = scheduler.run_until_legitimate(max_steps=budget, confirm_steps=1_000, substrate=substrate)
    assert result.steps == budget
    assert result.converged and not result.terminated
    assert result.first_legitimate_step == settled.first_legitimate_step
    assert result.substrate_step is not None
    assert result.substrate_step <= result.first_legitimate_step


def test_a_substrate_streak_that_breaks_restarts(small_ring):
    # Substrate legitimacy that is not closed: it holds at step 2 only, so no
    # streak is live when the stack becomes legitimate at step 3.
    protocol = CountdownProtocol(start=3)
    scheduler = Scheduler(
        small_ring,
        protocol,
        daemon=SynchronousDaemon(),
        configuration=protocol.initial_configuration(small_ring),
        incremental=False,
    )
    result = scheduler.run_until_legitimate(
        max_steps=100, substrate=TransientLegitimacyProtocol(start=3)
    )
    assert result.converged and result.steps == 3 == result.first_legitimate_step
    assert result.substrate_step is None and result.substrate_round is None
