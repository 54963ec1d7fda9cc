"""The one legitimacy pass per check, against the two queries it replaces.

``Scheduler.run_until_legitimate`` answers each check with one internal pass
that yields the substrate's verdict and the whole protocol's together.  These
tests hold that pair, after every step, to the two public queries
``legitimate(substrate)`` and ``legitimate()`` asked of a second scheduler in
lockstep and to the independent reference interpreter's answers (also where
only the substrate is upset), and hold the loop's results to the reference's
own loop: the normal stop after the closure window, a budget that runs out
mid-confirmation, and a silent run.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.convergence import closure_window, protocol_stack
from repro.graphs import generators
from repro.obs import Instrumentation
from repro.runtime.daemon import make_daemon
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler

STACKS = ("dftno", "stno-bfs", "stno-dfs")
DAEMONS = ("distributed", "central", "synchronous")
SEEDS = (1, 2, 3)
#: Steps each lockstep run takes at most: past convergence on these networks.
LOCKSTEP_STEPS = 400
#: The walk counters the pass must not raise above the two queries'.
WALK_COUNTERS = ("guards_evaluated", "guard_calls", "rule_calls", "legitimacy_nodes_checked")


def _network(seed: int):
    return generators.random_connected(9, seed=seed)


def _core(core, stack: str, daemon: str, seed: int, network, **kwargs):
    protocol, substrate = protocol_stack(stack)
    return core(network, protocol, daemon=make_daemon(daemon), seed=seed, **kwargs), substrate


def _pass(scheduler: Scheduler, substrate) -> tuple[bool, bool]:
    """The pass ``run_until_legitimate`` makes at each check."""
    group = scheduler._group(substrate)
    rest = tuple(slot for slot in scheduler._group(None) if slot not in group)
    return scheduler._legitimacy(group, rest)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("stack", STACKS)
def test_the_pass_answers_as_both_queries_and_the_reference(stack, daemon, seed):
    network = _network(seed)
    fused, substrate = _core(
        Scheduler, stack, daemon, seed, network, instrumentation=Instrumentation()
    )
    split, split_substrate = _core(
        Scheduler, stack, daemon, seed, network, instrumentation=Instrumentation()
    )
    reference, reference_substrate = _core(ReferenceScheduler, stack, daemon, seed, network)
    seen = set()
    for _ in range(LOCKSTEP_STEPS):
        pair = _pass(fused, substrate)
        assert pair == (split.legitimate(split_substrate), split.legitimate()), fused.steps_executed
        assert pair == (
            reference.legitimate(reference_substrate), reference.legitimate()
        ), fused.steps_executed
        seen.add(pair)
        records = fused.step(), split.step(), reference.step()
        if records[0] is None:
            assert records == (None, None, None)
            break
        assert records[0].executed == records[1].executed == records[2].executed
    assert (True, True) in seen
    counters = fused.instrumentation.counters, split.instrumentation.counters
    for name in WALK_COUNTERS:
        assert counters[0].get(name, 0) <= counters[1].get(name, 0), name


@pytest.mark.parametrize("node", (0, 4))
@pytest.mark.parametrize("stack", STACKS)
def test_an_upset_substrate_under_legitimate_upper_layers_fails_both_verdicts(stack, node):
    # The upper layers stay legitimate and the substrate's violator is found
    # only by the frontier walk, past the known-violator exit: the whole
    # protocol's verdict must still include the substrate's.
    network = _network(1)
    settled, substrate = _core(Scheduler, stack, "central", 1, network)
    assert settled.run_until_legitimate(max_steps=20_000, substrate=substrate).converged
    rng = random.Random(node)
    upper = [leaf for leaf in settled.protocol.layers() if leaf not in substrate.layers()]
    configuration = settled.configuration.copy()
    while substrate.legitimate(network, configuration):
        for name, value in substrate.random_state(network, node, rng).items():
            configuration.set(node, name, value)
    assert all(leaf.legitimate(network, configuration) for leaf in upper)
    for core in (Scheduler, ReferenceScheduler):
        scheduler, layer = _core(core, stack, "central", 1, network, configuration=configuration)
        if core is Scheduler:
            assert _pass(scheduler, layer) == (False, False)
        assert (scheduler.legitimate(layer), scheduler.legitimate()) == (False, False)


def _results_agree(result, expected) -> None:
    fields = (
        "steps", "rounds", "moves", "converged", "terminated",
        "first_legitimate_step", "first_legitimate_round", "substrate_step", "substrate_round",
    )
    assert {name: getattr(result, name) for name in fields} == {
        name: getattr(expected, name) for name in fields
    }
    assert result.configuration == expected.configuration


def _both(stack: str, daemon: str, seed: int, network, **run):
    results = []
    for core in (Scheduler, ReferenceScheduler):
        scheduler, substrate = _core(core, stack, daemon, seed, network)
        results.append(scheduler.run_until_legitimate(substrate=substrate, **run))
    return results


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("stack", STACKS)
def test_the_loop_stops_after_the_closure_window_as_the_reference(stack, daemon, seed):
    network = _network(seed)
    result, expected = _both(
        stack, daemon, seed, network, max_steps=20_000, confirm_steps=closure_window(network) - 1
    )
    _results_agree(result, expected)
    assert result.converged


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("daemon", DAEMONS)
def test_the_budget_runs_out_mid_confirmation_as_in_the_reference(daemon, seed):
    network = _network(seed)
    window = closure_window(network)
    settled, _ = _both("dftno", daemon, seed, network, max_steps=20_000, confirm_steps=window - 1)
    budget = settled.first_legitimate_step + window // 2
    result, expected = _both(
        "dftno", daemon, seed, network, max_steps=budget, confirm_steps=window - 1
    )
    _results_agree(result, expected)
    assert result.steps == budget
    assert result.converged and not result.terminated


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("daemon", DAEMONS)
def test_a_silent_run_stops_terminated_as_in_the_reference(daemon, seed):
    # STNO on the BFS tree falls silent; the DFS tree's token never stops.
    network = _network(seed)
    result, expected = _both(
        "stno-bfs", daemon, seed, network, max_steps=20_000, confirm_steps=10**6
    )
    _results_agree(result, expected)
    assert result.terminated and result.converged
