"""Every engine behind repro.api.run(), each watched through observers."""

from __future__ import annotations

import json

import pytest

from repro.analysis.convergence import StabilizationSample
from repro.analysis.recovery import EventRecovery, ScenarioReport
from repro.api import (
    CallbackObserver,
    Engine,
    MetricsObserver,
    NetworkSpec,
    RecoveryObserver,
    RunSpec,
    engine_names,
    get_engine,
    register_engine,
    run,
)
from repro.msgpass.simulator import SimulationResult


def test_all_three_engines_are_reachable_through_run():
    assert set(engine_names()) >= {"scheduler", "scenario", "msgpass"}
    specs = {
        "scheduler": RunSpec(network=NetworkSpec(family="ring", size=6, seed=1), seed=2),
        "scenario": RunSpec(
            engine="scenario",
            scenario="single_burst",
            network=NetworkSpec(size=8, seed=2),
            seed=3,
        ),
        "msgpass": RunSpec(engine="msgpass", network=NetworkSpec(family="complete", size=6)),
    }
    for engine, spec in specs.items():
        result = run(spec)
        assert result.engine == engine
        assert result.spec is spec
        assert result.converged
        json.dumps(result.row)  # rows stay JSON-serializable
        payload = result.to_dict()
        assert payload["spec_hash"] == spec.canonical_hash


def test_runs_are_deterministic_in_the_spec():
    spec = RunSpec(network=NetworkSpec(family="random_connected", size=8, seed=3), seed=5)
    assert run(spec).row == run(spec).row


def test_unknown_engine_and_duplicate_registration_are_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        get_engine("quantum")

    class Dummy(Engine):
        name = "scheduler"

        def execute(self, spec, observers=()):  # pragma: no cover - never runs
            raise AssertionError

    with pytest.raises(ValueError, match="already registered"):
        register_engine(Dummy())


# ----------------------------------------------------------------------
# One observer test per engine (plus the built-in metrics/trace observers)
# ----------------------------------------------------------------------
def test_scheduler_engine_notifies_step_round_and_convergence():
    steps, rounds, converged = [], [], []
    watcher = CallbackObserver(
        on_step=lambda source, record: steps.append(record),
        on_round=lambda source, index: rounds.append(index),
        on_converged=lambda source, result: converged.append(result),
    )
    moves = []
    collector = CallbackObserver(on_step=lambda source, record: moves.extend(record.moves))
    spec = RunSpec(network=NetworkSpec(family="ring", size=6, seed=1), seed=4)
    result = run(spec, observers=[watcher, collector])
    assert result.converged
    assert len(steps) == result.row["total_steps"]
    assert steps[0].moves and steps[0].moves[0].action  # rich move records
    assert rounds and rounds[-1] == result.row["total_rounds"]
    assert len(converged) == 1 and isinstance(converged[0], StabilizationSample)
    assert converged[0].as_row() == result.row
    # A second observer on the same stream saw every move of every step.
    assert len(moves) == sum(len(record.moves) for record in steps)


def test_scheduler_engine_feeds_external_metrics_observer():
    metrics = MetricsObserver()
    spec = RunSpec(network=NetworkSpec(family="ring", size=5, seed=2), seed=1)
    result = run(spec, observers=[metrics])
    assert metrics.metrics.steps == result.row["total_steps"]
    assert metrics.metrics.moves > 0
    assert metrics.metrics.rounds == result.row["total_rounds"]


def test_scenario_engine_notifies_events_and_convergence():
    recovery = RecoveryObserver()
    events_seen = []
    watcher = CallbackObserver(on_event=lambda source, event: events_seen.append(event))
    spec = RunSpec(
        engine="scenario",
        scenario="periodic_burst",
        network=NetworkSpec(size=8, seed=3),
        seed=6,
    )
    result = run(spec, observers=[recovery, watcher])
    assert result.converged
    assert len(recovery.events) == result.row["events"] == len(events_seen)
    assert all(isinstance(event, EventRecovery) for event in recovery.events)
    assert recovery.converged_runs == 1
    aggregated = recovery.aggregate()
    assert aggregated and aggregated[0]["kind"] == "corruption"
    assert isinstance(result.report, ScenarioReport)


def test_msgpass_engine_notifies_rounds_and_quiescence():
    rounds, results = [], []
    watcher = CallbackObserver(
        on_round=lambda source, index: rounds.append(index),
        on_converged=lambda source, result: results.append(result),
    )
    spec = RunSpec(
        engine="msgpass",
        workload="traversal",
        network=NetworkSpec(family="complete", size=6),
    )
    result = run(spec, observers=[watcher])
    assert result.converged
    # Two simulations per msgpass run: unoriented and oriented.
    assert len(results) == 2
    assert all(isinstance(item, SimulationResult) for item in results)
    assert len(rounds) == result.row["rounds_unoriented"] + result.row["rounds_oriented"]
    # on_round carries the completed-round *count* (same semantics as the
    # scheduler engine), so the last notification of each simulation equals
    # its reported total.
    assert rounds[result.row["rounds_unoriented"] - 1] == result.row["rounds_unoriented"]
    assert rounds[-1] == result.row["rounds_oriented"]
    assert result.row["messages_oriented"] == 2 * (result.row["n"] - 1)


def test_msgpass_election_workload_runs_on_rings():
    spec = RunSpec(
        engine="msgpass", workload="election", network=NetworkSpec(family="ring", size=8)
    )
    row = run(spec).row
    assert row["converged"]
    assert row["messages_oriented"] < row["messages_unoriented"]
    assert row["message_savings"] > 1.0
