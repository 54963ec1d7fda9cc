"""Convergence telemetry: sampling, heat maps, decimation, API embedding."""

from __future__ import annotations

import json

import pytest

from repro.api import NetworkSpec, RunSpec, run
from repro.api.engines import build_protocol
from repro.graphs import generators
from repro.obs import telemetry
from repro.obs import (
    ConvergenceTelemetryObserver,
    enabled_trajectory,
    guard_heat_table,
)
from repro.runtime.daemon import make_daemon
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler
from repro.substrates.spanning_tree import BFSSpanningTree


def _observed_run(n: int = 12, seed: int = 7, stride: int = 4):
    network = generators.random_connected(n, seed=1)
    observer = ConvergenceTelemetryObserver(stride=stride)
    scheduler = Scheduler(
        network,
        BFSSpanningTree(),
        daemon=make_daemon("central"),
        seed=seed,
        observers=(observer,),
    )
    result = scheduler.run_until_legitimate(max_steps=8 * n * n)
    return observer, result


def test_samples_follow_the_stride_and_drain():
    observer, result = _observed_run(stride=4)
    assert result.converged
    snapshot = observer.snapshot()
    steps = [sample[0] for sample in snapshot["samples"]]
    assert steps[0] == 0
    assert all(step % 4 == 0 for step in steps)
    assert steps == sorted(steps)
    trajectory = enabled_trajectory(snapshot)
    assert trajectory, "scheduler runs must expose the enabled set"
    # A stabilizing run drains the enabled set: the last observation is
    # strictly below the first (and legitimacy flips to 1 by the end).
    assert trajectory[-1][1] < trajectory[0][1]
    legitimate_index = snapshot["columns"].index("legitimate")
    assert snapshot["samples"][0][legitimate_index] in (0, 1)
    # run_until_legitimate leaves the convergence notification to the
    # measurement harness; fired explicitly, it stamps the converged step.
    assert observer.converged_step is None
    assert snapshot["converged_step"] is None


def test_guard_heat_and_writes_accumulate_per_move():
    observer, _ = _observed_run()
    snapshot = observer.snapshot()
    assert snapshot["guard_heat"], "a converging run fires guards"
    for key, count in snapshot["guard_heat"].items():
        assert ":" in key and count > 0
    total_moves = sum(snapshot["guard_heat"].values())
    table = guard_heat_table(snapshot)
    assert [row["fires"] for row in table] == sorted(
        (row["fires"] for row in table), reverse=True
    )
    assert sum(row["fires"] for row in table) == total_moves
    assert len(guard_heat_table(snapshot, limit=2)) == 2
    # Writes-per-node keys are stringified for JSON stability.
    assert snapshot["writes_per_node"]
    assert all(isinstance(node, str) for node in snapshot["writes_per_node"])


def test_decimation_bounds_the_series(monkeypatch):
    monkeypatch.setattr(telemetry, "DEFAULT_MAX_SAMPLES", 8)
    observer, _ = _observed_run(n=16, stride=1)
    assert len(observer.samples) < 8
    assert observer.stride > 1, "decimation must double the stride"
    snapshot = observer.snapshot()
    assert snapshot["stride"] == observer.stride
    steps = [sample[0] for sample in snapshot["samples"]]
    assert steps == sorted(steps)


def test_snapshot_round_trips_byte_stable():
    observer, _ = _observed_run()
    snapshot = observer.snapshot()
    encoded = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    decoded = json.loads(encoded)
    assert decoded == snapshot
    assert json.dumps(decoded, sort_keys=True, separators=(",", ":")) == encoded


@pytest.mark.parametrize("core", (Scheduler, ReferenceScheduler), ids=("scheduler", "fullscan"))
@pytest.mark.parametrize("stack", ("dftno", "stno-bfs", "stno-dfs"))
def test_distance_counts_violating_nodes_until_legitimacy(stack, core):
    network = generators.random_connected(10, seed=3)
    observer = ConvergenceTelemetryObserver(stride=1)
    scheduler = core(network, build_protocol(stack), seed=5, observers=(observer,))
    result = scheduler.run_until_legitimate(max_steps=5_000, confirm_steps=20)
    assert result.converged
    columns = observer.snapshot()["columns"]
    step, legitimate, distance = (
        columns.index("step"), columns.index("legitimate"), columns.index("distance")
    )
    samples = observer.samples
    assert samples[0][distance] > 0
    assert all(
        (sample[distance] == 0) == (sample[legitimate] == 1) for sample in samples
    )
    assert all(
        sample[distance] == 0 for sample in samples if sample[step] >= result.first_legitimate_step
    )


def test_distance_is_none_for_a_source_without_violation_sets():
    # A source that holds a protocol, network and configuration but has no
    # legitimate() gets no answer: only the scheduler cores give one.
    network = generators.random_connected(8, seed=1)
    protocol = build_protocol("dftno")
    source = type(
        "Source",
        (),
        {
            "protocol": protocol,
            "network": network,
            "configuration": protocol.random_configuration(network, seed=2),
        },
    )()
    observer = ConvergenceTelemetryObserver(stride=1)
    observer._sample(source, type("Record", (), {"step": 0, "round": 0})())
    columns = observer.snapshot()["columns"]
    (sample,) = observer.samples
    assert sample[columns.index("legitimate")] is None
    assert sample[columns.index("distance")] is None


def test_api_run_embeds_telemetry_and_health():
    spec = RunSpec(
        engine="scheduler",
        protocol="dftno",
        network=NetworkSpec(family="random_connected", size=10, seed=3),
        daemon="distributed",
        seed=5,
    )
    bare = run(spec)
    assert "telemetry" not in bare.row and bare.telemetry is None
    assert "health" not in bare.row and bare.health is None

    monitored = run(spec, telemetry=8, health=True)
    assert monitored.row["telemetry"] is monitored.telemetry
    assert monitored.row["health"] is monitored.health
    assert monitored.telemetry["samples"]
    # The measurement harness fires the convergence notification.
    assert monitored.telemetry["converged_step"] is not None
    assert monitored.health["anomalies"] == []
    # The observers never perturb the measured execution.
    for key in ("overlay_steps", "total_steps", "converged"):
        if key in bare.row:
            assert monitored.row[key] == bare.row[key], key

    with pytest.raises(TypeError):
        run(spec, telemetry="yes")
    with pytest.raises(TypeError):
        run(spec, health=3.5)


def test_api_run_accepts_prebuilt_observers():
    spec = RunSpec(
        engine="scheduler",
        protocol="stno-bfs",
        network=NetworkSpec(family="random_connected", size=8, seed=2),
        daemon="central",
        seed=4,
    )
    observer = ConvergenceTelemetryObserver(stride=2)
    result = run(spec, telemetry=observer)
    assert result.telemetry == observer.snapshot()
    assert result.telemetry["samples"]


def test_events_recorded_from_scenarios():
    spec = RunSpec(
        engine="scenario",
        protocol="dftno",
        network=NetworkSpec(family="random_connected", size=8, seed=2),
        daemon="distributed",
        seed=4,
        scenario="single_burst",
    )
    result = run(spec, telemetry=4)
    events = result.telemetry.get("events")
    assert events, "scenario runs emit events into the telemetry blob"
    assert all(len(event) == 2 for event in events)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ConvergenceTelemetryObserver(stride=0)
