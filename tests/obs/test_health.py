"""Stall/divergence watchdog: zero false positives, real positives, plumbing.

The false-positive contract is the load-bearing half: the monitor rides every
substrate x daemon combination of the equivalence matrix (converged runs,
frozen-node library scenarios, legitimately slow adversarial-daemon runs) and
must record **zero** anomalies with default settings -- protocols that cycle
through configurations forever *after* legitimacy (token circulation,
Dijkstra's ring, PIF waves) are exactly the ones a naive cycle detector would
flag.  The positive half uses a toy livelock protocol (never legitimate,
always cycling) and a tiny round budget to prove both anomaly kinds actually
fire and reach every emission channel (snapshot, counters, span stream).
"""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.obs import health
from repro.obs import (
    HealthMonitor,
    Instrumentation,
    ListSpanSink,
    SpanTracer,
    configuration_fingerprint,
    health_summary,
)
from repro.runtime.actions import Action
from repro.runtime.daemon import make_daemon
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import VariableSpec
from repro.scenarios.library import build_scenario
from repro.scenarios.runner import ScenarioRunner

from tests.api.test_engine_equivalence import DAEMONS, PROTOCOLS


class Blinker(Protocol):
    """Toy livelock: every node flips a bit forever, never legitimate.

    The configuration cycles with period 2 (central daemon) while the enabled
    set stays full -- the textbook stall the watchdog exists to catch.
    """

    name = "blinker"

    def variables(self, network, node):
        return (
            VariableSpec(
                name="bit",
                initial=lambda net, v: 0,
                random=lambda net, v, rng: rng.randint(0, 1),
                bits=lambda net, v: 1,
            ),
        )

    def actions(self, network, node):
        return (
            Action(
                name="Flip",
                guard=lambda view: True,
                statement=lambda view: view.write("bit", 1 - view.read("bit")),
                layer="toy",
            ),
        )

    def legitimate(self, network, configuration):
        return False


def _monitored_run(protocol_key: str, daemon: str, n: int = 8, seed: int = 3):
    factory, family = PROTOCOLS[protocol_key]
    network = generators.family(family, n, seed=seed)
    monitor = HealthMonitor()
    scheduler = Scheduler(
        network,
        factory(),
        daemon=make_daemon(daemon),
        seed=seed,
        observers=(monitor,),
    )
    budget = 500 * (network.n + network.num_edges()) + 3000
    result = scheduler.run_until_legitimate(max_steps=budget)
    return monitor, result


# ----------------------------------------------------------------------
# False positives: the whole equivalence matrix must stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_no_anomalies_across_matrix(protocol_key, daemon):
    monitor, result = _monitored_run(protocol_key, daemon)
    assert result.converged, (protocol_key, daemon)
    assert monitor.healthy, (protocol_key, daemon, monitor.anomalies)
    snapshot = monitor.snapshot()
    assert snapshot["anomalies"] == []
    assert snapshot["round_budget"] is not None


@pytest.mark.parametrize("scenario_name", ["single_burst", "churn", "blackout"])
@pytest.mark.parametrize("protocol_key", ["dftno", "stno-bfs"])
def test_no_anomalies_in_frozen_node_scenarios(protocol_key, scenario_name):
    """Scenario runs (crashes, frozen nodes, topology churn) stay anomaly-free.

    Crash events freeze nodes mid-run and every event mutates the
    configuration; the monitor's window reset on ``on_event`` is what keeps
    those legitimate disturbances from reading as cycles.
    """
    factory, family = PROTOCOLS[protocol_key]
    network = generators.family(family, 8, seed=5)
    monitor = HealthMonitor()
    runner = ScenarioRunner(
        network,
        factory(),
        build_scenario(scenario_name),
        daemon=make_daemon("distributed"),
        seed=5,
        observers=(monitor,),
    )
    report = runner.run()
    assert report.converged
    assert monitor.healthy, (scenario_name, monitor.anomalies)


def _tighten(monkeypatch, check_every=1, cycle_window=16, cycle_repeats=2):
    """Check every step over a short window, so a few steps show a cycle."""
    monkeypatch.setattr(health, "DEFAULT_CHECK_EVERY", check_every)
    monkeypatch.setattr(health, "DEFAULT_CYCLE_WINDOW", cycle_window)
    monkeypatch.setattr(health, "DEFAULT_CYCLE_REPEATS", cycle_repeats)


def test_post_convergence_cycling_is_not_a_stall(monkeypatch):
    """Token circulation keeps moving after legitimacy -- still healthy.

    Run far past convergence with an aggressive check stride so the monitor
    sees the post-legitimacy cycle many times over; the legitimacy gate must
    hold it silent.
    """
    network = generators.family("ring", 6, seed=2)
    factory, _ = PROTOCOLS["dijkstra-ring"]
    _tighten(monkeypatch)
    monitor = HealthMonitor()
    scheduler = Scheduler(
        network,
        factory(),
        daemon=make_daemon("central"),
        seed=2,
        observers=(monitor,),
    )
    for _ in range(400):
        if scheduler.step() is None:
            break
    assert monitor.checks > 50
    assert monitor.healthy, monitor.anomalies


# ----------------------------------------------------------------------
# True positives: both anomaly kinds fire on genuinely sick runs
# ----------------------------------------------------------------------
def test_stall_detected_on_livelocked_protocol(monkeypatch):
    network = generators.family("ring", 4, seed=1)
    _tighten(monkeypatch, cycle_repeats=3)
    monitor = HealthMonitor()
    scheduler = Scheduler(
        network, Blinker(), daemon=make_daemon("central"), seed=1, observers=(monitor,)
    )
    for _ in range(200):
        scheduler.step()
    kinds = {anomaly["kind"] for anomaly in monitor.anomalies}
    assert "stall" in kinds, monitor.snapshot()
    stall = next(a for a in monitor.anomalies if a["kind"] == "stall")
    assert stall["step"] > 0
    assert "revisited" in stall["detail"]


def test_round_budget_anomaly_fires_once():
    network = generators.family("ring", 4, seed=1)
    monitor = HealthMonitor(round_budget=2)
    scheduler = Scheduler(
        network, Blinker(), daemon=make_daemon("central"), seed=1, observers=(monitor,)
    )
    for _ in range(300):
        scheduler.step()
    budget_anomalies = [a for a in monitor.anomalies if a["kind"] == "round_budget"]
    assert len(budget_anomalies) == 1
    assert budget_anomalies[0]["round"] > 2


def test_anomalies_reach_counters_and_span_stream(monkeypatch):
    sink = ListSpanSink()
    instrumentation = Instrumentation(tracer=SpanTracer(sink))
    network = generators.family("ring", 4, seed=1)
    _tighten(monkeypatch, cycle_window=health.DEFAULT_CYCLE_WINDOW)
    monitor = HealthMonitor(round_budget=1)
    scheduler = Scheduler(
        network,
        Blinker(),
        daemon=make_daemon("central"),
        seed=1,
        observers=(monitor,),
        instrumentation=instrumentation,
    )
    for _ in range(100):
        scheduler.step()
    assert monitor.anomalies
    summary = instrumentation.summary()
    assert summary["counters"]["anomalies"] == len(monitor.anomalies)
    anomaly_spans = [span for span in sink.records if span.get("kind") == "anomaly"]
    assert len(anomaly_spans) == len(monitor.anomalies)
    assert anomaly_spans[0]["anomaly"] in ("stall", "round_budget")
    assert "detail" in anomaly_spans[0]


def test_max_anomalies_caps_recording(monkeypatch):
    network = generators.family("ring", 4, seed=1)
    _tighten(monkeypatch, cycle_window=8)
    monkeypatch.setattr(health, "DEFAULT_MAX_ANOMALIES", 3)
    monitor = HealthMonitor()
    scheduler = Scheduler(
        network, Blinker(), daemon=make_daemon("central"), seed=1, observers=(monitor,)
    )
    for _ in range(500):
        scheduler.step()
    assert len(monitor.anomalies) == 3


# ----------------------------------------------------------------------
# Internals: fingerprinting and the snapshot/summary shapes
# ----------------------------------------------------------------------
def test_configuration_fingerprint_tracks_state():
    network = generators.family("ring", 4, seed=1)
    protocol = Blinker()
    config = protocol.initial_configuration(network)
    before = configuration_fingerprint(config)
    assert before == configuration_fingerprint(config)
    config.apply_writes(0, {"bit": 1})
    after = configuration_fingerprint(config)
    assert after != before
    config.apply_writes(0, {"bit": 0})
    assert configuration_fingerprint(config) == before


def test_snapshot_is_json_stable():
    import json

    monitor, _ = _monitored_run("bfs-tree", "central")
    snapshot = monitor.snapshot()
    encoded = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    assert json.loads(encoded) == snapshot
    assert snapshot["schema"] == 1
    assert snapshot["steps"] > 0


def test_health_summary_aggregates_rows():
    rows = [
        {"task_index": 0, "config_hash": "a", "health": {"anomalies": []}},
        {
            "task_index": 1,
            "config_hash": "b",
            "health": {
                "anomalies": [
                    {"kind": "stall", "step": 10},
                    {"kind": "round_budget", "step": 20},
                ]
            },
        },
        {"task_index": 2, "config_hash": "c"},  # unmonitored
    ]
    summary = health_summary(rows)
    assert summary["rows"] == 3
    assert summary["monitored"] == 2
    assert summary["anomalous"] == 1
    assert summary["by_kind"] == {"stall": 1, "round_budget": 1}
    assert summary["flagged"][0]["config_hash"] == "b"
    assert summary["flagged"][0]["kinds"] == "round_budget,stall"
    assert summary["flagged"][0]["first_step"] == 10
