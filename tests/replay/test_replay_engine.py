"""The replay engine: deterministic re-execution, verified in lockstep."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.api import run
from repro.core.dftno import build_dftno
from repro.errors import ReplayError
from repro.graphs import generators
from repro.obs import FlightRecorder
from repro.replay import ReplayDaemon, ReplayRun, replay_spec
from repro.replay.cli import main as replay_main
from repro.replay.log import FlightLog
from repro.runtime.daemon import make_daemon
from repro.runtime.observers import Observer
from repro.runtime.scheduler import Scheduler
from repro.scenarios.library import build_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.substrates.spanning_tree import BFSSpanningTree

from tests.replay.conftest import record_run


def _tamper_step(path, step, mutate):
    """Rewrite the entry for ``step``, re-stamping nothing (body-only edit)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, raw in enumerate(lines):
        entry = json.loads(raw)
        if entry.get("type") == "step" and entry["core"]["step"] == step:
            mutate(entry)
            lines[index] = json.dumps(entry, separators=(",", ":"))
            break
    else:
        raise AssertionError(f"no step {step} entry in {path}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_clean_log_replays_verified(recorded_log):
    path, scheduler, records = recorded_log
    report = ReplayRun(path).run()
    assert report.verified
    assert report.steps_replayed == len(records)
    assert report.final_checked and report.final_ok and report.metrics_ok
    assert report.divergence is None


def test_replay_reproduces_the_final_configuration(recorded_log):
    path, scheduler, _ = recorded_log
    replay = ReplayRun(path)
    report = replay.run()
    assert report.verified
    assert replay.scheduler.configuration.to_dict() == scheduler.configuration.to_dict()
    assert replay.scheduler.metrics.as_dict() == scheduler.metrics.as_dict()


def test_replay_observers_see_the_recorded_step_stream(recorded_log):
    path, _, records = recorded_log

    class Collect(Observer):
        def __init__(self):
            self.records = []

        def on_step(self, source, record):
            self.records.append(record)

    collector = Collect()
    report = ReplayRun(path, observers=(collector,)).run()
    assert report.verified
    assert collector.records == records


def test_tampered_write_set_is_caught_at_its_exact_step(recorded_log):
    path, _, records = recorded_log
    target = min(5, len(records) - 1)

    def corrupt(entry):
        move = entry["core"]["moves"][0]
        name = next(iter(move["changes"]))
        move["changes"][name][1] = {"__tuple__": [998, "phantom-edge"]}
        entry["core"]["changed"] = sorted(set(entry["core"]["changed"]) | {998})

    _tamper_step(path, target, corrupt)
    report = ReplayRun(path).run()
    assert not report.verified
    assert report.divergence is not None
    assert report.divergence.step == target
    assert report.steps_replayed == target  # steps before the damage matched
    text = report.divergence.format()
    assert f"divergence at step {target}" in text


def test_tampered_selection_is_reported_as_not_enabled(recorded_log):
    path, _, records = recorded_log
    target = min(3, len(records) - 1)
    _tamper_step(
        path, target,
        lambda entry: entry["core"]["executed"].append([999, "Phantom"]),
    )
    report = ReplayRun(path).run()
    assert not report.verified
    assert report.divergence.step == target
    assert "not" in report.divergence.reason and "999" in report.divergence.reason


def test_tampered_repeated_selection_is_a_divergence(recorded_log, capsys):
    path, _, records = recorded_log
    target = min(3, len(records) - 1)
    _tamper_step(
        path, target,
        lambda entry: entry["core"]["executed"].append(entry["core"]["executed"][0]),
    )
    report = ReplayRun(path).run()
    assert not report.verified
    assert report.divergence.step == target
    assert report.steps_replayed == target
    assert "more than once" in report.divergence.reason
    assert replay_main(["verify", str(path)]) == 1
    assert f"divergence at step {target}" in capsys.readouterr().err


def test_tampered_replace_node_naming_an_unknown_processor_is_a_divergence(tmp_path, capsys):
    path = tmp_path / "crash.flight.jsonl"
    recorder = FlightRecorder(path)
    network = generators.random_connected(6, extra_edge_probability=0.3, seed=11)
    protocol = build_dftno()
    scheduler = Scheduler(
        network, protocol, daemon=make_daemon("distributed"), seed=11, observers=(recorder,)
    )
    for _ in range(5):
        scheduler.step()
    scheduler.replace_node(2, protocol.random_state(network, 2, random.Random(5)))
    for _ in range(5):
        scheduler.step()
    recorder.close()
    assert ReplayRun(path).run().verified
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, raw in enumerate(lines):
        entry = json.loads(raw)
        if entry.get("type") == "mutation" and entry.get("kind") == "replace_node":
            entry["node"] = 99
            lines[index] = json.dumps(entry, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    replay = ReplayRun(path)
    report = replay.run()
    assert not report.verified
    assert report.divergence.step == 5
    assert "unknown processor 99" in report.divergence.reason
    assert sorted(replay.scheduler.configuration.nodes()) == list(range(6))
    assert replay_main(["verify", str(path)]) == 1
    assert "divergence at step 5" in capsys.readouterr().err


def test_tampered_final_fingerprint_fails_the_final_check(recorded_log):
    path, _, _ = recorded_log
    lines = path.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[-1])
    assert entry["type"] == "final"
    entry["fingerprint"] = "0" * 16
    lines[-1] = json.dumps(entry, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = ReplayRun(path).run()
    assert report.divergence is None  # every step matched...
    assert report.final_ok is False  # ...but the recorded final does not
    assert not report.verified
    assert "fingerprint mismatch" in report.final_detail


def test_raw_substrate_log_needs_an_explicit_protocol(tmp_path):
    path = tmp_path / "raw.flight.jsonl"
    record_run(path, protocol=BFSSpanningTree(), max_steps=40)
    with pytest.raises(ReplayError, match="pass protocol= explicitly"):
        ReplayRun(path)
    report = ReplayRun(path, protocol=BFSSpanningTree()).run()
    assert report.verified


def test_scenario_mutations_replay_through_the_seams(tmp_path):
    path = tmp_path / "scenario.flight.jsonl"
    recorder = FlightRecorder(path)
    ScenarioRunner(
        generators.random_connected(8, extra_edge_probability=0.3, seed=3),
        build_dftno(),
        build_scenario("cascade"),
        daemon=make_daemon("distributed"),
        seed=7,
        observers=(recorder,),
    ).run()
    recorder.close()
    log = FlightLog.load(path)
    mutations = [e for e in log.entries if e["type"] == "mutation"]
    assert mutations, "cascade scenario recorded no mutations"
    report = ReplayRun(log).run()
    assert report.verified
    assert report.mutations_applied == len(mutations)


def test_replay_spec_round_trips_through_the_api(tmp_path):
    from repro.api import RunSpec

    spec = RunSpec(protocol="dftno", seed=11, record=str(tmp_path))
    original = run(spec)
    log_path = original.row["flight_log"]
    replayed = run(replay_spec(log_path))
    assert replayed.engine == "scheduler-replay"
    assert replayed.row["verified"] is True
    assert replayed.row["converged"] is True
    assert replayed.row["steps_replayed"] == original.row["total_steps"]
    assert replayed.row["flight_log"] == str(log_path)


def test_replay_spec_refuses_a_raw_log(tmp_path):
    path = tmp_path / "raw.flight.jsonl"
    record_run(path, protocol=BFSSpanningTree(), max_steps=10)
    with pytest.raises(ReplayError, match="no recorded RunSpec"):
        replay_spec(path)


def test_replay_daemon_refuseses_to_select_unarmed():
    daemon = ReplayDaemon()
    with pytest.raises(ReplayError, match="no recorded selection armed"):
        daemon.select([0, 1], step=0, rng=random.Random(0))
    daemon.arm([1])
    assert daemon.select([0, 1], step=0, rng=random.Random(0)) == [1]
    # The armed selection is one-shot.
    with pytest.raises(ReplayError):
        daemon.select([0, 1], step=1, rng=random.Random(0))


def test_stepping_a_replay_scheduler_past_the_log_raises(recorded_log):
    path, _, _ = recorded_log
    replay = ReplayRun(path)
    report = replay.run()
    assert report.verified
    with pytest.raises(ReplayError, match="outside the log"):
        replay.scheduler.step()


#: A k=2 DFTNO log recorded (inline mode) by the sharded engine earlier
#: versions shipped; it carries ``exchange`` entries and a spec with
#: ``shards=2, partition="bfs"``.
SHARDED_LOG = Path(__file__).resolve().parent / "fixtures" / "sharded-k2.flight.jsonl"


def test_sharded_recording_from_older_versions_still_verifies(capsys):
    log = FlightLog.load(SHARDED_LOG)
    assert log.spec_dict["shards"] == 2
    assert any(e["type"] == "exchange" for e in log.entries)
    assert replay_main(["verify", str(SHARDED_LOG)]) == 0
    assert "verified" in capsys.readouterr().out
    replayed = run(replay_spec(SHARDED_LOG))
    assert replayed.row["verified"] is True
    assert replayed.row["steps_replayed"] == len(list(log.steps()))


def test_divergence_details_attribute_the_exact_variable(recorded_log):
    path, _, records = recorded_log
    target = min(2, len(records) - 1)

    def corrupt(entry):
        move = entry["core"]["moves"][0]
        name = next(iter(move["changes"]))
        move["changes"][name][1] = "corrupted-value"
        corrupt.node = move["node"]
        corrupt.name = name

    _tamper_step(path, target, corrupt)
    report = ReplayRun(path).run()
    details = "\n".join(report.divergence.details)
    assert f"node {corrupt.node}" in details
    assert repr(corrupt.name) in details
