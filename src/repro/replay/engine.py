"""Deterministic re-execution of flight-recorder logs.

The recorded run's only sources of nondeterminism are the rng-drawn initial
configuration, the daemon's per-step selections, and the rng-consuming
scenario mutations -- all of which the log captures verbatim.  Replay
therefore needs no random stream at all: a :class:`ReplayDaemon` returns the
recorded selection of each step, mutations re-apply their recorded effects
through the scheduler's seams, and the live execution is asserted in
lockstep against the recorded step records and fingerprints.

Replay always runs on :class:`~repro.runtime.scheduler.Scheduler`; logs
recorded from the ``scheduler-fullscan`` engine (the reference interpreter)
replay against it because the equivalence suite holds every engine to
bit-identical step streams.  Logs from older versions may
carry ``exchange`` entries (the sharded engine's message stamps); replay
treats them as observational like ``event`` entries.

The first mismatch is returned as a :class:`Divergence` -- the debugging
primitive behind ``repro-replay bisect`` -- rather than raised: a divergent
log is a *finding*, not a failure of the replay machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.api.engines import Engine, build_protocol, register_engine
from repro.api.spec import RunResult, RunSpec, normalize_protocol
from repro.errors import ReplayError, SchedulingError
from repro.graphs import io as graph_io
from repro.obs.recorder import decode_states, decode_value, encode_states, fingerprint
from repro.replay.log import FlightLog, decoded_step_record
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon
from repro.runtime.observers import Observer
from repro.runtime.scheduler import Scheduler, StepRecord


class ReplayDaemon(Daemon):
    """A daemon that returns the recorded selection of each step.

    The scheduler's ``StepRecord.executed`` pairs are exactly the daemon's
    selection in selection order, so feeding them back reproduces the
    original scheduling decision for decision -- no rng involved.
    """

    name = "replay"

    def __init__(self) -> None:
        self._next: list[int] | None = None

    def arm(self, selection: Sequence[int]) -> None:
        self._next = list(selection)

    def reset(self) -> None:
        self._next = None

    def select(self, enabled: Sequence[int], step: int, rng: random.Random) -> list[int]:
        if self._next is None:
            raise ReplayError(
                f"replay daemon asked to select at step {step} with no recorded "
                f"selection armed (stepping a replay scheduler outside the log?)"
            )
        selection, self._next = self._next, None
        return selection


@dataclass(frozen=True)
class Divergence:
    """The first point where a live re-execution left the recorded log."""

    seq: int | None
    step: int | None
    reason: str
    details: tuple[str, ...] = ()

    def format(self) -> str:
        lines = [f"divergence at step {self.step} (log seq {self.seq}): {self.reason}"]
        lines.extend(f"  {detail}" for detail in self.details)
        return "\n".join(lines)


@dataclass
class ReplayReport:
    """Outcome of replaying one log against a live execution."""

    log_path: Path
    steps_replayed: int = 0
    mutations_applied: int = 0
    divergence: Divergence | None = None
    final_checked: bool = False
    final_ok: bool | None = None
    final_detail: str | None = None
    metrics_ok: bool | None = None

    @property
    def verified(self) -> bool:
        """Byte-identical replay: every step matched and the final state too."""
        return (
            self.divergence is None
            and self.final_ok is not False
            and self.metrics_ok is not False
        )

    def as_row(self) -> dict[str, object]:
        return {
            "converged": self.verified,
            "verified": self.verified,
            "steps_replayed": self.steps_replayed,
            "mutations_applied": self.mutations_applied,
            "divergence": self.divergence.format() if self.divergence else None,
            "divergence_step": self.divergence.step if self.divergence else None,
            "final_ok": self.final_ok,
            "metrics_ok": self.metrics_ok,
            "flight_log": str(self.log_path),
        }


def _record_diff(expected: StepRecord, live: StepRecord) -> list[str]:
    """Field-level explanation of two unequal step records."""
    details: list[str] = []
    if expected.step != live.step:
        details.append(f"step index: recorded {expected.step}, live {live.step}")
    if expected.round != live.round:
        details.append(f"round index: recorded {expected.round}, live {live.round}")
    if expected.executed != live.executed:
        details.append(
            f"executed: recorded {list(expected.executed)}, live {list(live.executed)}"
        )
    if expected.changed_nodes != live.changed_nodes:
        details.append(
            f"changed nodes: recorded {list(expected.changed_nodes)}, "
            f"live {list(live.changed_nodes)}"
        )
    expected_moves = {move.node: move for move in expected.moves}
    live_moves = {move.node: move for move in live.moves}
    for node in sorted(set(expected_moves) | set(live_moves)):
        recorded_move = expected_moves.get(node)
        live_move = live_moves.get(node)
        if recorded_move == live_move:
            continue
        if recorded_move is None or live_move is None:
            details.append(
                f"node {node}: move {'missing live' if live_move is None else 'not recorded'}"
            )
            continue
        if (recorded_move.action, recorded_move.layer) != (live_move.action, live_move.layer):
            details.append(
                f"node {node}: action recorded {recorded_move.action!r}"
                f"/{recorded_move.layer!r}, live {live_move.action!r}/{live_move.layer!r}"
            )
        variables = set(recorded_move.changes) | set(live_move.changes)
        for name in sorted(variables):
            recorded_change = recorded_move.changes.get(name)
            live_change = live_move.changes.get(name)
            if recorded_change != live_change:
                details.append(
                    f"node {node} variable {name!r}: recorded "
                    f"{recorded_change}, live {live_change}"
                )
    if not details:
        details.append("records differ in an unattributed field")
    return details


class ReplayRun:
    """Drives one log through a fresh scheduler in verified lockstep.

    ``protocol`` / ``network`` override the header's (needed for raw logs of
    substrate protocols whose names the canonical
    :func:`~repro.api.engines.build_protocol` cannot resolve).  ``observers``
    are attached to the replay scheduler, so a verification harness can
    capture the replayed :class:`~repro.runtime.scheduler.StepRecord` stream
    or metrics exactly as it would on a live run.
    """

    def __init__(
        self,
        log: "FlightLog | str | Path",
        protocol=None,
        network=None,
        observers: Sequence[Observer] = (),
    ) -> None:
        self.log = log if isinstance(log, FlightLog) else FlightLog.load(log)
        header = self.log.header
        self.network = network if network is not None else graph_io.from_dict(
            header["network"]
        )
        if protocol is None:
            name = header.get("protocol")
            try:
                protocol = build_protocol(normalize_protocol(str(name)))
            except Exception as exc:
                raise ReplayError(
                    f"cannot rebuild protocol {name!r} from the log header; "
                    f"pass protocol= explicitly (raw logs of substrate "
                    f"protocols need it)"
                ) from exc
        self.protocol = protocol
        self.daemon = ReplayDaemon()
        self.scheduler = Scheduler(
            self.network,
            self.protocol,
            daemon=self.daemon,
            configuration=Configuration(self.log.initial_states()),
            observers=observers,
        )
        frozen = self.log.initial_frozen()
        if frozen:
            self.scheduler.freeze(frozen)
        self.report = ReplayReport(log_path=self.log.path)

    # ------------------------------------------------------------------
    def run(self) -> ReplayReport:
        """Replay every entry; stop at (and report) the first divergence."""
        for entry in self.log.entries:
            kind = entry["type"]
            if kind == "step":
                divergence = self._replay_step(entry)
                if divergence is not None:
                    self.report.divergence = divergence
                    return self.report
            elif kind == "mutation":
                try:
                    self._apply_mutation(entry)
                except SchedulingError as error:  # e.g. an entry naming an unknown processor
                    reason = f"recorded {entry.get('kind')} mutation rejected: {error}"
                    step = self.scheduler.steps_executed
                    self.report.divergence = Divergence(entry.get("seq"), step, reason)
                    return self.report
                self.report.mutations_applied += 1
            # event / exchange (older sharded logs) / note / converged
            # entries are observational.
        self._check_final()
        return self.report

    def _replay_step(self, entry: dict[str, Any]) -> Divergence | None:
        expected = decoded_step_record(entry)
        seq = entry.get("seq")
        selection = [node for node, _ in expected.executed]
        enabled = set(self.scheduler.enabled_nodes())
        missing = [node for node in selection if node not in enabled]
        if missing:
            return Divergence(
                seq=seq,
                step=expected.step,
                reason=(
                    f"recorded selection {selection} includes processors not "
                    f"enabled live: {missing}"
                ),
                details=(f"live enabled set: {sorted(enabled)}",),
            )
        self.daemon.arm(selection)
        try:
            live = self.scheduler.step()
        except SchedulingError as error:
            # E.g. a selection that repeats a processor: no daemon makes it.
            return Divergence(seq=seq, step=expected.step, reason=str(error))
        if live is None:
            return Divergence(
                seq=seq,
                step=expected.step,
                reason="no processor is enabled live but the log records a step",
            )
        if live != expected:
            return Divergence(
                seq=seq,
                step=expected.step,
                reason="live step record differs from the recorded one",
                details=tuple(_record_diff(expected, live)),
            )
        self.report.steps_replayed += 1
        return None

    def _apply_mutation(self, entry: dict[str, Any]) -> None:
        kind = entry.get("kind")
        scheduler = self.scheduler
        if kind == "freeze":
            scheduler.freeze(tuple(entry["nodes"]))
        elif kind == "unfreeze":
            scheduler.unfreeze(tuple(entry["nodes"]))
        elif kind == "set_configuration":
            scheduler.set_configuration(Configuration(decode_states(entry["config"])))
        elif kind == "set_network":
            network = graph_io.from_dict(entry["network"])
            # Apply the recorded post-change states instead of re-running the
            # rng-consuming reinitialization.
            scheduler.set_network(network, reinitialize=())
            for node, state in sorted(decode_states(entry["reinitialized"]).items()):
                scheduler.replace_node(node, state)
        elif kind == "set_daemon":
            # The recorded daemon's selections are in the step entries; the
            # replay daemon stays in place.  set_daemon touches no run state.
            pass
        elif kind == "replace_node":
            state = {
                name: decode_value(value) for name, value in entry["state"].items()
            }
            scheduler.replace_node(int(entry["node"]), state)
        else:
            raise ReplayError(
                f"unknown mutation kind {kind!r} at log seq {entry.get('seq')}"
            )

    def _check_final(self) -> None:
        final = self.log.final
        if final is None:
            return
        self.report.final_checked = True
        live_states = self.scheduler.configuration.to_dict()
        live_fp = fingerprint(encode_states(live_states))
        recorded_fp = final.get("fingerprint")
        self.report.final_ok = live_fp == recorded_fp
        if not self.report.final_ok:
            self.report.final_detail = (
                f"final configuration fingerprint mismatch: recorded "
                f"{recorded_fp}, live {live_fp}"
            )
        recorded_metrics = final.get("metrics")
        if recorded_metrics is not None:
            # Compare in encoded space: both sides went through the codec, so
            # equality is exact without risking a __repr__ decode error.
            from repro.obs.recorder import encode_value

            live = encode_value(self.scheduler.metrics.as_dict())
            self.report.metrics_ok = live == recorded_metrics


def replay_spec(path: "str | Path") -> RunSpec:
    """A ``scheduler-replay`` :class:`~repro.api.RunSpec` for a recorded log.

    Rebuilt from the log's recorded spec (raw logs without one cannot be
    turned into a spec -- replay them with :class:`ReplayRun` directly).
    Fields only other engines understand (scenario, record, and the
    ``shards`` / ``partition`` of older logs) move out of the spec; the log
    itself carries everything replay needs.
    """
    log = FlightLog.load(path)
    spec = log.spec_dict
    if spec is None:
        raise ReplayError(
            f"{path} has no recorded RunSpec in its header; replay it "
            f"programmatically with repro.replay.ReplayRun"
        )
    return RunSpec(
        engine="scheduler-replay",
        protocol=str(spec.get("protocol", "dftno")),
        network=spec.get("network") or {},
        daemon=str(spec.get("daemon", "distributed")),
        seed=int(spec.get("seed", 0)),
        stop=spec.get("stop") or {},
        parameter=spec.get("parameter"),
        debug={"replay_log": str(path)},
    )


class ReplayEngine(Engine):
    """The ``scheduler-replay`` engine: verify a log through :func:`repro.api.run`.

    The log path travels in ``spec.debug["replay_log"]`` -- hash-excluded
    like every debug switch, because a replay checks a computation rather
    than performing a new one.  The row is a replay-verification row (see
    :meth:`ReplayReport.as_row`); the report object is the
    :class:`ReplayReport`.
    """

    name = "scheduler-replay"

    def execute(
        self,
        spec: RunSpec,
        observers: Sequence[Observer] = (),
        instrumentation=None,
    ) -> RunResult:
        path = (spec.debug or {}).get("replay_log")
        if not path:
            raise ReplayError(
                "the scheduler-replay engine needs the log path in "
                "spec.debug['replay_log'] (see repro.replay.replay_spec)"
            )
        run = ReplayRun(FlightLog.load(path), observers=observers)
        report = run.run()
        return RunResult(engine=self.name, spec=spec, row=report.as_row(), report=report)


# Importing this module registers the engine (repro.api.engines defers the
# import to avoid a cycle; see get_engine).
register_engine(ReplayEngine())


__all__ = [
    "Divergence",
    "ReplayDaemon",
    "ReplayEngine",
    "ReplayReport",
    "ReplayRun",
    "replay_spec",
]
