"""The declarative experiment spec: one serializable description per run.

A :class:`RunSpec` pins down everything a simulation run needs -- the
protocol stack, the topology, the daemon, the optional scenario or
message-passing workload, the stopping conditions and the seeds -- in plain
data.  It serializes to/from a nested dictionary (:meth:`RunSpec.to_dict` /
:meth:`RunSpec.from_dict`) and carries a **canonical hash**
(:attr:`RunSpec.canonical_hash`): a stable digest of the non-default fields.
Equal specs always hash equally, and adding new spec fields later cannot
re-hash old specs.  The hash is purely syntactic: it does not know which
fields a given engine reads, so two specs differing only in a field the
engine ignores (e.g. ``protocol`` on a ``msgpass`` spec) hash differently --
set only the fields that matter when hashing for dedup.

The spec never executes anything itself; :func:`repro.api.run` hands it to
the :class:`~repro.api.engines.Engine` named by :attr:`RunSpec.engine`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.graphs.generators import FAMILY_NAMES, family as build_family, height_tree
from repro.graphs.network import RootedNetwork

#: The family name of height-controlled trees (not in the sweepable families).
HEIGHT_TREE_FAMILY = "height_tree"

#: Protocol stacks the scheduler engines build.  ``stno`` is accepted as an
#: alias for ``stno-bfs`` (the thesis's default spanning tree).
PROTOCOLS = ("dftno", "stno-bfs", "stno-dfs")
_PROTOCOL_ALIASES = {"stno": "stno-bfs"}

#: Daemon kinds understood by :func:`repro.runtime.daemon.make_daemon`.
DAEMONS = ("central", "distributed", "synchronous", "adversarial")

#: Engines :func:`repro.api.run` can dispatch to.  ``scheduler-fullscan`` is
#: the differential-testing twin of ``scheduler``: the same measurement on
#: the independent reference interpreter (:mod:`repro.runtime.reference`).
#: ``scheduler-replay`` re-executes a flight-recorder log
#: (:mod:`repro.replay`) in verified lockstep instead of running anything
#: new; its log path travels in the hash-excluded ``debug["replay_log"]``.
ENGINE_NAMES = (
    "scheduler",
    "scheduler-fullscan",
    "scheduler-replay",
    "scenario",
    "msgpass",
)

#: ``RunSpec.to_dict`` keys of the removed sharded engine (see ``from_dict``).
_REMOVED_SHARD_FIELDS = ("shards", "partition")

#: The engines that run the daemon-step scheduler (and thus understand
#: scheduler-only spec fields such as ``stop.after_substrate``).
SCHEDULER_ENGINES = (
    "scheduler",
    "scheduler-fullscan",
    "scheduler-replay",
)

#: The engines whose executions a flight recorder can capture for replay:
#: every live scheduler engine plus the scenario runner (its mutations route
#: through the scheduler's recorded seams).  ``msgpass`` has no daemon-step
#: stream to record, and recording a replay would be circular.
RECORDABLE_ENGINES = (
    "scheduler",
    "scheduler-fullscan",
    "scenario",
)


#: Message-passing workloads the ``msgpass`` engine implements.
WORKLOADS = ("broadcast", "traversal", "election")


def normalize_protocol(name: str) -> str:
    """Resolve aliases and validate a protocol name."""
    resolved = _PROTOCOL_ALIASES.get(name, name)
    if resolved not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS + tuple(_PROTOCOL_ALIASES))}"
        )
    return resolved


def normalize_daemon(kind: str) -> str:
    """Validate a daemon kind."""
    if kind not in DAEMONS:
        raise ValueError(f"unknown daemon kind {kind!r}; choose from {sorted(DAEMONS)}")
    return kind


def normalize_family(name: str) -> str:
    """Validate a sweepable topology family name."""
    if name not in FAMILY_NAMES:
        raise ValueError(
            f"unknown topology family {name!r}; choose from {sorted(FAMILY_NAMES)}"
        )
    return name


def check_after_substrate(engine: str, after_substrate: bool) -> None:
    """Reject ``after_substrate`` starts on engines without a substrate phase.

    Rejecting beats mislabeling: ``after_substrate`` is part of the canonical
    hash (and of the campaign config hash), so silently ignoring it would
    store two differently-hashed copies of the same measurement.
    """
    if after_substrate and engine not in SCHEDULER_ENGINES:
        raise ValueError(
            f"after_substrate starts are not supported by the {engine} engine"
        )


def _strip_defaults(value: Any, defaults: Mapping[str, Any]) -> dict[str, Any]:
    """Drop entries equal to their default: the canonical (hashable) form."""
    return {
        name: entry for name, entry in value.items() if entry != defaults.get(name)
    }


@dataclass(frozen=True)
class NetworkSpec:
    """The topology of a run, rebuildable from its description alone.

    ``family`` is one of :data:`repro.graphs.generators.FAMILY_NAMES`, or
    ``"height_tree"`` together with ``height`` for the height-controlled trees
    of the EXP-T2 sweep.  ``seed`` feeds the generator, so the same spec
    always yields the same network.
    """

    family: str = "random_connected"
    size: int = 16
    height: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height is not None:
            if not 1 <= self.height <= self.size - 1:
                raise ValueError(
                    f"height {self.height} out of range 1..{self.size - 1} for size {self.size}"
                )
            if self.family not in (HEIGHT_TREE_FAMILY, "random_connected"):
                raise ValueError(
                    "a height-controlled network uses family='height_tree'"
                )
            object.__setattr__(self, "family", HEIGHT_TREE_FAMILY)
        elif self.family == HEIGHT_TREE_FAMILY:
            raise ValueError("family='height_tree' needs a height")
        else:
            normalize_family(self.family)
        if self.size < 1:
            raise ValueError("size must be >= 1")

    def build(self) -> RootedNetwork:
        """Construct the described network (deterministic in the spec)."""
        if self.height is not None:
            return height_tree(self.size, self.height, seed=self.seed)
        return build_family(self.family, self.size, seed=self.seed)


@dataclass(frozen=True)
class StopSpec:
    """When a run is allowed (or forced) to end.

    ``max_steps`` bounds the daemon-step engines (``None`` -> the harness
    default :func:`~repro.analysis.convergence.step_budget`); the
    ``msgpass`` engine refuses it.  ``after_substrate`` starts the run from a
    configuration whose substrate layer is already stabilized (the theorems'
    phrasing); it is only meaningful for the scheduler engines.
    """

    max_steps: int | None = None
    after_substrate: bool = False

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "StopSpec":
        """Build from :meth:`RunSpec.to_dict` output, old dumps included.

        Dumps written while the field existed carry ``"max_rounds": None``;
        it is dropped so they load to the same hash.  No engine ever read
        it, so a set value is refused rather than silently ignored.
        """
        kwargs = dict(data)
        if kwargs.pop("max_rounds", None) is not None:
            raise ValueError("StopSpec.max_rounds was never read by any engine and is removed")
        return cls(**kwargs)


_NETWORK_DEFAULTS = asdict(NetworkSpec())
_STOP_DEFAULTS = asdict(StopSpec())


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation run, executable by :func:`repro.api.run`.

    Fields
    ------
    engine:
        ``"scheduler"`` -- a daemon-step stabilization measurement of the
        layered protocols; ``"scenario"`` -- a fault-injection /
        dynamic-network scenario execution; ``"msgpass"`` -- a synchronous
        message-passing workload comparing oriented vs unoriented costs.
    protocol:
        ``"dftno"``, ``"stno-bfs"`` or ``"stno-dfs"`` (``"stno"`` is accepted
        as an alias).  Ignored by the ``msgpass`` engine, whose orientation is
        the centralized reference.
    network / daemon / seed:
        The cell under test.  ``seed`` drives the scheduler / starting
        configuration; the network has its own seed.
    scenario:
        Library scenario name; required by (and only legal for) the
        ``scenario`` engine.
    workload:
        ``msgpass`` workload name (default ``"broadcast"``); only legal for
        the ``msgpass`` engine.
    stop:
        Stopping conditions (see :class:`StopSpec`).
    parameter:
        The swept quantity this run contributes to in aggregated tables
        (default: the network size; the height for height-controlled trees).
    debug:
        Diagnostic switches, **excluded from the canonical hash**: they may
        change how a run is checked but never what it computes, so a debug
        re-run dedups against (and is comparable to) the original row.
        Currently understood by the scheduler engines:
        ``{"check_guard_locality": True}`` arms the per-guard read tracker
        (the programmatic form of ``REPRO_DEBUG_GUARDS=1``), raising
        :class:`~repro.errors.GuardLocalityError` on any out-of-neighborhood
        guard read.  Unknown keys are preserved but ignored.
    record:
        Flight-recorder switch, **excluded from the canonical hash** exactly
        like ``debug`` (recording observes the run; it never changes what is
        computed, so a recorded re-run dedups against the original row).
        ``True`` writes the causal event log under the default
        :data:`repro.obs.recorder.DEFAULT_LOG_DIR`; a string is an explicit
        directory; a path ending in ``.jsonl`` is the exact log file.  Only
        legal for the :data:`RECORDABLE_ENGINES`; the row gains a
        ``flight_log`` pointer to the written log.
    """

    engine: str = "scheduler"
    protocol: str = "dftno"
    network: NetworkSpec = field(default_factory=NetworkSpec)
    daemon: str = "distributed"
    seed: int = 0
    scenario: str | None = None
    workload: str | None = None
    stop: StopSpec = field(default_factory=StopSpec)
    parameter: int | None = None
    debug: Mapping[str, object] | None = None
    record: "bool | str | None" = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {sorted(ENGINE_NAMES)}"
            )
        if isinstance(self.network, Mapping):
            object.__setattr__(self, "network", NetworkSpec(**dict(self.network)))
        if isinstance(self.stop, Mapping):
            object.__setattr__(self, "stop", StopSpec.from_mapping(self.stop))
        if self.debug is not None:
            if not isinstance(self.debug, Mapping):
                raise ValueError(
                    f"debug must be a mapping of switches (got {type(self.debug).__name__})"
                )
            object.__setattr__(self, "debug", dict(self.debug))
        if self.record is not None and self.record is not False:
            if not isinstance(self.record, (bool, str)):
                raise ValueError(
                    f"record must be True or a directory/log path "
                    f"(got {type(self.record).__name__})"
                )
            if self.engine not in RECORDABLE_ENGINES:
                raise ValueError(
                    f"the {self.engine} engine has no recordable execution "
                    f"stream (recordable: {sorted(RECORDABLE_ENGINES)})"
                )
        elif self.record is False:
            object.__setattr__(self, "record", None)

        # Validate names eagerly so a bad spec fails at construction, not at
        # execution on some pool worker an hour into a campaign.
        object.__setattr__(self, "daemon", normalize_daemon(self.daemon))
        if self.engine != "msgpass":
            object.__setattr__(self, "protocol", normalize_protocol(self.protocol))

        if self.engine == "scenario":
            if self.scenario is None:
                raise ValueError("the scenario engine needs a scenario name")
            from repro.scenarios.library import normalize_scenario

            object.__setattr__(self, "scenario", normalize_scenario(self.scenario))
        elif self.scenario is not None:
            raise ValueError(
                f"scenario specs only apply to engine='scenario' (got {self.engine!r})"
            )

        if self.engine == "msgpass":
            workload = self.workload or "broadcast"
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
                )
            object.__setattr__(self, "workload", workload)
            if workload == "election" and self.network.family != "ring":
                raise ValueError("the election workload runs on family='ring' networks")
            if self.stop.max_steps is not None:
                raise ValueError("the msgpass engine has no step budget (stop.max_steps)")
        elif self.workload is not None:
            raise ValueError(
                f"workloads only apply to engine='msgpass' (got {self.engine!r})"
            )

        check_after_substrate(self.engine, self.stop.after_substrate)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Nested plain-data form (JSON-ready); the inverse of :meth:`from_dict`."""
        out = asdict(self)
        out["network"] = asdict(self.network)
        out["stop"] = asdict(self.stop)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (missing keys -> defaults).

        Dumps written while the sharded engine existed carry ``"shards"`` and
        ``"partition"``; ``None`` values (every non-sharded spec) are dropped
        so those dumps keep loading to the same hash.
        """
        kwargs = dict(data)
        for legacy in _REMOVED_SHARD_FIELDS:
            if kwargs.pop(legacy, None) is not None:
                raise ValueError(
                    f"RunSpec field {legacy!r} belonged to the removed sharded "
                    f"engine; choose from {sorted(ENGINE_NAMES)}"
                )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        # ``__post_init__`` turns the nested network/stop mappings into specs.
        return cls(**kwargs)  # type: ignore[arg-type]

    def canonical(self) -> dict[str, object]:
        """The hash input: :meth:`to_dict` with default-valued entries dropped.

        Stripping defaults makes the hash *forward-stable*: a field added to
        ``RunSpec`` in a later version (with a default) does not change the
        hash of specs that never set it, so stores keyed by
        :attr:`canonical_hash` survive API growth -- the same trick the
        campaign grid plays with ``task_type``.
        """
        data = self.to_dict()
        # Unconditionally hash-excluded: debug switches and the flight
        # recorder change how a run is checked/observed, never what it
        # computes.
        data.pop("debug", None)
        data.pop("record", None)
        data["network"] = _strip_defaults(data["network"], _NETWORK_DEFAULTS)
        data["stop"] = _strip_defaults(data["stop"], _STOP_DEFAULTS)
        defaults: dict[str, Any] = {
            "engine": "scheduler",
            "protocol": "dftno",
            "network": {},
            "daemon": "distributed",
            "seed": 0,
            "scenario": None,
            "workload": "broadcast" if self.engine == "msgpass" else None,
            "stop": {},
            "parameter": None,
        }
        return _strip_defaults(data, defaults)

    @property
    def canonical_hash(self) -> str:
        """Stable 16-hex-digit digest of the canonical form."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunResult:
    """The uniform envelope every engine returns.

    Attributes
    ----------
    engine:
        The engine that executed the run.
    spec:
        The spec it executed (so results are self-describing).
    row:
        One flat, JSON-serializable result dictionary -- exactly what a
        campaign store persists for this kind of run.
    report:
        The engine's native outcome object for callers that want more than the
        row: a :class:`~repro.analysis.convergence.StabilizationSample`, a
        :class:`~repro.analysis.recovery.ScenarioReport`, or the ``msgpass``
        per-variant outcome mapping.
    perf:
        The run's :meth:`~repro.obs.Instrumentation.summary` -- phase timers,
        counters and gauges.  ``None`` unless the run was executed with
        instrumentation attached; when
        present the same dictionary is embedded in ``row["perf"]`` so campaign
        stores persist it.  Uninstrumented rows are byte-identical to what
        they were before the observability layer existed.
    telemetry:
        The run's :meth:`~repro.obs.ConvergenceTelemetryObserver.snapshot` --
        convergence time-series, guard heat map, writes per node.  ``None``
        unless the run asked for telemetry (``run(spec, telemetry=...)``);
        when present the same blob is embedded in ``row["telemetry"]``.
    health:
        The run's :meth:`~repro.obs.HealthMonitor.snapshot` -- structured
        stall / round-budget anomalies.  ``None`` unless the run asked for
        health monitoring; embedded in ``row["health"]`` when present.
    """

    engine: str
    spec: RunSpec
    row: dict[str, object]
    report: object = None
    perf: dict | None = None
    telemetry: dict | None = None
    health: dict | None = None

    @property
    def converged(self) -> bool:
        """Whether the run reached its engine's success condition."""
        return bool(self.row.get("converged"))

    def to_dict(self) -> dict[str, object]:
        """Serializable form: the spec, its hash, and the flat row."""
        return {
            "engine": self.engine,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.canonical_hash,
            "row": dict(self.row),
        }


__all__ = [
    "DAEMONS",
    "ENGINE_NAMES",
    "HEIGHT_TREE_FAMILY",
    "PROTOCOLS",
    "RECORDABLE_ENGINES",
    "SCHEDULER_ENGINES",
    "NetworkSpec",
    "RunResult",
    "RunSpec",
    "StopSpec",
    "WORKLOADS",
    "check_after_substrate",
    "normalize_daemon",
    "normalize_family",
    "normalize_protocol",
]
