"""Declarative parameter grids for experiment campaigns.

A :class:`Grid` is the declarative description of a sweep -- the cross
product of protocols x topology families x sizes (x heights) x daemons x
trials.  :meth:`Grid.expand` turns it into a deterministic, ordered list of
:class:`TaskSpec` objects, one per run.

Every task carries a **config hash**: a stable digest of the fields that
identify the run (protocol, family, size, height, daemon, trial, grid seed,
starting-configuration mode).  The hash is what the result store keys on for
dedup and ``--resume``, and it is also the root of the task's seeds: the
network seed and the scheduler seed are both derived from the hash, so a task
produces the same rows no matter when, where, or on which worker it executes.

Grids also carry a **task type**, which picks the :mod:`repro.api` engine
every task runs on (:data:`TASK_ENGINES`): ``stabilize`` is the default and
hashes exactly as before task types existed, so pre-existing stores resume
unchanged; ``scenario`` adds the scenario name as an extra axis and
``msgpass`` the message-passing workload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

from repro.api.spec import (
    HEIGHT_TREE_FAMILY,
    WORKLOADS,
    NetworkSpec,
    check_after_substrate,
    normalize_daemon,
    normalize_family,
    normalize_protocol,
)

#: The task type existing grids implicitly use; its rows and config hashes
#: stay byte-identical to those of grids that predate task types.
DEFAULT_TASK_TYPE = "stabilize"

#: Task type -> the :func:`repro.api.run` engine its tasks execute on.
TASK_ENGINES = {"stabilize": "scheduler", "scenario": "scenario", "msgpass": "msgpass"}

#: Fields of :class:`TaskSpec` that identify a *default-task-type* run.
#: ``task_type`` and ``scenario`` join the identity only for non-default
#: types, so the hashes (and stores) of existing stabilization grids stay
#: byte-identical.  Order matters only for display; the hash canonicalizes
#: with ``sort_keys``.
IDENTITY_FIELDS = (
    "protocol",
    "family",
    "size",
    "height",
    "daemon",
    "trial",
    "grid_seed",
    "after_substrate",
    "pair_networks",
)

#: The identity subset that defines a task's *topology*: with
#: ``pair_networks`` the network seed derives from these fields only, so every
#: protocol/daemon cell of a trial runs on the same network.
NETWORK_IDENTITY_FIELDS = ("family", "size", "height", "trial", "grid_seed")


@dataclass(frozen=True)
class TaskSpec:
    """One fully-specified campaign run.

    ``index`` is the task's position in the expanded grid; it is *not* part of
    the identity (two grids that share a configuration share its hash even if
    the configuration sits at different positions).
    """

    protocol: str
    family: str
    size: int
    daemon: str
    trial: int
    grid_seed: int
    after_substrate: bool = False
    height: int | None = None
    pair_networks: bool = False
    task_type: str = DEFAULT_TASK_TYPE
    scenario: str | None = None
    workload: str | None = None
    index: int = field(default=0, compare=False)

    def identity(self) -> dict[str, object]:
        """The fields that define this configuration (hash input).

        For the default task type this is exactly the pre-task-type identity,
        keeping hashes (and therefore stores, resumes and dedup) stable; other
        task types additionally carry ``task_type`` and, when set, the
        ``scenario`` name and the ``workload`` (so pre-existing ``msgpass``
        broadcast stores, which predate the workload axis, also keep their
        hashes).
        """
        identity: dict[str, object] = {
            name: getattr(self, name) for name in IDENTITY_FIELDS
        }
        if self.task_type != DEFAULT_TASK_TYPE:
            identity["task_type"] = self.task_type
            if self.scenario is not None:
                identity["scenario"] = self.scenario
            if self.workload is not None:
                identity["workload"] = self.workload
        return identity

    @property
    def config_hash(self) -> str:
        """Stable 16-hex-digit digest of the task's identity."""
        blob = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def _derived_seed(self, salt: str) -> int:
        digest = hashlib.sha256(f"{salt}:{self.config_hash}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")

    @property
    def task_seed(self) -> int:
        """The root per-task seed (derived from the config hash)."""
        return self._derived_seed("task")

    @property
    def network_seed(self) -> int:
        """Seed for the topology generator.

        With ``pair_networks`` the seed depends only on the topology identity
        (family, size, height, trial, grid seed), so every protocol/daemon
        combination of a trial is measured on the *same* network -- the
        paired design the daemon-ablation experiment (EXP-R2) relies on.
        """
        if self.pair_networks:
            blob = json.dumps(
                {name: getattr(self, name) for name in NETWORK_IDENTITY_FIELDS},
                sort_keys=True,
                separators=(",", ":"),
            )
            digest = hashlib.sha256(f"network:{blob}".encode("utf-8")).digest()
            return int.from_bytes(digest[:4], "big")
        return self._derived_seed("network")

    @property
    def run_seed(self) -> int:
        """Seed for the scheduler / starting configuration."""
        return self._derived_seed("run")

    @property
    def parameter(self) -> int:
        """The swept quantity this task contributes to (height or size)."""
        return self.height if self.height is not None else self.size


def _as_int_tuple(values: Sequence[int] | None, what: str) -> tuple[int, ...] | None:
    if values is None:
        return None
    out = tuple(int(value) for value in values)
    if not out:
        raise ValueError(f"{what} must not be empty")
    return out


def _dedup(values: tuple | None) -> tuple | None:
    if values is None:
        return None
    return tuple(dict.fromkeys(values))


@dataclass(frozen=True)
class Grid:
    """A declarative experiment sweep: the cross product of its axes.

    ``heights`` switches the grid to height-controlled trees (EXP-T2 style):
    each task then runs on a tree with ``size`` processors and exactly the
    requested root-to-leaf height, and the ``families`` axis is replaced by
    the synthetic ``height_tree`` family.

    ``task_type`` selects what each task computes (a key of
    :data:`TASK_ENGINES`); with ``task_type="scenario"`` the
    ``scenarios`` tuple of library scenario names becomes an additional axis,
    and with ``task_type="msgpass"`` the ``workloads`` tuple (broadcast,
    traversal, election) does.  ``broadcast`` is the default workload and is
    never hashed, so pre-workload-axis msgpass stores keep their hashes.
    """

    sizes: tuple[int, ...] = (8, 16, 32)
    protocols: tuple[str, ...] = ("dftno",)
    families: tuple[str, ...] = ("random_connected",)
    daemons: tuple[str, ...] = ("distributed",)
    heights: tuple[int, ...] | None = None
    trials: int = 1
    seed: int = 0
    after_substrate: bool = False
    pair_networks: bool = False
    task_type: str = DEFAULT_TASK_TYPE
    scenarios: tuple[str, ...] | None = None
    workloads: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.task_type not in TASK_ENGINES:
            raise ValueError(
                f"unknown task type {self.task_type!r}; choose from {', '.join(TASK_ENGINES)}"
            )
        check_after_substrate(TASK_ENGINES[self.task_type], self.after_substrate)
        if self.task_type == "scenario":
            if not self.scenarios:
                raise ValueError('task_type="scenario" needs a non-empty scenarios tuple')
            from repro.scenarios.library import normalize_scenario

            object.__setattr__(
                self,
                "scenarios",
                _dedup(tuple(normalize_scenario(name) for name in self.scenarios)),
            )
        elif self.scenarios:
            raise ValueError(
                f"scenarios only apply to task_type='scenario' (got {self.task_type!r})"
            )
        else:
            object.__setattr__(self, "scenarios", None)
        if self.workloads:
            if self.task_type != "msgpass":
                raise ValueError(
                    f"workloads only apply to task_type='msgpass' (got {self.task_type!r})"
                )
            unknown = [name for name in self.workloads if name not in WORKLOADS]
            if unknown:
                raise ValueError(
                    f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}"
                )
            object.__setattr__(self, "workloads", _dedup(tuple(self.workloads)))
            if "election" in self.workloads and (
                self.heights is not None or any(name != "ring" for name in self.families)
            ):
                raise ValueError(
                    "the election workload runs on rings; use families=('ring',)"
                )
        else:
            object.__setattr__(self, "workloads", None)
        # Axes are deduplicated order-preservingly: aliases ("stno" and
        # "stno-bfs") or repeated values would otherwise expand to tasks with
        # identical config hashes, double-counting their rows.
        object.__setattr__(self, "sizes", _dedup(_as_int_tuple(self.sizes, "sizes")))
        object.__setattr__(self, "heights", _dedup(_as_int_tuple(self.heights, "heights")))
        object.__setattr__(
            self, "protocols", _dedup(tuple(normalize_protocol(name) for name in self.protocols))
        )
        object.__setattr__(
            self, "daemons", _dedup(tuple(normalize_daemon(kind) for kind in self.daemons))
        )
        if self.heights is not None:
            object.__setattr__(self, "families", (HEIGHT_TREE_FAMILY,))
        else:
            object.__setattr__(
                self, "families", _dedup(tuple(normalize_family(name) for name in self.families))
            )
        if not self.protocols:
            raise ValueError("protocols must not be empty")
        if not self.families:
            raise ValueError("families must not be empty")
        if not self.daemons:
            raise ValueError("daemons must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # Every size/height cell must make a valid NetworkSpec, so a bad grid
        # fails here -- before a campaign opens (and stamps) its store.
        for size in self.sizes:
            for height in self.heights or (None,):
                NetworkSpec(family=self.families[0], size=size, height=height)

    def __len__(self) -> int:
        heights = len(self.heights) if self.heights is not None else 1
        scenarios = len(self.scenarios) if self.scenarios is not None else 1
        workloads = len(self.workloads) if self.workloads is not None else 1
        return (
            len(self.protocols)
            * len(self.families)
            * len(self.sizes)
            * heights
            * len(self.daemons)
            * scenarios
            * workloads
            * self.trials
        )

    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self.expand())

    def expand(self) -> list[TaskSpec]:
        """The grid's tasks, in deterministic axis-major order."""
        tasks: list[TaskSpec] = []
        height_axis: tuple[int | None, ...] = self.heights if self.heights is not None else (None,)
        scenario_axis: tuple[str | None, ...] = (
            self.scenarios if self.scenarios is not None else (None,)
        )
        # "broadcast" is the default workload: storing it as None keeps the
        # config hash of pre-workload-axis msgpass grids byte-identical.
        workload_axis: tuple[str | None, ...] = (
            tuple(None if name == "broadcast" else name for name in self.workloads)
            if self.workloads is not None
            else (None,)
        )
        for protocol in self.protocols:
            for family in self.families:
                for size in self.sizes:
                    for height in height_axis:
                        for daemon in self.daemons:
                            for scenario in scenario_axis:
                                for workload in workload_axis:
                                    for trial in range(self.trials):
                                        tasks.append(
                                            TaskSpec(
                                                protocol=protocol,
                                                family=family,
                                                size=size,
                                                daemon=daemon,
                                                trial=trial,
                                                grid_seed=self.seed,
                                                after_substrate=self.after_substrate,
                                                height=height,
                                                pair_networks=self.pair_networks,
                                                task_type=self.task_type,
                                                scenario=scenario,
                                                workload=workload,
                                                index=len(tasks),
                                            )
                                        )
        return tasks

    def shard(self, index: int, count: int) -> list[TaskSpec]:
        """Deterministic hash-keyed slice ``index`` of ``count`` of this grid.

        A task belongs to shard ``index`` iff ``config_hash mod count ==
        index``, so the ``count`` slices are disjoint, cover the grid, and --
        because the key is the same config hash the stores dedup on -- a task
        lands in the same shard on every machine, for any axis order, whether
        or not other machines' grids were edited.  Run each slice on its own
        machine (``repro-campaign run --shard I/K``) and re-unite the stores
        with ``repro-campaign merge``.
        """
        if count < 1:
            raise ValueError(f"shard count must be >= 1 (got {count})")
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} out of range 0..{count - 1}")
        return [
            task for task in self.expand() if int(task.config_hash, 16) % count == index
        ]

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly description of the grid (for store metadata / logs)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_axis(text: str) -> tuple[int, ...]:
    """Parse a CLI axis spec into a tuple of integers.

    Three forms are accepted:

    * ``"8,16,24"`` -- an explicit comma-separated list;
    * ``"8:64"`` -- a doubling sweep from 8 up to 64 (``8, 16, 32, 64``);
    * ``"8:64:8"`` -- an arithmetic sweep with the given step.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty axis spec")
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range spec {text!r}; use start:stop or start:stop:step")
        start, stop = int(parts[0]), int(parts[1])
        if start < 1 or stop < start:
            raise ValueError(f"bad range spec {text!r}; need 1 <= start <= stop")
        if len(parts) == 3:
            step = int(parts[2])
            if step < 1:
                raise ValueError(f"bad range spec {text!r}; step must be >= 1")
            return tuple(range(start, stop + 1, step))
        values = []
        value = start
        while value <= stop:
            values.append(value)
            value *= 2
        return tuple(values)
    return tuple(int(part) for part in text.split(","))


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a CLI shard spec ``"I/K"`` into ``(index, count)``.

    ``I`` is 0-based: ``--shard 0/4`` .. ``--shard 3/4`` cover a grid.
    """
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ValueError(f"bad shard spec {text!r}; use INDEX/COUNT, e.g. 0/4")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad shard spec {text!r}; use INDEX/COUNT, e.g. 0/4") from exc
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"bad shard spec {text!r}; need 0 <= INDEX < COUNT (COUNT >= 1)"
        )
    return index, count


__all__ = [
    "DEFAULT_TASK_TYPE",
    "Grid",
    "IDENTITY_FIELDS",
    "NETWORK_IDENTITY_FIELDS",
    "TASK_ENGINES",
    "TaskSpec",
    "parse_axis",
    "parse_shard",
]
