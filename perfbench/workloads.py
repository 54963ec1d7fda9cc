"""The benchmark's workloads: what one operation is, and what it must return.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload derives all of its inputs
from the seed it is given; the package under test sees only the resulting
:class:`~repro.api.RunSpec` or campaign grid.

* ``dftno-dense``: one op is ``repro.api.run`` of DFTNO on a dense
  ``random_connected`` network (n=80, m within 530 +- 8) under the distributed
  daemon -- legitimacy checking through the closure window dominates.
* ``stno-tree-sync``: one op is ``repro.api.run`` of STNO-bfs on a
  height-controlled tree (n=2000, h=40) under the synchronous daemon, with
  its move count pinned to 54000 +- 1500 -- the step loop dominates and the
  run ends when the protocol falls silent.
* ``campaign-mixed``: one op is one campaign task of a ``CampaignRunner``
  (``jobs=1``) pass over three grids (stabilize, scenario, msgpass; 136
  tasks), including the task's write into a fresh SQLite store.

Every op's row is checked against a reference row computed once, untimed,
on the ``scheduler-fullscan`` engine (the full-guard-scan twin of the
default engine).  Task types without such a twin (scenario, msgpass) are
referenced by an untimed run on their own engine.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro import __version__ as code_version
from repro.api import NetworkSpec, RunSpec, run
from repro.campaign import CampaignRunner, Grid, open_store, run_task
from repro.campaign.tasks import network_spec_for_task, runspec_for_task
from repro.obs.instrument import Instrumentation

#: The differential twin every scheduler op is checked against.
REFERENCE_ENGINE = "scheduler-fullscan"

#: Row keys that describe how a run was measured rather than what it computed.
VOLATILE_KEYS = frozenset({"perf"})

#: Traced operations per traced pass of a single-spec workload.
TRACED_OPS = 2

#: ``dftno-dense``'s edge count (n=80) and the tolerance around it.
DENSE_EDGES = (530, 8)

#: ``stno-tree-sync``'s moves per op and the tolerance around them.
TREE_MOVES = (54_000, 1_500)

#: Run seeds tried when pinning an op's move count.
PIN_ATTEMPTS = 30


#: ``wall(start, end)``: the seconds between two ``time.perf_counter()``
#: readings that count as the program's; the timed loop passes one that leaves
#: out the calibration samples taken in between.
Wall = Callable[[float, float], float]


def elapsed(start: float, end: float) -> float:
    return end - start


def comparable(row: dict[str, Any]) -> dict[str, Any]:
    """``row`` without its measurement-only keys."""
    return {key: value for key, value in row.items() if key not in VOLATILE_KEYS}


@dataclass
class Op:
    """One completed (or failed) operation."""

    kind: str
    wall: float
    row: dict[str, Any] | None
    error: str | None = None


@dataclass
class Outcome:
    """The operations of one measured pass and the wall clock they took."""

    ops: list[Op] = field(default_factory=list)
    wall: float = 0.0
    #: Operations that never produced a row (a pass aborted part-way).
    lost: int = 0


class SpecWorkload:
    """A workload whose op is one ``repro.api.run(spec)`` of a fixed spec."""

    def __init__(self, name: str, make_spec: Callable[[int], RunSpec], seed: int,
                 moves: tuple[int, int] | None = None) -> None:
        self.name = name
        self.make_spec = make_spec
        self.seed = seed
        self.moves = moves
        self.labels: dict[str, Any] = {}
        self.expected: dict[str, Any] = {}

    def setup(self) -> None:
        self.spec = self.make_spec(self.seed)
        network = self.spec.network.build()
        self.labels = {"n": network.n, "m": network.num_edges()}
        if self.spec.network.height is not None:
            self.labels["h"] = self.spec.network.height

    def reference(self) -> None:
        """Compute the reference row, untimed; with ``moves`` set, also pin the op's work.

        STNO's move count swings by +-10% with the random initial
        configuration, so with ``moves = (target, tolerance)`` the op runs the
        first of the run seeds ``seed, seed + 10000, ...`` whose reference run
        makes a move count within the tolerance; the network stays the seed's.
        """
        for attempt in range(PIN_ATTEMPTS):
            spec = replace(self.spec, seed=self.seed + 10_000 * attempt)
            result = run(replace(spec, engine=REFERENCE_ENGINE), instrumentation=Instrumentation())
            counters = result.perf["counters"]
            if self.moves is None or abs(counters.get("moves_executed", 0) - self.moves[0]) <= self.moves[1]:
                break
        else:
            raise RuntimeError(f"{self.name}: no run seed in {PIN_ATTEMPTS} attempts "
                               f"makes {self.moves[0]} +- {self.moves[1]} moves")
        self.spec = spec
        self.labels["run_seed"] = spec.seed
        self.expected = comparable(result.row)
        self.labels["steps_per_op"] = counters.get("steps_timed", 0)
        self.labels["moves_per_op"] = counters.get("moves_executed", 0)

    def corrupt_reference(self) -> None:
        self.expected["n"] = int(self.expected["n"]) + 1

    def check(self, op: Op) -> bool:
        return (
            op.error is None
            and op.row is not None
            and op.row.get("converged") is True
            and comparable(op.row) == self.expected
        )

    def _op(self, instrumentation: Instrumentation | None = None, wall: Wall = elapsed) -> Op:
        started = time.perf_counter()
        try:
            row = run(self.spec, instrumentation=instrumentation).row
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return Op("run", wall(started, time.perf_counter()), None, repr(exc))
        return Op("run", wall(started, time.perf_counter()), row)

    def warm_up(self) -> None:
        self._op()

    def timed(self, seconds: float, wall: Wall = elapsed) -> Outcome:
        """Run ops until they have taken ``seconds`` of op wall."""
        outcome = Outcome()
        while outcome.wall < seconds or not outcome.ops:
            op = self._op(wall=wall)
            outcome.ops.append(op)
            outcome.wall += op.wall
        return outcome

    def traced(self, layers) -> Outcome:
        outcome = Outcome()
        for _ in range(TRACED_OPS):
            layers.begin_op(workload=self.name)
            outcome.ops.append(self._op(Instrumentation()))
            layers.end_op()
        return outcome

    def close(self) -> None:
        pass


def dftno_dense_spec(seed: int, quick: bool = False) -> RunSpec:
    """DFTNO on a dense graph whose edge count stays within ``DENSE_EDGES``.

    ``random_connected``'s m varies with its seed (512..571 at n=80), and a
    DFTNO run's work grows with (n + m)^2: the closure window is 3(n + m) + 10
    steps of O(n + m) legitimacy checks.  Taking the first of the seeds
    ``seed, seed + 10000, ...`` whose graph has m within the tolerance keeps
    the input size fixed while the seed still picks the graph.
    """
    network = NetworkSpec(family="random_connected", size=16, seed=seed)
    if not quick:
        candidates = (
            NetworkSpec(family="random_connected", size=80, seed=seed + 10_000 * k)
            for k in itertools.count()
        )
        target, tolerance = DENSE_EDGES
        network = next(
            spec for spec in candidates if abs(spec.build().num_edges() - target) <= tolerance
        )
    return RunSpec(protocol="dftno", network=network, daemon="distributed", seed=seed)


def stno_tree_sync_spec(seed: int, quick: bool = False) -> RunSpec:
    size, height = (100, 8) if quick else (2000, 40)
    return RunSpec(
        protocol="stno-bfs",
        network=NetworkSpec(family="height_tree", size=size, height=height, seed=seed),
        daemon="synchronous",
        seed=seed,
    )


def campaign_grids(seed: int, quick: bool = False) -> tuple[Grid, ...]:
    """The three grids of one ``campaign-mixed`` pass (136 tasks; 6 when quick)."""
    if quick:
        return (
            Grid(sizes=(6,), protocols=("dftno", "stno-bfs"), families=("random_tree",),
                 daemons=("distributed", "synchronous"), seed=seed),
            Grid(sizes=(8,), protocols=("dftno",), task_type="scenario",
                 scenarios=("single_burst",), seed=seed),
            Grid(sizes=(8,), task_type="msgpass", workloads=("broadcast",), seed=seed),
        )
    return (
        Grid(
            sizes=(8, 12, 16),
            protocols=("dftno", "stno-bfs", "stno-dfs"),
            families=("random_connected", "random_tree"),
            daemons=("distributed", "central", "synchronous"),
            trials=2,
            seed=seed,
        ),
        Grid(
            sizes=(12,),
            protocols=("dftno", "stno-bfs"),
            task_type="scenario",
            scenarios=("single_burst", "cascade", "churn"),
            trials=2,
            seed=seed,
        ),
        Grid(
            sizes=(32, 64),
            families=("random_connected", "grid"),
            task_type="msgpass",
            workloads=("broadcast", "traversal"),
            trials=2,
            seed=seed,
        ),
    )


class CampaignWorkload:
    """A workload whose op is one task of a single-process campaign pass.

    Each pass writes into a fresh SQLite store, opened (like the campaign
    CLI does: open, then stamp grid metadata) before the pass's clock starts.
    """

    name = "campaign-mixed"

    def __init__(self, seed: int, workdir: Path, quick: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.labels: dict[str, Any] = {}
        self.expected: dict[str, dict[str, Any]] = {}
        self.store = None
        self._stores_opened = 0

    def _open_store(self) -> None:
        self.close()
        self._stores_opened += 1
        path = self.workdir / f"campaign-seed{self.seed}-{self._stores_opened}.sqlite"
        path.unlink(missing_ok=True)
        self.store = open_store(path)
        self.store.update_metadata(
            grids=[grid.as_dict() for grid in self.grids], code_version=code_version
        )

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store.path.unlink(missing_ok=True)
            self.store = None

    def setup(self) -> None:
        self.grids = campaign_grids(self.seed, self.quick)
        self.tasks = [task for grid in self.grids for task in grid.expand()]
        networks = [network_spec_for_task(task).build() for task in self.tasks]
        self.labels = {
            "tasks": len(self.tasks),
            "n": f"{min(net.n for net in networks)}..{max(net.n for net in networks)}",
            "m": f"{min(net.num_edges() for net in networks)}..{max(net.num_edges() for net in networks)}",
            "m_total": sum(net.num_edges() for net in networks),
        }
        self._open_store()

    def reference(self) -> None:
        steps = moves = 0
        for task in self.tasks:
            spec = runspec_for_task(task)
            if spec.engine == "scheduler":
                spec = replace(spec, engine=REFERENCE_ENGINE)
            result = run(spec, instrumentation=Instrumentation())
            counters = result.perf["counters"]
            steps += counters.get("steps_timed", 0)
            moves += counters.get("moves_executed", 0)
            row = comparable(result.row)
            row.update(task.identity())
            row["config_hash"] = task.config_hash
            row["task_index"] = task.index
            self.expected[task.config_hash] = row
        self.labels["steps_per_op"] = steps / len(self.tasks)
        self.labels["moves_per_op"] = moves / len(self.tasks)

    def corrupt_reference(self) -> None:
        first = self.expected[self.tasks[0].config_hash]
        first["n"] = int(first["n"]) + 1

    def check(self, op: Op) -> bool:
        if op.error is not None or op.row is None or op.row.get("converged") is not True:
            return False
        expected = self.expected.get(str(op.row.get("config_hash")))
        return expected is not None and comparable(op.row) == expected

    def _pass(self, perf: bool = False, layers=None, wall: Wall = elapsed) -> Outcome:
        """Run every grid once into the current store, timing each task."""
        outcome = Outcome()
        aborted = False
        runner = CampaignRunner(store=self.store, jobs=1, perf=perf)
        for grid in self.grids:
            marks: list[float] = []
            done: list[Op] = []

            def progress(row: dict[str, Any]) -> None:
                marks.append(time.perf_counter())
                done.append(Op(str(row.get("task_type", "stabilize")), wall(*marks[-2:]), row))
                if layers is not None:
                    layers.end_op()
                    layers.begin_op(workload=self.name)

            if layers is not None:
                layers.begin_op(workload=self.name)
            marks.append(time.perf_counter())
            failure = None
            try:
                runner.run(grid, progress=progress)
            except Exception as exc:  # the raising task failed; the rest never ran
                failure = Op("campaign", wall(marks[-1], time.perf_counter()), None, repr(exc))
            finally:
                outcome.wall += wall(marks[0], time.perf_counter())
                if layers is not None:
                    layers.end_op(discard=True)
            outcome.ops.extend(done)
            if failure is not None:
                aborted = True
                outcome.ops.append(failure)
                outcome.lost += len(grid) - len(done) - 1
        if not aborted and len(self.store) != len(self.tasks):
            # Every task reported a row, but the store did not keep them all.
            outcome.lost += abs(len(self.tasks) - len(self.store))
        self._open_store()
        return outcome

    def warm_up(self) -> None:
        # One task of each grid, into a store the first timed pass replaces.
        for grid in self.grids:
            self.store.append(run_task(grid.expand()[0]))
        self._open_store()

    def timed(self, seconds: float, wall: Wall = elapsed) -> Outcome:
        """Run whole passes until they have taken ``seconds`` of pass wall."""
        total = Outcome()
        while total.wall < seconds or not total.ops:
            one = self._pass(wall=wall)
            total.ops.extend(one.ops)
            total.wall += one.wall
            total.lost += one.lost
        return total

    def traced(self, layers) -> Outcome:
        return self._pass(perf=True, layers=layers)
