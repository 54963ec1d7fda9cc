"""Outside-in layer tracing: spans around the public entry points of each layer.

The benchmark never edits the package it measures.  For the traced run it
temporarily replaces a handful of public functions and methods with thin
wrappers that open a :class:`repro.obs.spans.Span` around the original call,
so every call into a layer becomes one span parented on whatever span was open
when it started.  The spans land in an in-memory
:class:`repro.obs.spans.ListSpanSink` and are written out only when the run
ends.  A layer's *self time* is its spans' durations minus their children's;
:func:`layer_metrics` folds the spans of each operation into the per-layer
metrics the benchmark prints.

Layers and the entry points that stand for them:

* ``runtime``  -- ``Scheduler.step`` and ``Scheduler.__init__``;
* ``legitimacy`` -- every protocol layer's own ``legitimate`` predicate
  (:mod:`repro.core`, :mod:`repro.substrates`, :mod:`repro.runtime.composition`);
* ``graphs`` -- ``NetworkSpec.build``;
* ``campaign`` -- ``SqliteResultStore.append``;
* ``scenarios`` -- ``ScenarioRunner.run``;
* ``msgpass`` -- the message-passing workloads of :mod:`repro.sod.traversal`
  and the reference orientation they run on.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from typing import Any, Callable, Iterable, Mapping

from repro.api.spec import NetworkSpec
from repro.campaign.store import SqliteResultStore
from repro.core import baseline
from repro.obs.spans import ListSpanSink, SpanTracer, to_chrome_trace
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.scenarios.runner import ScenarioRunner
from repro.sod import traversal

#: Span name of one benchmark operation (the root of every other span).
OP = "op"
STEP = "runtime.step"
INIT = "runtime.init"
LEGITIMACY = "legitimacy"
BUILD = "graphs.build"
STORE = "campaign.store_append"
SCENARIO = "scenarios.run"
MSGPASS = "msgpass.sim"


def _network_size(network: Any) -> dict[str, int]:
    return {"nodes": network.n, "edges": network.num_edges()}


def _protocol_classes() -> list[type]:
    """Every loaded :class:`Protocol` subclass that defines ``legitimate`` itself."""
    # Imported for their side effect of defining the protocol classes.
    import repro.core.dftno  # noqa: F401
    import repro.core.stno  # noqa: F401
    import repro.runtime.composition  # noqa: F401
    import repro.substrates  # noqa: F401

    found: list[type] = []
    pending = list(Protocol.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "legitimate" in cls.__dict__ and cls not in found:
            found.append(cls)
    return found


def _targets() -> list[tuple[object, str, str, Callable[[Any], dict] | None]]:
    """``(owner, attribute, span name, annotate-from-result)`` of every wrapped call."""
    targets: list[tuple[object, str, str, Callable[[Any], dict] | None]] = [
        (Scheduler, "step", STEP, None),
        (Scheduler, "__init__", INIT, None),
        (NetworkSpec, "build", BUILD, _network_size),
        (SqliteResultStore, "append", STORE, None),
        (ScenarioRunner, "run", SCENARIO, None),
        (baseline, "centralized_orientation", MSGPASS, None),
    ]
    for name in (
        "broadcast_with_sod",
        "broadcast_without_sod",
        "dfs_traversal_with_sod",
        "dfs_traversal_without_sod",
    ):
        targets.append((traversal, name, MSGPASS, None))
    for cls in _protocol_classes():
        targets.append((cls, "legitimate", LEGITIMACY, None))
    return targets


class LayerTrace:
    """Installs the layer wrappers and records their spans in memory.

    Use as a context manager around the traced pass; between
    :meth:`begin_op` and :meth:`end_op` every wrapped call becomes a span
    tagged with that operation's span id.
    """

    def __init__(self) -> None:
        self.sink = ListSpanSink()
        self.tracer = SpanTracer(self.sink)
        self._stack: list[Any] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original: Callable, name: str, annotate: Callable[[Any], dict] | None):
        tracer = self.tracer
        stack = self._stack

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.span(name, kind=name, parent=stack[-1] if stack else None, op=self._op)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                if annotate is not None:
                    span.annotate(**annotate(result))
                return result
            finally:
                stack.pop()
                span.close()

        return traced

    def __enter__(self) -> "LayerTrace":
        for owner, attribute, name, annotate in _targets():
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, annotate))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        while self._stack:
            self._stack.pop().close()

    def begin_op(self, **fields: Any) -> None:
        """Open the root span of the next operation."""
        span = self.tracer.span(OP, kind=OP, **fields)
        span.annotate(op=span.span_id)
        self._op = span.span_id
        self._stack.append(span)

    def end_op(self, discard: bool = False) -> None:
        """Close the current operation (``discard`` keeps it out of the metrics)."""
        span = self._stack.pop()
        if discard:
            span.annotate(op=None)
        span.close()
        self._op = None

    @property
    def records(self) -> list[dict[str, Any]]:
        return self.sink.records

    def write(self, jsonl_path: str, chrome_path: str) -> None:
        """Write the recorded spans as JSONL and as a Chrome trace."""
        with open(jsonl_path, "w", encoding="utf-8") as stream:
            for record in self.records:
                stream.write(json.dumps(record, sort_keys=True) + "\n")
        with open(chrome_path, "w", encoding="utf-8") as stream:
            json.dump(to_chrome_trace(self.records), stream)


def _self_times(records: list[Mapping[str, Any]]) -> list[dict[str, float]]:
    """Per operation: self seconds by span name, the op wall, and call counts."""
    names = {record["span"]: record["name"] for record in records}
    children: dict[int, float] = defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            children[record["parent"]] += record["seconds"]

    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for record in records:
        op, name = record.get("op"), record["name"]
        if op is None:
            continue  # outside any operation
        totals = per_op[op]
        if name == OP:
            totals["wall"] = record["seconds"]
            continue
        totals[name] += record["seconds"] - children[record["span"]]
        if name == LEGITIMACY and names.get(record["parent"]) != LEGITIMACY:
            totals["legitimacy_calls"] += 1
        if name == BUILD:
            totals["builds"] += 1
            totals["nodes"] += record.get("nodes", 0)
            totals["edges"] += record.get("edges", 0)
    # A discarded op span carries no op id, so its totals never get a wall.
    return [totals for totals in per_op.values() if "wall" in totals]


def _row_bytes(row: Mapping[str, Any]) -> int:
    """Size of ``row`` as the SQLite store serializes it."""
    return len(json.dumps(row, sort_keys=True, separators=(",", ":"), default=str))


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    records: list[Mapping[str, Any]],
    traced_rows: list[Mapping[str, Any]],
    untraced: list[tuple[str, float, Mapping[str, Any]]],
) -> dict[str, tuple[float, str]]:
    """Fold a traced pass into the per-layer metrics, as ``name -> (value, unit)``.

    ``traced_rows`` are the rows of the traced operations (carrying the
    ``perf`` summary of the run's :class:`~repro.obs.Instrumentation`);
    ``untraced`` holds ``(kind, wall, row)`` of the untraced operations of the
    same run, the baseline for ``trace.overhead`` and the per-task-type
    campaign latencies.  Times and counts are per operation unless the name
    says otherwise.
    """
    per_op = _self_times(records)
    ops = len(per_op) or 1
    wall = sum(op["wall"] for op in per_op) or float("nan")

    def total(name: str) -> float:
        return sum(op.get(name, 0.0) for op in per_op)

    step, init = total(STEP), total(INIT)
    legit, build, store = total(LEGITIMACY), total(BUILD), total(STORE)
    attributed = step + init + legit + build + store + total(SCENARIO) + total(MSGPASS)
    builds = total("builds") or 1

    counters: dict[str, float] = defaultdict(float)
    phases: dict[str, float] = defaultdict(float)
    closure: list[int] = []
    for row in traced_rows:
        perf = row.get("perf") or {}
        for name, value in perf.get("counters", {}).items():
            counters[name] += value
        for name, entry in perf.get("phases", {}).items():
            phases[name] += entry["seconds"]
        if row.get("full_steps") is not None and "total_steps" in row:
            closure.append(int(row["total_steps"]) - int(row["full_steps"]))
    steps = counters["steps_timed"]
    moves = counters["moves_executed"]
    guards = counters["guards_evaluated"]

    by_kind: dict[str, list[float]] = defaultdict(list)
    campaign_rows = []
    for kind, seconds, row in untraced:
        by_kind[kind].append(seconds)
        if kind != "run":
            campaign_rows.append(row)
    untraced_mean = (
        statistics.fmean(seconds for _, seconds, _ in untraced) if untraced else float("nan")
    )

    return {
        "legitimacy.check_s": (legit / ops, "s"),
        "legitimacy.calls": (total("legitimacy_calls") / ops, "count"),
        "legitimacy.share": (legit / wall, "ratio"),
        "harness.closure_steps": (statistics.fmean(closure) if closure else 0.0, "count"),
        "runtime.step_s": (step / ops, "s"),
        "runtime.step_share": (step / wall, "ratio"),
        "runtime.init_s": (init / ops, "s"),
        "runtime.steps": (steps / ops, "count"),
        "runtime.moves": (moves / ops, "count"),
        "runtime.moves_per_step": (moves / steps if steps else 0.0, "ratio"),
        "runtime.guards_evaluated": (guards / ops, "count"),
        "runtime.guard_yield": (moves / guards if guards else 0.0, "ratio"),
        "runtime.guard_eval_s": (phases["guard_eval"] / ops, "s"),
        "runtime.action_exec_s": (phases["action_exec"] / ops, "s"),
        "runtime.daemon_select_s": (phases["daemon_select"] / ops, "s"),
        "graphs.build_s": (build / ops, "s"),
        "graphs.nodes": (total("nodes") / builds, "count"),
        "graphs.edges": (total("edges") / builds, "count"),
        "campaign.store_append_s": (store / ops, "s"),
        "campaign.row_bytes": (_median(_row_bytes(row) for row in campaign_rows), "bytes"),
        "campaign.stabilize_s_p50": (_median(by_kind["stabilize"]), "s"),
        "campaign.scenario_s_p50": (_median(by_kind["scenario"]), "s"),
        "campaign.msgpass_s_p50": (_median(by_kind["msgpass"]), "s"),
        "harness.self_s": ((wall - step - legit - build - store) / ops, "s"),
        "trace.coverage": (attributed / wall, "ratio"),
        "trace.overhead": ((wall / ops) / untraced_mean - 1.0, "ratio"),
    }


__all__ = ["LayerTrace", "layer_metrics"]
