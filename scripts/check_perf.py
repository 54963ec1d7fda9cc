#!/usr/bin/env python3
"""Perf regression gate: compare a quick-bench run against the trajectory.

``BENCH_history.jsonl`` accumulates one line per benchmark invocation
(appended by the benches themselves, locally via ``scripts/smoke.sh`` and in
CI); this script closes the loop by judging the *current* run against that
history with explicit thresholds::

    PYTHONPATH=src python scripts/check_perf.py                       # defaults
    PYTHONPATH=src python scripts/check_perf.py \
        --current BENCH_scheduler.json --history BENCH_history.jsonl \
        --max-ratio 2.0 --require-history                             # CI gate

Three gates, machine-robust by construction:

1. **Absolute invariants** from the current payload alone -- the disabled
   instrumentation path within its budget, phase coverage above its floor
   (both thresholds are recorded in the payload itself, so gate and bench
   cannot drift apart).
2. **Speedup trajectory** -- the incremental-vs-fullscan speedup at each
   size is a ratio of two timings on the *same* machine, hence directly
   comparable across machines.  The current speedup must stay within
   ``--max-ratio`` of the history median per size, over the history lines
   whose edge count ``m`` at that size (``m_by_n``) matches the current
   run's; lines without the label still count.
3. **Phase-time trajectory** -- absolute phase seconds are not comparable
   across machines, so both sides are normalized to *calibration units*:
   per-step phase seconds divided by ``calibration_seconds``, the fixed
   pure-Python loop every history line carries (see
   ``benchmarks.bench_utils.machine_calibration``).  The current run's
   normalized per-step cost of each phase must stay within ``--max-ratio``
   of the history median; phases under ``--min-share`` of total phase time
   are skipped as noise.

Medians (not means) make the gate robust to one slow outlier line -- and to
the current run's own just-appended history entry.  An empty or
non-comparable history is a loud warning but a clean exit unless
``--require-history`` is given (CI passes it: the repo commits a baseline,
so "no history" there means the gate is silently disabled -- exactly the
failure mode this flag exists to catch).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

DEFAULT_CURRENT = REPO_ROOT / "BENCH_scheduler.json"
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"

#: A phase-time regression is a normalized per-step cost more than this many
#: times the history median.
DEFAULT_MAX_RATIO = 2.0

#: Phases below this share of total phase time are noise, not signal.
DEFAULT_MIN_SHARE = 0.05


def _as_float(value: object) -> float | None:
    """``value`` as a finite float, or ``None`` when it is nothing of the sort.

    The trajectory file is append-only and shared by every benchmark, present
    and future -- a line from an unknown bench (or an older schema) may carry
    strings, nulls, nested dicts or booleans where this gate expects numbers.
    Unparseable entries must degrade to "not comparable", never to a crash.
    """
    if isinstance(value, bool):  # bool subclasses int; True is not a timing
        return None
    if isinstance(value, (int, float)):
        result = float(value)
    elif isinstance(value, str):
        try:
            result = float(value)
        except ValueError:
            return None
    else:
        return None
    return result if result == result and result not in (float("inf"), float("-inf")) else None


#: Key under which :func:`load_history` stamps each line's ``file:line``
#: provenance, so every "skipped as non-comparable" warning can name the
#: exact trajectory line that caused it.
SOURCE_KEY = "_source"


def load_history(path: Path, benchmark: str, emit=None) -> list[dict]:
    """The trajectory lines for ``benchmark``, oldest first; bad lines skipped.

    Every returned line carries its ``file:line`` origin under
    :data:`SOURCE_KEY`.  Lines that are not JSON at all are skipped with a
    warning through ``emit`` (when given) naming the offending line -- an
    append-only shared file accumulates damage silently otherwise.
    """
    if not path.exists():
        return []
    lines: list[dict] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            line = json.loads(raw)
        except json.JSONDecodeError as exc:
            if emit is not None:
                emit(f"warning: {path.name}:{lineno}: not JSON ({exc}) -- line skipped")
            continue
        if isinstance(line, dict) and line.get("benchmark") == benchmark:
            line[SOURCE_KEY] = f"{path.name}:{lineno}"
            lines.append(line)
    return lines


def normalized_phases(payload: dict) -> dict[str, float] | None:
    """Per-phase cost in calibration units per step, or ``None`` if absent.

    Needs the ``instrumentation`` block with raw ``phases`` seconds and a
    step count, plus the machine's ``calibration_seconds`` -- older history
    lines predating either are simply not comparable.
    """
    instrumentation = payload.get("instrumentation")
    calibration = _as_float(payload.get("calibration_seconds"))
    if not isinstance(instrumentation, dict) or not calibration or calibration <= 0:
        return None
    phases = instrumentation.get("phases")
    steps = _as_float(instrumentation.get("steps"))
    if not isinstance(phases, dict) or not phases or not steps or steps <= 0:
        return None
    normalized = {}
    for name, seconds in phases.items():
        value = _as_float(seconds)
        if value is not None:
            normalized[str(name)] = value / (steps * calibration)
    return normalized or None


def noncomparable_reason(payload: dict) -> str:
    """Why :func:`normalized_phases` returned ``None`` for ``payload``.

    Mirrors that function's checks in order, so the reason names the first
    missing ingredient -- the thing to fix (or the schema vintage to blame)
    on that particular trajectory line.
    """
    instrumentation = payload.get("instrumentation")
    if not isinstance(instrumentation, dict):
        return "no instrumentation block"
    if not _as_float(payload.get("calibration_seconds")):
        return "no usable calibration_seconds"
    phases = instrumentation.get("phases")
    if not isinstance(phases, dict) or not phases:
        return "no phases dict"
    steps = _as_float(instrumentation.get("steps"))
    if not steps or steps <= 0:
        return "no usable step count"
    return "no numeric phase timings"


def check_absolute(current: dict, failures: list[str]) -> None:
    """Gate 1: the payload's own recorded thresholds must hold."""
    instrumentation = current.get("instrumentation")
    if not isinstance(instrumentation, dict):
        return
    disabled = _as_float(instrumentation.get("disabled_overhead"))
    budget = _as_float(instrumentation.get("max_disabled_overhead"))
    if disabled is not None and budget is not None and disabled > budget:
        failures.append(
            f"disabled instrumentation path costs {100 * disabled:.2f}% "
            f"of step wall (budget {100 * budget:.0f}%)"
        )
    coverage = _as_float(instrumentation.get("phase_coverage"))
    floor = _as_float(instrumentation.get("min_phase_coverage"))
    if coverage is not None and floor is not None and coverage < floor:
        failures.append(
            f"phase coverage {100 * coverage:.1f}% below floor {100 * floor:.0f}%"
        )
    recorder = current.get("recorder")
    if isinstance(recorder, dict):
        overhead = _as_float(recorder.get("recorder_overhead"))
        budget = _as_float(recorder.get("max_recorder_overhead"))
        if overhead is not None and budget is not None and overhead > budget:
            failures.append(
                f"flight recorder costs {100 * overhead:.2f}% of step wall "
                f"(budget {100 * budget:.0f}%)"
            )


def _same_workload(current_edges: dict, line: dict, size: str) -> bool:
    """Whether history ``line`` measured size ``size`` on the current edge count.

    Lines (or runs) that predate the ``m_by_n`` label cannot tell, and count
    as the same workload, as they always did.
    """
    past_edges = line.get("m_by_n")
    if not isinstance(past_edges, dict):
        return True
    now, then = current_edges.get(size), past_edges.get(size)
    return now is None or then is None or now == then


def check_speedups(
    current: dict, history: list[dict], max_ratio: float, failures: list[str]
) -> int:
    """Gate 2: incremental-core speedups vs the history median per size."""
    current_speedups = current.get("speedup_by_n")
    if not isinstance(current_speedups, dict):
        return 0
    compared = 0
    current_edges = current.get("m_by_n")
    current_edges = current_edges if isinstance(current_edges, dict) else {}
    # str() keys: history lines from other benches may use non-string sizes.
    for size, raw in sorted(current_speedups.items(), key=lambda item: str(item[0])):
        speedup = _as_float(raw)
        past = []
        for line in history:
            speedups = line.get("speedup_by_n")
            if isinstance(speedups, dict) and _same_workload(current_edges, line, size):
                value = _as_float(speedups.get(size))
                if value:
                    past.append(value)
        if not past or not speedup:
            continue
        compared += 1
        median = statistics.median(past)
        floor = median / max_ratio
        if speedup < floor:
            failures.append(
                f"speedup at n={size} regressed: {speedup:.2f}x vs history "
                f"median {median:.2f}x over {len(past)} runs "
                f"(floor {floor:.2f}x at max-ratio {max_ratio:g})"
            )
    return compared


def check_phases(
    current: dict,
    history: list[dict],
    max_ratio: float,
    min_share: float,
    failures: list[str],
    emit=print,
) -> int:
    """Gate 3: normalized per-step phase costs vs the history median."""
    now = normalized_phases(current)
    if now is None:
        return 0
    past_by_phase: dict[str, list[float]] = {}
    for line in history:
        normalized = normalized_phases(line)
        if normalized is None:
            # Name the exact line: "the history silently shrank" is the
            # failure mode that turns this gate off without anyone noticing.
            source = line.get(SOURCE_KEY, "history line")
            emit(
                f"  warning: {source}: not phase-comparable "
                f"({noncomparable_reason(line)}) -- skipped"
            )
            continue
        for name, value in normalized.items():
            past_by_phase.setdefault(name, []).append(value)
    total = sum(now.values()) or 1.0
    compared = 0
    for name, value in sorted(now.items()):
        share = now[name] / total
        past = past_by_phase.get(name)
        if not past:
            continue
        if share < min_share:
            emit(
                f"  phase {name}: {100 * share:.1f}% of phase time, "
                f"below --min-share {100 * min_share:.0f}% -- skipped"
            )
            continue
        compared += 1
        median = statistics.median(past)
        ratio = value / median if median else 1.0
        verdict = "ok" if ratio <= max_ratio else "REGRESSED"
        emit(
            f"  phase {name}: {value:.4f} calib-units/step vs history median "
            f"{median:.4f} over {len(past)} runs -> x{ratio:.2f} {verdict}"
        )
        if ratio > max_ratio:
            failures.append(
                f"phase {name} per-step time regressed x{ratio:.2f} "
                f"(max-ratio {max_ratio:g}) vs {len(past)}-run history median"
            )
    return compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=Path,
        default=DEFAULT_CURRENT,
        metavar="PATH",
        help=f"current bench artifact (default {DEFAULT_CURRENT.name})",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=DEFAULT_HISTORY,
        metavar="PATH",
        help=f"trajectory JSONL (default {DEFAULT_HISTORY.name})",
    )
    parser.add_argument(
        "--benchmark",
        default="scheduler_core",
        metavar="NAME",
        help="history lines to compare against (default scheduler_core)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=DEFAULT_MAX_RATIO,
        metavar="R",
        help=f"fail when a metric worsens more than Rx vs the history median "
        f"(default {DEFAULT_MAX_RATIO})",
    )
    parser.add_argument(
        "--min-share",
        type=float,
        default=DEFAULT_MIN_SHARE,
        metavar="F",
        help="skip phases under this fraction of total phase time "
        f"(default {DEFAULT_MIN_SHARE})",
    )
    parser.add_argument(
        "--require-history",
        action="store_true",
        help="fail (exit 1) when the history holds nothing comparable -- the "
        "CI mode, where an empty trajectory means the gate is silently off",
    )
    args = parser.parse_args(argv)

    if not args.current.exists():
        print(f"error: current artifact {args.current} does not exist", file=sys.stderr)
        return 2
    try:
        current = json.loads(args.current.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        print(f"error: {args.current} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if "calibration_seconds" not in current:
        # Artifact files predate the calibration stamp (history lines carry
        # it); measure this machine now so gate 3 can normalize.
        from bench_utils import machine_calibration

        current["calibration_seconds"] = machine_calibration()

    history = load_history(args.history, args.benchmark, emit=print)
    print(
        f"check_perf: {args.current.name} vs {len(history)} "
        f"{args.benchmark!r} history line(s) in {args.history.name}"
    )

    failures: list[str] = []
    check_absolute(current, failures)
    compared = check_speedups(current, history, args.max_ratio, failures)
    compared += check_phases(
        current, history, args.max_ratio, args.min_share, failures
    )

    if failures:
        for failure in failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    if compared == 0:
        message = (
            "warning: nothing comparable in the trajectory (empty history, or "
            "lines without speedups/phases/calibration) -- the regression gate "
            "did not actually gate anything"
        )
        if args.require_history:
            print(f"FAILED: {message}", file=sys.stderr)
            return 1
        print(message)
        return 0
    print(f"ok: {compared} trajectory comparison(s), no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
