"""End-to-end benchmark of the DFTNO/STNO reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload dftno-dense --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``dftno-dense``,
``stno-tree-sync`` and ``campaign-mixed``.  One process, one client, closed
loop: each operation starts when the previous one returned, and no operation
runs in a pool or a worker process.

A run sets up (imports, specs, grids, networks, store) five times -- once
itself and once in each of four short-lived child interpreters started with
``--setup-only`` -- and reports the median as ``setup_s``.  It then computes
the reference rows (untimed), runs one discarded warm-up op, runs ops for
``--seconds`` of op wall and checks every op's row against its reference.
While the ops run, an interval timer interleaves samples of a fixed
calibration kernel (``perfbench/calibrate.py``), left out of the op walls;
every time (set-up and ops) is reported in seconds
of a reference host, the raw wall time scaled by how fast the kernel ran in
this run, so that the host's swings in CPU speed do not show as changes of
the program.  The raw figures are printed on the human-readable lines.  The
whole run executes under one fixed ``PYTHONHASHSEED`` (see ``HASH_SEED``).
With ``--trace 1`` it then runs one traced pass that times the calls into
each layer from outside (``perfbench/layers.py``), writes the spans under
``.perfbench/`` as JSONL and as a Chrome trace, and reports the per-layer
metrics (raw seconds) instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every op was correct, 1 when any op failed its check, and 2 when
the package under test cannot be imported (nothing is printed to stdout then).

``--quick`` shrinks every workload to a few-second smoke run and
``--corrupt-reference`` tampers with one reference row; the self-tests in
``perfbench/selftest.py`` use both.
"""

from __future__ import annotations

import os
import sys

#: String hashing is randomized per interpreter, and how the program's
#: str-keyed dicts happen to collide moves an op's wall by up to ~25% from one
#: process to the next.  The benchmark runs under this one fixed hash seed.
HASH_SEED = "0"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": HASH_SEED})

import time  # noqa: E402

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before any import
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dftno-dense", "stno-tree-sync", "campaign-mixed")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0
#: Set-ups per run (this process's and those of child interpreters); ``setup_s`` is their median.
SETUP_RUNS = 5
#: ``trace.coverage`` below this is reported with a warning.
COVERAGE_TARGET = 0.95


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench"),
                        help="directory for stores and trace files")
    parser.add_argument("--quick", action="store_true", help="tiny inputs (self-tests)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="tamper with one reference row (self-tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (a setup_s sample)")
    return parser.parse_args(argv)


def _import_package():
    """Import the package under test from this checkout's ``src``, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")
    from perfbench import calibrate, layers, workloads

    return calibrate, layers, workloads


def _child_setup_seconds(args: argparse.Namespace) -> float:
    """One whole set-up, imports included, in a fresh child interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--out", args.out, "--setup-only"]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def _make_workload(workloads, args: argparse.Namespace, workdir: Path):
    if args.workload == "campaign-mixed":
        return workloads.CampaignWorkload(args.seed, workdir, quick=args.quick)
    make_spec, moves = {
        "dftno-dense": (workloads.dftno_dense_spec, None),
        "stno-tree-sync": (workloads.stno_tree_sync_spec, workloads.TREE_MOVES),
    }[args.workload]
    return workloads.SpecWorkload(args.workload, partial(make_spec, quick=args.quick), args.seed,
                                  moves=None if args.quick else moves)


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated inside the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(setup_s: float, outcome, ops_ok: list, factor: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, every time scaled by the calibration ``factor``.

    Set-up ends before the first calibration sample, so scaling it by the
    run's factor does not remove the host's second-to-second swings from one
    run's ``setup_s``; it removes the drift over minutes, which is what moves
    its median over many runs.
    """
    walls = [op.wall for op in ops_ok] or [float("nan")]
    return {
        "setup_s": (setup_s * factor, "s"),
        "op_s_p50": (statistics.median(walls) * factor, "s"),
        "op_s_p90": (_p90(walls) * factor, "s"),
        "ops_per_s": (len(outcome.ops) / (outcome.wall * factor), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        calibrate, layers, workloads = _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    workdir = Path(args.out)
    workdir.mkdir(parents=True, exist_ok=True)

    # The children set up (and close their store) before this process opens its own.
    setups = [] if args.setup_only else [
        _child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)
    ]
    workload = _make_workload(workloads, args, workdir)
    started = time.perf_counter()
    workload.setup()
    setups.append(import_s + time.perf_counter() - started)
    if args.setup_only:
        workload.close()
        print(setups[0])
        return 0
    setup_s = statistics.median(setups)
    calibration = calibrate.Calibration()

    try:
        workload.reference()
        if args.corrupt_reference:
            workload.corrupt_reference()
        workload.warm_up()
        with calibration:
            outcome = workload.timed(args.seconds, calibration.wall)
        traced = None
        if args.trace:
            trace = layers.LayerTrace()
            with trace:
                traced = workload.traced(trace)
    finally:
        workload.close()

    checked = outcome.ops + (traced.ops if traced else [])
    ok = [op for op in outcome.ops if workload.check(op)]
    failed_ops = [op for op in checked if not workload.check(op)]
    attempted = len(checked) + outcome.lost + (traced.lost if traced else 0)
    failed = len(failed_ops) + outcome.lost + (traced.lost if traced else 0)
    for op in failed_ops[:3]:
        print(f"perfbench: failed op ({op.kind}): {op.error or 'row differs from reference'}",
              file=sys.stderr)

    labels = " ".join(f"{key}={value}" for key, value in workload.labels.items())
    print(f"workload {args.workload} seed={args.seed}: {labels}")
    factor = calibration.factor()
    raw_walls = [op.wall for op in ok] or [float("nan")]
    print(f"ops={len(outcome.ops)} timed_wall_s={outcome.wall:.3f} "
          f"raw: setup_s={setup_s:.4f} op_s_p50={statistics.median(raw_walls):.4f} "
          f"op_s_p90={_p90(raw_walls):.4f} ops_per_s={len(outcome.ops) / outcome.wall:.4f}")
    print(f"calibration: {len(calibration.samples)} samples, mean "
          f"{statistics.fmean(calibration.samples) * 1e3:.3f} ms -> factor {factor:.4f}")
    # Carried by the JSON's attempted/failed fields, not as a metric: it is 0 on a good run.
    print(f"{'failed_fraction':28s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")

    if args.trace:
        reported = layers.layer_metrics(
            trace.records,
            [op.row for op in traced.ops if op.row is not None],
            [(op.kind, op.wall, op.row) for op in ok],
        )
        stem = workdir / f"trace-{args.workload}-seed{args.seed}"
        trace.write(f"{stem}.jsonl", f"{stem}.chrome.json")
        print(f"spans: {len(trace.records)} written to {stem}.jsonl and {stem}.chrome.json")
        coverage = reported["trace.coverage"][0]
        if coverage < COVERAGE_TARGET:
            print(f"WARNING: trace.coverage {coverage:.3f} < {COVERAGE_TARGET}: "
                  f"part of the op wall is attributed to no layer")
    else:
        reported = end_to_end(setup_s, outcome, ok, factor)
        beyond = sum(1 for wall in raw_walls if wall > _p90(raw_walls))
        print(f"op samples={len(ok)}, {beyond} beyond op_s_p90")

    for name, (value, unit) in reported.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
