"""Throughput benchmark of the vectorized synchronous engine vs per-node dispatch.

The workload is the one the vectorized engine exists for: BFS spanning-tree
stabilization under the synchronous daemon, run to termination from the
all-wrong initial configuration.  Every round evaluates guards and executes
actions across the whole network, so the per-node engine pays a Python-level
dispatch per processor per round while ``scheduler-vectorized`` computes the
same rounds as whole-column numpy kernels over the struct-of-arrays view.

Both engines run the *identical* execution -- asserted: same step count,
same convergence verdict, same final configuration -- so the wall-clock
ratio isolates what batch kernels buy.  Measurements land in
``BENCH_vectorized.json`` for n in {1000, 5000, 20000} with rounds/second
and speedups, plus ``fast_steps`` as proof the fast path actually engaged
(a silently-disengaged fast path would otherwise report an honest but
meaningless 1.0x).  The acceptance threshold -- >= 5x over per-node dispatch
at n=5000 -- applies to the full sweep with numpy present; without numpy the
vectorized engine cannot run and the artifact records exactly that
(``threshold``: ``not applicable``) instead of lying.

Run as a script (what ``scripts/smoke.sh`` and CI do)::

    PYTHONPATH=src python benchmarks/bench_vectorized.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_vectorized.py --quick    # CI / smoke
    PYTHONPATH=src python benchmarks/bench_vectorized.py --out path.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.graphs import generators
from repro.runtime.arrayview import HAVE_NUMPY
from repro.runtime.daemon import SynchronousDaemon
from repro.runtime.scheduler import Scheduler
from repro.runtime.vectorized import VectorizedScheduler
from repro.substrates.spanning_tree import BFSSpanningTree

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_utils import append_history  # noqa: E402

#: Network sizes of the full sweep; the quick variant (CI, smoke) is one
#: small size -- it checks the harness and the equivalence assertions, not
#: the speedup (threshold not applicable).
FULL_SIZES = (1000, 5000, 20000)
QUICK_SIZES = (300,)

REQUIRED_SPEEDUP = 5.0
REQUIRED_AT_N = 5000

DEFAULT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"


def _time_stabilization(n: int, vectorized: bool) -> dict[str, object]:
    """Time one BFS stabilization stepped to termination; return row + final config.

    The loop steps until no processor is enabled rather than calling
    ``run_until_legitimate``: BFS spanning-tree is silent (terminal means
    legitimate), and the per-round O(n) legitimacy predicate is the same
    Python loop for both engines -- a shared additive cost that would dilute
    the ratio this benchmark exists to measure.
    """
    network = generators.random_connected(n, seed=1)
    cls = VectorizedScheduler if vectorized else Scheduler
    scheduler = cls(network, BFSSpanningTree(), daemon=SynchronousDaemon(), seed=7)
    started = time.perf_counter()
    steps = 0
    while scheduler.step() is not None:
        steps += 1
        if steps > 8 * n:  # pragma: no cover - termination is the invariant
            raise AssertionError(f"n={n}: no termination within {8 * n} rounds")
    elapsed = time.perf_counter() - started
    row = {
        "n": n,
        "m": network.num_edges(),
        "engine": "scheduler-vectorized" if vectorized else "scheduler",
        "steps": steps,
        "converged": True,
        "seconds": round(elapsed, 4),
        "rounds_per_second": round(steps / elapsed, 2) if elapsed > 0 else None,
        "_final": scheduler.configuration.copy(),
    }
    if vectorized:
        row["fast_steps"] = scheduler.fast_steps
    return row


def run_bench(sizes=FULL_SIZES, emit=print) -> dict[str, object]:
    """Run the sweep and return the artifact payload (also emitted per row)."""
    if not HAVE_NUMPY:
        emit("numpy not installed; vectorized engine unavailable")
        return {
            "benchmark": "vectorized_engine",
            "workload": "BFS spanning-tree stabilization, synchronous daemon, seed 7",
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "sizes": list(sizes),
            "rows": [],
            "speedups": {},
            "required_speedup": REQUIRED_SPEEDUP,
            "required_at_n": REQUIRED_AT_N,
            "threshold": {
                "status": "not applicable",
                "reason": "numpy not installed (pip install .[vectorized])",
            },
        }
    rows: list[dict[str, object]] = []
    speedups: dict[str, float] = {}
    for n in sizes:
        base = _time_stabilization(n, vectorized=False)
        reference_final = base.pop("_final")
        rows.append(base)
        emit(
            f"n={n} m={base['m']}: per-node {base['seconds']:.3f}s "
            f"({base['steps']} rounds, {base['rounds_per_second']} rounds/s)"
        )
        fast = _time_stabilization(n, vectorized=True)
        final = fast.pop("_final")
        # Identical executions or the comparison is meaningless.
        assert fast["steps"] == base["steps"], (n, fast, base)
        assert fast["converged"] == base["converged"], (n, fast, base)
        assert final == reference_final, f"vectorized diverged at n={n}"
        # The fast path must actually have run, not silently fallen back.
        assert fast["fast_steps"] == fast["steps"], (n, fast)
        speedup = base["seconds"] / fast["seconds"] if fast["seconds"] else None
        if speedup is not None:
            speedups[f"n{n}"] = round(speedup, 2)
        fast["speedup_vs_per_node"] = speedup and round(speedup, 2)
        rows.append(fast)
        emit(
            f"n={n}: vectorized {fast['seconds']:.3f}s "
            f"({fast['rounds_per_second']} rounds/s) -> speedup {speedup:.2f}x"
        )
    measured = speedups.get(f"n{REQUIRED_AT_N}")
    if measured is None:
        threshold = {"status": "not applicable", "reason": "quick sweep"}
    else:
        threshold = {
            "status": "pass" if measured >= REQUIRED_SPEEDUP else "FAIL",
            "measured": measured,
        }
    return {
        "benchmark": "vectorized_engine",
        "workload": "BFS spanning-tree stabilization, synchronous daemon, seed 7",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sizes": list(sizes),
        "rows": rows,
        "speedups": speedups,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_at_n": REQUIRED_AT_N,
        "threshold": threshold,
    }


def write_artifact(payload: dict[str, object], path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"trimmed sweep {QUICK_SIZES} for CI / smoke (threshold not applicable)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_ARTIFACT,
        metavar="PATH",
        help=f"artifact path (default {DEFAULT_ARTIFACT.name} in the repo root)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=None,
        metavar="PATH",
        help="perf-trajectory JSONL to append to "
        "(default BENCH_history.jsonl in the repo root)",
    )
    args = parser.parse_args(argv)
    payload = run_bench(QUICK_SIZES if args.quick else FULL_SIZES)
    write_artifact(payload, args.out)
    print(f"wrote {args.out}")
    history = append_history(payload, args.history)
    print(f"appended {history}")
    if payload["threshold"]["status"] == "FAIL":
        print(
            f"FAILED: vectorized speedup at n={REQUIRED_AT_N} below "
            f"{REQUIRED_SPEEDUP}x: {payload['speedups']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
