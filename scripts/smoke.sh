#!/usr/bin/env bash
# End-to-end smoke: tier-1 tests plus tiny campaigns through the real CLI.
#
#   scripts/smoke.sh [extra pytest args...]
#
# Runs the full pytest suite, then a 4-task DFTNO campaign on 2 workers,
# resumes it (must skip everything), and prints the aggregated report.
# Finally exercises the scenario task type end to end: a 2-task scenario
# campaign, a merge with the stabilization store, and a status round-trip
# that must show the merged rows as stale against the scenario grid.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -x -q "$@"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# --- scheduler-core micro-bench (quick variant) ----------------------------
# Times the scheduler against the full-scan reference interpreter on
# small sizes and writes the BENCH_scheduler.json artifact; the full sweep
# (n up to 500, with the 3x acceptance threshold) runs in CI and on demand.
# The quick bench also asserts the observability-layer thresholds
# (disabled-path overhead <= 3%, enabled phase coverage >= 90%, telemetry
# never perturbs the execution) and appends one line to the repo's
# perf-trajectory history -- local runs feed BENCH_history.jsonl too, so the
# trajectory the check_perf gate compares against actually accumulates.
history_before="$( [ -f BENCH_history.jsonl ] && wc -l < BENCH_history.jsonl || echo 0 )"
python benchmarks/bench_scheduler_core.py --quick \
    --out "$out/BENCH_scheduler.json"
test -s "$out/BENCH_scheduler.json" || {
    echo "smoke FAILED: scheduler bench artifact missing" >&2; exit 1;
}

history_after="$(wc -l < BENCH_history.jsonl)"
if [ "$((history_after - history_before))" -ne 1 ]; then
    echo "smoke FAILED: expected the perf history to grow by 1 line" \
         "(was $history_before, now $history_after)" >&2
    exit 1
fi

# --- perf regression gate against the accumulated trajectory ---------------
python scripts/check_perf.py --current "$out/BENCH_scheduler.json" \
    --history BENCH_history.jsonl --require-history

python -m repro.campaign run --protocol dftno --family ring \
    --sizes 6,8 --trials 2 --jobs 2 --seed 1 --out "$out"

resume_log="$(python -m repro.campaign run --protocol dftno --family ring \
    --sizes 6,8 --trials 2 --jobs 2 --seed 1 --out "$out" --resume --quiet)"
echo "$resume_log"
case "$resume_log" in
    *"0 executed, 4 skipped"*) ;;
    *) echo "smoke FAILED: resume did not skip completed tasks" >&2; exit 1 ;;
esac

python -m repro.campaign report --out "$out"

# --- invalid grids are refused before any store is opened ------------------
invalid_rc=0
python -m repro.campaign run --sizes 0 --out "$out/invalid.jsonl" --quiet || invalid_rc=$?
if [ "$invalid_rc" -ne 2 ] || [ -e "$out/invalid.jsonl" ]; then
    echo "smoke FAILED: --sizes 0 must exit 2 and create no store (exit $invalid_rc)" >&2
    exit 1
fi

# --- multi-machine split: --shard I/K slices re-unite via merge ------------
python -m repro.campaign run --protocol dftno --family ring \
    --sizes 6,8 --trials 2 --jobs 1 --seed 1 --out "$out/slice-a.jsonl" --shard 0/2 --quiet
python -m repro.campaign run --protocol dftno --family ring \
    --sizes 6,8 --trials 2 --jobs 1 --seed 1 --out "$out/slice-b.jsonl" --shard 1/2 --quiet
python -m repro.campaign merge "$out/slice-a.jsonl" "$out/slice-b.jsonl" \
    --out "$out/slices-merged.jsonl"
shard_status="$(python -m repro.campaign status --out "$out/slices-merged.jsonl" \
    --protocol dftno --family ring --sizes 6,8 --trials 2 --seed 1)"
echo "$shard_status"
case "$shard_status" in
    *"4 tasks, 4 completed, 0 pending, 0 stale"*) ;;
    *) echo "smoke FAILED: sharded slices did not merge back to the full grid" >&2; exit 1 ;;
esac

# --- scenario task type: run + merge + status round-trip -------------------
scen="$(mktemp -d)"
trap 'rm -rf "$out" "$scen"' EXIT

python -m repro.campaign run --task-type scenario --scenario single_burst \
    --protocol dftno --protocol stno-bfs --sizes 8 --trials 1 --seed 2 \
    --out "$scen/scenario.jsonl"

python -m repro.campaign merge "$out" "$scen/scenario.jsonl" \
    --out "$scen/merged.jsonl"

status_log="$(python -m repro.campaign status --out "$scen/merged.jsonl" \
    --task-type scenario --scenario single_burst \
    --protocol dftno --protocol stno-bfs --sizes 8 --trials 1 --seed 2)"
echo "$status_log"
case "$status_log" in
    *"2 tasks, 2 completed, 0 pending, 4 stale"*) ;;
    *) echo "smoke FAILED: merged store status mismatch" >&2; exit 1 ;;
esac

python -m repro.campaign report --out "$scen/scenario.jsonl" --key scenario \
    --metric recovery_steps_mean

# Per-event recovery aggregation over the stored scenario rows.
python -m repro.campaign report --out "$scen/scenario.jsonl" --per-event

# --- sqlite backend + msgpass workload axis through the unified API --------
python -m repro.campaign run --task-type msgpass --workload traversal \
    --workload broadcast --family complete --sizes 8 --trials 1 --seed 3 \
    --out "$scen/msgpass.sqlite"

sqlite_status="$(python -m repro.campaign status --out "$scen/msgpass.sqlite" \
    --task-type msgpass --workload traversal --workload broadcast \
    --family complete --sizes 8 --trials 1 --seed 3)"
echo "$sqlite_status"
case "$sqlite_status" in
    *"2 tasks, 2 completed, 0 pending"*) ;;
    *) echo "smoke FAILED: sqlite msgpass status mismatch" >&2; exit 1 ;;
esac

python -m repro.campaign report --out "$scen/msgpass.sqlite" --key workload

# --- observability: run --perf persists summaries, report --perf reads them
python -m repro.campaign run --protocol dftno --family ring --sizes 6 \
    --trials 1 --seed 4 --perf --out "$scen/perf.jsonl" --quiet
perf_report="$(python -m repro.campaign report --out "$scen/perf.jsonl" --perf)"
echo "$perf_report"
case "$perf_report" in
    *"guard_eval"*) ;;
    *) echo "smoke FAILED: report --perf missing phase breakdown" >&2; exit 1 ;;
esac

# --- protocol-health: telemetry + watchdog rows, live watch, health report -
# The campaign runs in the background while watch tails its store -- the
# live-dashboard-against-a-store-being-written acceptance path.
python -m repro.campaign run --protocol dftno --family ring --sizes 6,8 \
    --trials 2 --seed 5 --telemetry --health --perf \
    --out "$scen/health.jsonl" --quiet &
run_pid=$!
watch_log="$(python -m repro.campaign watch --out "$scen/health.jsonl" \
    --protocol dftno --family ring --sizes 6,8 --trials 2 --seed 5 \
    --interval 0.3 --iterations 4 --no-clear)"
wait "$run_pid"
echo "$watch_log" | tail -n 20
case "$watch_log" in
    *"campaign watch --"*) ;;
    *) echo "smoke FAILED: watch rendered no dashboard frames" >&2; exit 1 ;;
esac
health_report="$(python -m repro.campaign report --out "$scen/health.jsonl" --health)"
echo "$health_report"
case "$health_report" in
    *"4/4 rows monitored, 0 anomalous"*) ;;
    *) echo "smoke FAILED: health report mismatch (watchdog false positive?)" >&2; exit 1 ;;
esac
shard_view="$(python -m repro.campaign status --out "$scen/health.jsonl" \
    --protocol dftno --family ring --sizes 6,8 --trials 2 --seed 5 --shard /2)"
echo "$shard_view"
case "$shard_view" in
    *"per-shard status (2 slices)"*) ;;
    *) echo "smoke FAILED: status --shard missing per-shard table" >&2; exit 1 ;;
esac
# --- repro-lint: static verifier over every shipped layer -----------------
python -m repro.lint src/repro
lint_seeded=0
python -m repro.lint "$(dirname "$0")/../tests/lint/fixtures/guard_mutates.py" >/dev/null || lint_seeded=$?
if [ "$lint_seeded" -ne 1 ]; then
    echo "smoke FAILED: repro-lint did not flag the seeded violation (exit $lint_seeded)" >&2
    exit 1
fi

echo "smoke OK"
