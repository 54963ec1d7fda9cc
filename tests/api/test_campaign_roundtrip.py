"""Round-trip: campaign rows through the RunSpec adapter vs a PR 2 store.

The acceptance bar for the unified API: ``stabilize`` rows (and their config
hashes) produced by the new TaskSpec -> RunSpec -> engine path must be
**byte-identical** to what the pre-API campaign engine persisted, so that
every existing store keeps resuming, deduplicating and merging correctly.

``legacy_stabilize_row`` reproduces the PR 1/PR 2 handler verbatim (direct
calls into the measurement harness, bypassing ``repro.api`` entirely); the
tests compare full JSONL store files byte for byte.
"""

from __future__ import annotations

import json

from repro.analysis.convergence import measure_stabilization
from repro.campaign.grid import Grid, TaskSpec
from repro.campaign.runner import run_task
from repro.campaign.store import JsonlResultStore
from repro.campaign.tasks import runspec_for_task
from repro.graphs import generators
from repro.runtime.daemon import make_daemon


def legacy_stabilize_row(spec: TaskSpec) -> dict[str, object]:
    """The pre-API ``stabilize`` handler, inlined exactly as PR 1/PR 2 ran it."""
    if spec.height is not None:
        network = generators.height_tree(spec.size, spec.height, seed=spec.network_seed)
    else:
        network = generators.family(spec.family, spec.size, seed=spec.network_seed)
    sample = measure_stabilization(
        network,
        spec.protocol,
        daemon=make_daemon(spec.daemon),
        seed=spec.run_seed,
        parameter=spec.parameter,
        after_substrate=spec.after_substrate,
    )
    row = sample.as_row()
    row.update(spec.identity())
    row["config_hash"] = spec.config_hash
    row["task_index"] = spec.index
    return row


ROUNDTRIP_GRIDS = (
    Grid(
        sizes=(6,),
        protocols=("dftno", "stno-bfs"),
        families=("ring", "random_connected"),
        daemons=("central",),
        trials=1,
        seed=7,
    ),
    Grid(sizes=(6,), protocols=("stno-bfs",), heights=(2,), trials=1, seed=3),
    Grid(
        sizes=(6,),
        protocols=("dftno",),
        families=("ring",),
        daemons=("distributed",),
        trials=1,
        seed=5,
        after_substrate=True,
        pair_networks=True,
    ),
)


def test_stabilize_rows_via_runspec_are_byte_identical_to_pr2(tmp_path):
    for index, grid in enumerate(ROUNDTRIP_GRIDS):
        legacy_store = JsonlResultStore(tmp_path / f"legacy-{index}.jsonl")
        api_store = JsonlResultStore(tmp_path / f"api-{index}.jsonl")
        for task in grid.expand():
            legacy_row = legacy_stabilize_row(task)
            api_row = run_task(task)
            assert api_row == legacy_row
            # Byte-level: the exact JSON the store writes.
            dump = dict(sort_keys=True, separators=(",", ":"), default=str)
            assert json.dumps(api_row, **dump) == json.dumps(legacy_row, **dump)
            legacy_store.append(legacy_row)
            api_store.append(api_row)
        # The stored rows are byte-identical (checked above, line by line);
        # the files themselves differ only in the per-row append timestamps.
        assert legacy_store.rows() == api_store.rows()


def test_runspec_adapter_keeps_config_hashes_and_derived_seeds():
    grid = ROUNDTRIP_GRIDS[0]
    for task in grid.expand():
        spec = runspec_for_task(task)
        assert spec.engine == "scheduler"
        assert spec.seed == task.run_seed
        assert spec.network.seed == task.network_seed
        assert spec.parameter == task.parameter
        assert spec.stop.after_substrate == task.after_substrate
        # Hash stability of the grid side is pinned in
        # tests/campaign/test_task_types.py; here we check the adapter does
        # not perturb the task identity it was derived from.
        assert task.config_hash == grid.expand()[task.index].config_hash


def test_resuming_a_pr2_store_through_the_api_path_skips_everything(tmp_path):
    """A store written by the legacy path resumes cleanly under the API path."""
    from repro.campaign.runner import run_grid

    grid = ROUNDTRIP_GRIDS[0]
    store = JsonlResultStore(tmp_path / "pr2.jsonl")
    for task in grid.expand():
        store.append(legacy_stabilize_row(task))
    result = run_grid(grid, store=JsonlResultStore(store.path), resume=True)
    assert result.executed == 0
    assert result.skipped == len(grid)
    assert len(result.rows) == len(grid)
