"""Grid expansion, config-hash stability and seed derivation."""

from __future__ import annotations

import pytest

from repro.api.spec import NetworkSpec, RunSpec
from repro.campaign.grid import Grid, TaskSpec, parse_axis


def test_expansion_is_deterministic_and_complete():
    grid = Grid(
        sizes=(6, 8),
        protocols=("dftno", "stno-bfs"),
        families=("ring", "random_connected"),
        daemons=("central", "distributed"),
        trials=3,
        seed=5,
    )
    tasks = grid.expand()
    assert len(tasks) == len(grid) == 2 * 2 * 2 * 2 * 3
    assert tasks == grid.expand()
    assert [task.index for task in tasks] == list(range(len(tasks)))
    assert len({task.config_hash for task in tasks}) == len(tasks)


def test_config_hash_is_stable_across_instances_and_positions():
    spec = TaskSpec(
        protocol="dftno", family="ring", size=8, daemon="central", trial=1, grid_seed=3
    )
    twin = TaskSpec(
        protocol="dftno", family="ring", size=8, daemon="central", trial=1, grid_seed=3, index=42
    )
    assert spec.config_hash == twin.config_hash
    assert spec.task_seed == twin.task_seed
    other = TaskSpec(
        protocol="dftno", family="ring", size=8, daemon="central", trial=2, grid_seed=3
    )
    assert other.config_hash != spec.config_hash


def test_derived_seeds_differ_by_purpose():
    spec = TaskSpec(
        protocol="dftno", family="ring", size=8, daemon="central", trial=0, grid_seed=0
    )
    assert len({spec.task_seed, spec.network_seed, spec.run_seed}) == 3


def test_protocol_alias_and_validation():
    grid = Grid(sizes=(6,), protocols=("stno",))
    assert grid.protocols == ("stno-bfs",)
    with pytest.raises(ValueError):
        Grid(sizes=(6,), protocols=("nope",))
    with pytest.raises(ValueError):
        Grid(sizes=(6,), daemons=("nope",))
    with pytest.raises(ValueError):
        Grid(sizes=(6,), families=("bogus",))
    with pytest.raises(ValueError):
        Grid(sizes=(6,), trials=0)
    with pytest.raises(ValueError):
        Grid(sizes=())
    for sizes in ((0,), (-3,), (0, 4)):
        with pytest.raises(ValueError, match="size must be >= 1"):
            Grid(sizes=sizes)
    # after_substrate is hashed into every task's identity, so a task type
    # whose engine cannot honour it must be refused when the grid is built.
    for task_type, extra in (("msgpass", {}), ("scenario", {"scenarios": ("cascade",)})):
        with pytest.raises(ValueError, match="after_substrate"):
            Grid(sizes=(6,), task_type=task_type, after_substrate=True, **extra)
    assert Grid(sizes=(6,), after_substrate=True).after_substrate is True


# Grid validates each cell with the same repro.api.spec validators a RunSpec
# uses, so a bad sweep fails with exactly the message a bad single run gets.
@pytest.mark.parametrize(
    "single, sweep",
    [
        (lambda: RunSpec(protocol="nope"), lambda: Grid(sizes=(6,), protocols=("nope",))),
        (lambda: RunSpec(daemon="nope"), lambda: Grid(sizes=(6,), daemons=("nope",))),
        (lambda: NetworkSpec(family="bogus"), lambda: Grid(sizes=(6,), families=("bogus",))),
        (lambda: NetworkSpec(size=0), lambda: Grid(sizes=(0,))),
    ],
    ids=["protocol", "daemon", "family", "size"],
)
def test_grid_and_runspec_reject_bad_names_with_one_message(single, sweep):
    with pytest.raises(ValueError) as single_error:
        single()
    with pytest.raises(ValueError) as sweep_error:
        sweep()
    assert str(sweep_error.value) == str(single_error.value)


def test_axes_deduplicate_preserving_order():
    grid = Grid(
        sizes=(8, 6, 8),
        protocols=("stno", "stno-bfs", "dftno"),
        daemons=("central", "central"),
        families=("ring", "ring"),
    )
    assert grid.sizes == (8, 6)
    assert grid.protocols == ("stno-bfs", "dftno")
    assert grid.daemons == ("central",)
    assert grid.families == ("ring",)
    tasks = grid.expand()
    assert len({task.config_hash for task in tasks}) == len(tasks)


def test_pair_networks_shares_topology_across_protocols_and_daemons():
    paired = Grid(
        sizes=(10,),
        protocols=("dftno", "stno-bfs"),
        daemons=("central", "distributed"),
        trials=2,
        seed=4,
        pair_networks=True,
    )
    by_trial: dict[int, set[int]] = {}
    for task in paired.expand():
        by_trial.setdefault(task.trial, set()).add(task.network_seed)
    assert all(len(seeds) == 1 for seeds in by_trial.values())
    assert len({min(seeds) for seeds in by_trial.values()}) == 2  # but differs per trial

    unpaired = Grid(
        sizes=(10,), protocols=("dftno", "stno-bfs"), daemons=("central",), seed=4
    )
    assert len({task.network_seed for task in unpaired.expand()}) == 2


def test_heights_axis_switches_to_height_trees_and_validates_range():
    grid = Grid(sizes=(10,), protocols=("stno-bfs",), heights=(2, 5), trials=2)
    tasks = grid.expand()
    assert len(tasks) == 4
    assert all(task.family == "height_tree" for task in tasks)
    assert {task.parameter for task in tasks} == {2, 5}
    with pytest.raises(ValueError):
        Grid(sizes=(5,), heights=(10,))


def test_parse_axis_forms():
    assert parse_axis("8,16,24") == (8, 16, 24)
    assert parse_axis("8:64") == (8, 16, 32, 64)
    assert parse_axis("8:64:8") == (8, 16, 24, 32, 40, 48, 56, 64)
    with pytest.raises(ValueError):
        parse_axis("")
    with pytest.raises(ValueError):
        parse_axis("8:4")
    with pytest.raises(ValueError):
        parse_axis("1:2:3:4")
