"""The hash-excluded ``RunSpec.debug`` field and its engine threading."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, run
from repro.api.engines import SchedulerEngine


def test_debug_is_excluded_from_the_canonical_hash() -> None:
    bare = RunSpec(network={"size": 6, "seed": 2})
    debug = RunSpec(
        network={"size": 6, "seed": 2}, debug={"check_guard_locality": True}
    )
    assert bare.canonical_hash == debug.canonical_hash
    assert "debug" not in debug.canonical()


def test_debug_roundtrips_through_to_dict() -> None:
    spec = RunSpec(debug={"check_guard_locality": True})
    clone = RunSpec.from_dict(spec.to_dict())
    assert clone.debug == {"check_guard_locality": True}
    assert clone == spec


def test_debug_must_be_a_mapping() -> None:
    with pytest.raises(ValueError):
        RunSpec(debug=True)  # type: ignore[arg-type]


def test_scheduler_engine_arms_the_guard_tracker() -> None:
    engine = SchedulerEngine()
    plain = engine._scheduler_kwargs(RunSpec())
    assert plain == {"check_guard_locality": False}
    armed = engine._scheduler_kwargs(RunSpec(debug={"check_guard_locality": True}))
    assert armed == {"check_guard_locality": True}


def test_debug_run_produces_the_same_row_as_a_bare_run() -> None:
    bare = run(RunSpec(network={"size": 6, "seed": 2}))
    debug = run(
        RunSpec(network={"size": 6, "seed": 2}, debug={"check_guard_locality": True})
    )
    assert debug.converged
    assert debug.row == bare.row
