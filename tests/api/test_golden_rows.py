"""Golden rows: run rows pinned across commits, not just across engines.

``test_engine_equivalence`` and ``test_campaign_roundtrip`` compare two code
paths of the *same* commit; nothing there notices when both paths drift
together.  This test recomputes a fixed matrix of rows and compares a sha256
of each against ``fixtures/stabilization_rows.json``:

* both scheduler engines x every protocol x every daemon x
  ``after_substrate`` off/on x three topologies;
* unconverged runs under a 40-step budget;
* library scenarios x two protocols x two daemons;
* the ``orient_with_*`` entry points (steps, moves, rounds and the first
  legitimate step of the run they return).

Regenerate the fixture (only for a change that is *meant* to change rows)
with ``PYTHONPATH=src python tests/api/test_golden_rows.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Iterator

import pytest

from repro.api import NetworkSpec, RunSpec, StopSpec, run
from repro.api.spec import DAEMONS, PROTOCOLS
from repro.core.orientation import orient_with_dftno, orient_with_stno
from repro.graphs import generators
from repro.runtime.daemon import make_daemon

FIXTURE = Path(__file__).parent / "fixtures" / "stabilization_rows.json"

NETWORKS = (
    NetworkSpec(family="random_connected", size=8, seed=1),
    NetworkSpec(family="random_tree", size=8, seed=2),
    NetworkSpec(family="height_tree", size=9, height=3, seed=4),
)
SCENARIOS = ("single_burst", "periodic_burst", "cascade", "blackout", "churn")


def _orient_row(result) -> dict[str, object]:
    run_result = result.run
    return {
        "steps": run_result.steps,
        "moves": run_result.moves,
        "rounds": run_result.rounds,
        "terminated": run_result.terminated,
        "converged": run_result.converged,
        "first_legitimate_step": run_result.first_legitimate_step,
        "first_legitimate_round": run_result.first_legitimate_round,
    }


def cases() -> Iterator[tuple[str, Callable[[], dict[str, object]]]]:
    """``(key, compute-the-row)`` for every pinned row; keys are spec hashes."""
    specs: list[RunSpec] = []
    for engine in ("scheduler", "scheduler-fullscan"):
        for protocol in PROTOCOLS:
            for daemon in DAEMONS:
                for after_substrate in (False, True):
                    for network in NETWORKS:
                        specs.append(
                            RunSpec(
                                engine=engine,
                                protocol=protocol,
                                network=network,
                                daemon=daemon,
                                seed=3,
                                stop=StopSpec(after_substrate=after_substrate),
                            )
                        )
        for protocol in ("dftno", "stno-bfs"):
            specs.append(
                RunSpec(
                    engine=engine,
                    protocol=protocol,
                    network=NETWORKS[0],
                    seed=5,
                    stop=StopSpec(max_steps=40),
                )
            )
    for protocol in ("dftno", "stno-bfs"):
        for scenario in SCENARIOS:
            for daemon in ("distributed", "central"):
                specs.append(
                    RunSpec(
                        engine="scenario",
                        protocol=protocol,
                        network=NetworkSpec(family="random_connected", size=8, seed=6),
                        daemon=daemon,
                        scenario=scenario,
                        seed=7,
                    )
                )
    for spec in specs:
        yield spec.canonical_hash, (lambda spec=spec: run(spec).row)

    for name, orient in (("dftno", orient_with_dftno), ("stno", orient_with_stno)):
        for family, daemon in (("random_connected", "distributed"), ("ring", "central"),
                               ("random_tree", "synchronous")):
            key = f"orient_with_{name}:{family}:{daemon}"

            def compute(orient=orient, family=family, daemon=daemon) -> dict[str, object]:
                network = generators.family(family, 8, seed=9)
                return _orient_row(orient(network, daemon=make_daemon(daemon), seed=11))

            yield key, compute


def digest(row: dict[str, object]) -> str:
    blob = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_fixture_covers_every_case():
    expected = json.loads(FIXTURE.read_text())
    assert sorted(key for key, _ in cases()) == sorted(expected)


@pytest.mark.parametrize("key,compute", list(cases()), ids=lambda value: value if isinstance(value, str) else "")
def test_row_matches_golden(key, compute):
    expected = json.loads(FIXTURE.read_text())
    row = compute()
    assert digest(row) == expected[key], f"row for {key} changed; recomputed row:\n{json.dumps(row, sort_keys=True)}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {key: digest(compute()) for key, compute in cases()}
    FIXTURE.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} rows to {FIXTURE}")
