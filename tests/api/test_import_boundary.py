"""``repro.api`` stands alone: building and running specs never loads the campaign layer,
and building a network never loads the analysis layer."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
from repro.api import ENGINE_NAMES, NetworkSpec, RunSpec, run

extra = {"scenario": {"scenario": "cascade"}, "msgpass": {"workload": "traversal"}}
for engine in ENGINE_NAMES:
    RunSpec(engine=engine, protocol="stno", daemon="central", **extra.get(engine, {}))
result = run(RunSpec(protocol="dftno", network=NetworkSpec(family="ring", size=6), seed=3))
assert result.converged, result.row
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro.campaign"))))
"""


_HEIGHT_TREE_PROBE = """
import json, sys
from repro.api import NetworkSpec

network = NetworkSpec(family="height_tree", size=12, height=5, seed=3).build()
assert network.n == 12
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro.analysis"))))
"""


def _loaded_in_fresh_interpreter(probe: str) -> list[str]:
    # A fresh interpreter: this test session has long imported every layer.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_specs_and_runs_never_import_the_campaign_layer():
    assert _loaded_in_fresh_interpreter(_PROBE) == []


def test_building_a_height_tree_never_imports_the_analysis_layer():
    assert _loaded_in_fresh_interpreter(_HEIGHT_TREE_PROBE) == []
