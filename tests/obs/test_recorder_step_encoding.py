"""The flight recorder's direct ``step`` serializer against the generic dump.

The recorder writes step entries with a hand-written serializer for the
fixed entry shape; these tests hold every line it writes byte-identical to
``json.dumps(encode_step(record), sort_keys=True, separators=(",", ":"))``
spliced into the entry, for hand-built records with every value kind the
codec supports and for whole recorded runs (including flushes mid-run).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.graphs import generators
from repro.obs import recorder as recorder_module
from repro.obs.recorder import FlightRecorder, encode_step
from repro.runtime.daemon import make_daemon
from repro.runtime.scheduler import MoveRecord, Scheduler, StepRecord


def _expected_line(record: StepRecord, seq: int) -> str:
    core = json.dumps(encode_step(record), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(core.encode("utf-8")).hexdigest()[:16]
    return f'{{"type":"step","core":{core},"fp":"{digest}","seq":{seq}}}'


def _step_lines(path) -> list[str]:
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["type"] == "step"
    ]


VALUES = [
    0,
    -7,
    2**70,
    None,
    True,
    False,
    1.5,
    float("nan"),
    "plain",
    'quote " and \\ backslash',
    "ünïcødé",
    (1, None),
    [1, (2, 3)],
    {1: 5, 2: 6},
    {"a": 1, "b": (1, 2)},
    {"__tuple__": 1},
    {3, 1, 2},
    frozenset({"x", "y"}),
    object,
]


@pytest.mark.parametrize("value", VALUES, ids=[repr(value) for value in VALUES])
def test_every_value_kind_serializes_like_the_generic_dump(tmp_path, value):
    record = StepRecord(
        step=4,
        round=1,
        executed=((3, "Act"),),
        changed_nodes=(3,),
        moves=(MoveRecord(node=3, action="Act", layer="L", changes={"v": (value, 1)}),),
    )
    path = tmp_path / "log.jsonl"
    recorder = FlightRecorder(path)
    recorder.on_step(None, record)
    recorder.close()
    assert _step_lines(path) == [_expected_line(record, 0)]


def test_several_moves_unsorted_variables_and_empty_changes(tmp_path):
    records = [
        StepRecord(
            step=0,
            round=0,
            executed=((5, "Zeta"), (1, "Alpha"), (2, "Ünï")),
            changed_nodes=(5, 1),
            moves=(
                MoveRecord(
                    node=5,
                    action="Zeta",
                    layer="top",
                    changes={"z": (1, 2), "a": (None, 3), "m": ({1: 2}, {1: 3})},
                ),
                MoveRecord(node=1, action="Alpha", layer="", changes={"b": ("x", "y")}),
                MoveRecord(node=2, action="Ünï", layer="low", changes={}),
            ),
        ),
        StepRecord(step=1, round=0, executed=(), changed_nodes=(), moves=()),
        StepRecord(
            step=2,
            round=1,
            executed=((0, "A"),),
            changed_nodes=(0,),
            moves=(MoveRecord(node=0, action="A", layer="L", changes={7: (1, 2)}),),
        ),
    ]
    path = tmp_path / "log.jsonl"
    recorder = FlightRecorder(path)
    for record in records:
        recorder.on_step(None, record)
    recorder.close()
    expected = [_expected_line(record, seq) for seq, record in enumerate(records)]
    assert _step_lines(path) == expected


@pytest.mark.parametrize(
    "protocol, daemon",
    [
        (build_dftno, "distributed"),
        (build_stno, "synchronous"),
        (lambda: build_stno(tree="dfs"), "central"),
    ],
)
def test_recorded_runs_write_the_generic_lines(tmp_path, monkeypatch, protocol, daemon):
    path = tmp_path / "log.jsonl"
    monkeypatch.setattr(recorder_module, "FLUSH_EVERY", 7)  # flushes mid-run, between other entries
    recorder = FlightRecorder(path)
    scheduler = Scheduler(
        generators.random_connected(9, extra_edge_probability=0.3, seed=3),
        protocol(),
        daemon=make_daemon(daemon),
        seed=3,
        observers=(recorder,),
    )
    records = []
    for _ in range(60):
        record = scheduler.step()
        if record is None:
            break
        records.append(record)
    recorder.close()
    entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [entry["seq"] for entry in entries] == list(range(len(entries)))
    seqs = [entry["seq"] for entry in entries if entry["type"] == "step"]
    assert len(seqs) == len(records)
    expected = [_expected_line(record, seq) for seq, record in zip(seqs, records)]
    assert _step_lines(path) == expected
