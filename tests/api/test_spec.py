"""RunSpec: serialization round-trips, canonical hashing, validation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import NetworkSpec, RunSpec, StopSpec
from repro.graphs import generators


def sample_specs() -> list[RunSpec]:
    return [
        RunSpec(),
        RunSpec(
            engine="scheduler",
            protocol="stno-dfs",
            network=NetworkSpec(family="ring", size=8, seed=4),
            daemon="central",
            seed=11,
            stop=StopSpec(max_steps=5_000, after_substrate=True),
            parameter=8,
        ),
        RunSpec(
            engine="scheduler",
            protocol="stno-bfs",
            network=NetworkSpec(family="height_tree", size=10, height=3, seed=2),
        ),
        RunSpec(
            engine="scenario",
            protocol="dftno",
            scenario="cascade",
            network=NetworkSpec(size=9, seed=1),
            daemon="adversarial",
            seed=3,
        ),
        RunSpec(engine="msgpass", workload="traversal", network=NetworkSpec(family="complete", size=6)),
        RunSpec(engine="msgpass", workload="election", network=NetworkSpec(family="ring", size=6)),
    ]


def test_specs_round_trip_through_plain_dicts():
    for spec in sample_specs():
        payload = spec.to_dict()
        json.dumps(payload)  # JSON-ready
        rebuilt = RunSpec.from_dict(payload)
        assert rebuilt == spec
        assert rebuilt.canonical_hash == spec.canonical_hash


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown RunSpec fields"):
        RunSpec.from_dict({"engine": "scheduler", "warp_factor": 9})


#: A ``to_dict()`` dump written while ``RunSpec`` still had the sharded
#: engine's ``shards`` / ``partition`` fields, with its hash at the time.
LEGACY_DUMP = {
    "engine": "scheduler",
    "protocol": "stno-bfs",
    "network": {"family": "ring", "size": 8, "height": None, "seed": 0},
    "daemon": "distributed",
    "seed": 4,
    "scenario": None,
    "workload": None,
    "stop": {"max_steps": None, "max_rounds": None, "after_substrate": False},
    "parameter": None,
    "shards": None,
    "partition": None,
    "debug": None,
    "record": None,
}
LEGACY_HASH = "2d81ae54fd67f8bd"

#: A flight log the removed sharded engine recorded (k=2, DFTNO, n=6).
SHARDED_LOG = (
    Path(__file__).resolve().parent.parent / "replay" / "fixtures" / "sharded-k2.flight.jsonl"
)


def _sharded_dump(**overrides) -> dict:
    """The sharded spec that log recorded in its header, with ``overrides``."""
    with SHARDED_LOG.open(encoding="utf-8") as handle:
        return {**json.loads(handle.readline())["spec"], **overrides}


def test_legacy_dump_with_null_shard_fields_loads_to_the_same_hash():
    spec = RunSpec.from_dict(LEGACY_DUMP)
    assert spec.canonical_hash == LEGACY_HASH
    assert "shards" not in spec.to_dict() and "partition" not in spec.to_dict()
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_max_rounds_loads_only_as_a_legacy_null():
    # No engine ever read StopSpec.max_rounds, yet it changed the hash.
    assert "max_rounds" not in RunSpec.from_dict(LEGACY_DUMP).to_dict()["stop"]
    with pytest.raises(ValueError, match="max_rounds"):
        RunSpec.from_dict({**LEGACY_DUMP, "stop": {**LEGACY_DUMP["stop"], "max_rounds": 50}})
    with pytest.raises(ValueError, match="max_rounds"):
        RunSpec(stop={"max_rounds": 50})  # type: ignore[arg-type]


def test_msgpass_specs_refuse_a_step_budget():
    # The message-passing engine never read stop.max_steps either.
    with pytest.raises(ValueError, match="max_steps"):
        RunSpec(engine="msgpass", stop=StopSpec(max_steps=100))


@pytest.mark.parametrize(
    "dump",
    [
        {**LEGACY_DUMP, "shards": 2},
        {**LEGACY_DUMP, "partition": "bfs"},
        _sharded_dump(),
        _sharded_dump(shards=None, partition=None),
    ],
    ids=["shards", "partition", "sharded-engine", "sharded-engine-null-knobs"],
)
def test_legacy_sharded_dumps_are_refused_naming_the_engines(dump):
    with pytest.raises(ValueError, match="scheduler-fullscan") as excinfo:
        RunSpec.from_dict(dump)
    listed = str(excinfo.value).split("choose from")[1]
    assert _sharded_dump()["engine"] not in listed


#: An engine name deleted with its engine; no alias maps it anywhere.
REMOVED_ENGINE = "scheduler-vectorized"


def test_removed_engine_name_is_refused_naming_the_live_engines():
    for build in (
        lambda: RunSpec(engine=REMOVED_ENGINE),
        lambda: RunSpec.from_dict({**RunSpec().to_dict(), "engine": REMOVED_ENGINE}),
    ):
        with pytest.raises(ValueError, match="unknown engine") as excinfo:
            build()
        listed = str(excinfo.value).split("choose from")[1]
        assert "'scheduler'" in listed
        assert REMOVED_ENGINE not in listed


def test_canonical_hash_is_stable_and_discriminating():
    # Golden values: the canonical hash keys persistent stores, so it must
    # never drift between versions.
    assert RunSpec().canonical_hash == "44136fa355b3678a"
    spec = RunSpec(
        engine="scheduler",
        protocol="stno-bfs",
        network=NetworkSpec(family="ring", size=8, seed=4),
        daemon="central",
        seed=11,
    )
    assert spec.canonical_hash == "57a01302bf81a3ea"
    hashes = {s.canonical_hash for s in sample_specs()}
    assert len(hashes) == len(sample_specs())


def test_canonical_form_strips_defaults_for_forward_stability():
    # A default spec canonicalizes to {} -- so a later RunSpec field (with a
    # default) cannot re-hash any stored spec that never set it.
    assert RunSpec().canonical() == {}
    spec = RunSpec(daemon="central")
    assert spec.canonical() == {"daemon": "central"}
    # The implicit msgpass workload ("broadcast") is a default too.
    msg = RunSpec(engine="msgpass", network=NetworkSpec(family="complete", size=6))
    assert "workload" not in msg.canonical()


def test_spec_accepts_nested_dicts_for_network_and_stop():
    spec = RunSpec(
        network={"family": "ring", "size": 6, "seed": 2},  # type: ignore[arg-type]
        stop={"max_steps": 100},  # type: ignore[arg-type]
    )
    assert spec.network == NetworkSpec(family="ring", size=6, seed=2)
    assert spec.stop == StopSpec(max_steps=100)


def test_network_spec_builds_the_described_topology():
    plain = NetworkSpec(family="random_connected", size=9, seed=5).build()
    reference = generators.family("random_connected", 9, seed=5)
    assert plain.n == reference.n
    assert sorted(plain.edges()) == sorted(reference.edges())

    tree_spec = NetworkSpec(family="height_tree", size=10, height=4, seed=7)
    tree = tree_spec.build()
    reference_tree = generators.height_tree(10, 4, seed=7)
    assert sorted(tree.edges()) == sorted(reference_tree.edges())


def test_validation_rejects_malformed_specs():
    with pytest.raises(ValueError, match="unknown engine"):
        RunSpec(engine="quantum")
    with pytest.raises(ValueError, match="unknown protocol"):
        RunSpec(protocol="psst")
    with pytest.raises(ValueError, match="unknown daemon"):
        RunSpec(daemon="maxwell")
    with pytest.raises(ValueError, match="needs a scenario"):
        RunSpec(engine="scenario")
    with pytest.raises(ValueError, match="only apply to engine='scenario'"):
        RunSpec(scenario="cascade")
    with pytest.raises(ValueError, match="only apply to engine='msgpass'"):
        RunSpec(workload="broadcast")
    with pytest.raises(ValueError, match="unknown workload"):
        RunSpec(engine="msgpass", workload="teleport")
    with pytest.raises(ValueError, match="ring"):
        RunSpec(engine="msgpass", workload="election", network=NetworkSpec(family="star", size=6))
    for engine, extra in (("scenario", {"scenario": "cascade"}), ("msgpass", {})):
        with pytest.raises(ValueError, match="after_substrate"):
            RunSpec(engine=engine, stop=StopSpec(after_substrate=True), **extra)
    with pytest.raises(ValueError, match="needs a height"):
        NetworkSpec(family="height_tree", size=8)
    with pytest.raises(ValueError, match="unknown topology family"):
        NetworkSpec(family="moebius", size=8)
    with pytest.raises(ValueError, match="out of range"):
        NetworkSpec(family="height_tree", size=8, height=9)


def test_protocol_alias_normalizes_into_the_hash():
    assert RunSpec(protocol="stno").canonical_hash == RunSpec(protocol="stno-bfs").canonical_hash
