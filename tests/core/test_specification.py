"""Unit tests for the SP_NO specification checker."""

from __future__ import annotations

import random

import pytest

from repro.api.engines import build_protocol
from repro.core.baseline import centralized_orientation
from repro.core.specification import VAR_EDGE_LABELS, VAR_NAME, OrientationSpecification
from repro.graphs import generators
from repro.runtime.configuration import Configuration
from repro.runtime.faults import corrupt_configuration
from repro.runtime.scheduler import Scheduler


def configuration_from_orientation(network, orientation) -> Configuration:
    return Configuration(
        {
            node: {
                VAR_NAME: orientation.names[node],
                VAR_EDGE_LABELS: dict(orientation.edge_labels[node]),
            }
            for node in network.nodes()
        }
    )


@pytest.fixture
def oriented_configuration(small_random):
    orientation = centralized_orientation(small_random)
    return configuration_from_orientation(small_random, orientation)


def test_specification_holds_on_valid_orientation(small_random, oriented_configuration):
    spec = OrientationSpecification()
    report = spec.check(small_random, oriented_configuration)
    assert report.sp1 and report.sp2 and report.holds
    assert report.violations == ()
    assert spec.holds(small_random, oriented_configuration)
    assert spec.sp1_holds(small_random, oriented_configuration)


def test_sp1_violation_duplicate_names(small_random, oriented_configuration):
    oriented_configuration.set(1, VAR_NAME, oriented_configuration.get(2, VAR_NAME))
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp1
    assert any("SP1" in text for text in report.violations)


def test_sp1_violation_out_of_range_name(small_random, oriented_configuration):
    oriented_configuration.set(1, VAR_NAME, small_random.n + 3)
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp1


def test_sp1_violation_non_integer_name(small_random, oriented_configuration):
    oriented_configuration.set(1, VAR_NAME, "three")
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp1


def test_sp2_violation_wrong_label(small_random, oriented_configuration):
    node = 0
    neighbor = small_random.neighbors(node)[0]
    labels = oriented_configuration.get(node, VAR_EDGE_LABELS)
    labels[neighbor] = (labels[neighbor] + 1) % small_random.n
    oriented_configuration.set(node, VAR_EDGE_LABELS, labels)
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert report.sp1
    assert not report.sp2
    assert any("SP2" in text for text in report.violations)


def test_sp2_violation_missing_label_map(small_random, oriented_configuration):
    oriented_configuration.set(0, VAR_EDGE_LABELS, None)
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp2


def test_effective_modulus_defaults_to_network_size(small_ring):
    spec = OrientationSpecification()
    assert spec.effective_modulus(small_ring) == small_ring.n
    assert OrientationSpecification(modulus=32).effective_modulus(small_ring) == 32


def test_extract_round_trips_orientation(small_random, oriented_configuration):
    spec = OrientationSpecification()
    extracted = spec.extract(small_random, oriented_configuration)
    assert extracted.is_valid(small_random)
    reference = centralized_orientation(small_random)
    assert extracted.names == reference.names


def test_extract_handles_broken_label_maps(small_random, oriented_configuration):
    oriented_configuration.set(0, VAR_EDGE_LABELS, "garbage")
    extracted = OrientationSpecification().extract(small_random, oriented_configuration)
    assert extracted.edge_labels[0][small_random.neighbors(0)[0]] is None
    assert not extracted.is_valid(small_random)


def test_report_holds_property():
    from repro.core.specification import SpecificationReport

    assert SpecificationReport(sp1=True, sp2=True).holds
    assert not SpecificationReport(sp1=True, sp2=False).holds
    assert not SpecificationReport(sp1=False, sp2=True).holds


@pytest.mark.parametrize("stack", ["dftno", "stno-bfs", "stno-dfs"])
def test_holds_agrees_with_check_on_protocol_configurations(stack):
    """``holds``/``sp1_holds`` skip the messages but must decide like ``check``."""
    network = generators.random_connected(10, extra_edge_probability=0.3, seed=3)
    protocol = build_protocol(stack)
    spec = OrientationSpecification()
    rng = random.Random(4)
    scheduler = Scheduler(network, protocol, seed=5)
    assert scheduler.run_until_legitimate(max_steps=5_000).converged
    legitimate = scheduler.configuration
    configurations = [legitimate]
    configurations += [protocol.random_configuration(network, rng=rng) for _ in range(5)]
    configurations += [
        corrupt_configuration(
            legitimate, protocol, network, node_fraction=0.1, variable_fraction=0.5, rng=rng
        )
        for _ in range(10)
    ]
    outcomes = set()
    for configuration in configurations:
        report = spec.check(network, configuration)
        assert spec.holds(network, configuration) == report.holds
        assert spec.sp1_holds(network, configuration) == report.sp1
        outcomes.add(report.holds)
    assert outcomes == {True, False}
