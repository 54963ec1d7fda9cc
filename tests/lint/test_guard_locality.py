"""The runtime half of RL004: ``check_guard_locality`` attributes violations.

A guard that reaches around the view API (``view._configuration.get`` on a
far node) must raise :class:`~repro.errors.GuardLocalityError` naming the
processor, layer, action, rule and the offending reads -- the fix for the
old anonymous mid-step ``ProtocolError``."""

from __future__ import annotations

import pytest

from repro.errors import GuardLocalityError, ProtocolError
from repro.graphs import generators
from repro.lint import finding_from_guard_error
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import int_variable


class _SneakyProtocol(Protocol):
    """A ring layer whose guard reads the antipodal processor's state."""

    name = "sneaky"

    def variables(self, network, node):
        return [int_variable("sn_x", 0, 100)]

    def actions(self, network, node):
        far = (node + network.n // 2) % network.n

        def guard(view):
            # Bypasses read_neighbor's neighbor check on purpose.
            return view._configuration.get(far, "sn_x") == view.read("sn_x")

        def step(view):
            view.write("sn_x", view.read("sn_x") + 1)

        return [Action("SN-Peek", guard, step, layer=self.name)]

    def legitimacy_residue(self, network, configuration):
        return False


def _build(check: bool) -> Scheduler:
    network = generators.ring(6)
    protocol = _SneakyProtocol()
    return Scheduler(
        network,
        protocol,
        seed=7,
        configuration=protocol.initial_configuration(network),
        check_guard_locality=check,
    )


def test_sneaky_guard_raises_attributed_error() -> None:
    scheduler = _build(check=True)
    with pytest.raises(GuardLocalityError) as excinfo:
        scheduler.run_until_legitimate(max_steps=10)
    exc = excinfo.value
    assert exc.rule == "RL004"
    assert exc.layer == "sneaky"
    assert exc.action == "SN-Peek"
    assert exc.node is not None
    assert exc.reads, "the offending (node, variable) pairs are attached"
    far, variable = exc.reads[0]
    assert variable == "sn_x"
    assert "SN-Peek" in str(exc)
    assert "sneaky" in str(exc)


def test_guard_locality_error_is_a_protocol_error() -> None:
    # Existing callers catching ProtocolError keep working.
    scheduler = _build(check=True)
    with pytest.raises(ProtocolError):
        scheduler.run_until_legitimate(max_steps=10)


def test_sneaky_guard_undetected_without_debug_mode() -> None:
    # The fast path must not pay for tracking: the same protocol "runs".
    scheduler = _build(check=False)
    scheduler.run_until_legitimate(max_steps=5)
    assert scheduler.steps_executed > 0


def test_guard_error_routes_through_findings_formatter() -> None:
    scheduler = _build(check=True)
    with pytest.raises(GuardLocalityError) as excinfo:
        scheduler.run_until_legitimate(max_steps=10)
    finding = finding_from_guard_error(excinfo.value)
    assert finding.rule == "RL004"
    assert finding.severity == "error"
    assert finding.layer == "sneaky"
    assert finding.function == "SN-Peek"


def test_real_protocols_run_clean_under_debug_mode() -> None:
    from repro.core.dftno import build_dftno

    network = generators.random_connected(8, seed=2)
    protocol = build_dftno()
    scheduler = Scheduler(
        network,
        protocol,
        seed=3,
        configuration=protocol.initial_configuration(network),
        check_guard_locality=True,
    )
    result = scheduler.run_until_legitimate()
    assert result.converged
