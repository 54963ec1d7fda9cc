"""The struct-of-arrays configuration mirror (:mod:`repro.runtime.arrayview`).

The load-bearing property is *coherence*: the columnar view tracks the dict
configuration through its change watcher, so no interleaving of dict-path
mutations (scheduler steps, scenario-style ``set``/``update_node`` writes,
``replace_node``, freeze/unfreeze) with array-path reads may ever observe the
two representations disagreeing.  The hypothesis test below drives exactly
that interleaving.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.dftno import build_dftno
from repro.graphs import generators
from repro.runtime import arrayview
from repro.runtime.arrayview import ArrayView, ArrayViewUnsupported
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import SynchronousDaemon
from repro.runtime.scheduler import Scheduler
from repro.substrates.spanning_tree import BFSSpanningTree


def _assert_coherent(view: ArrayView, configuration: Configuration) -> None:
    """The array view, after sync, must agree with the dict state everywhere."""
    nodes = list(view.network.nodes())
    decoded = view.states_of(nodes)
    for node in nodes:
        state = configuration.peek_state(node)
        for name in view.variable_names:
            assert decoded[node][name] == state[name], (node, name)


def test_view_matches_initial_and_stepped_configuration() -> None:
    network = generators.random_connected(12, seed=3)
    protocol = BFSSpanningTree()
    scheduler = Scheduler(network, protocol, daemon=SynchronousDaemon(), seed=7)
    with ArrayView(network, protocol, scheduler.configuration) as view:
        _assert_coherent(view, scheduler.configuration)
        while scheduler.step() is not None:
            _assert_coherent(view, scheduler.configuration)


def test_requires_numpy(monkeypatch) -> None:
    monkeypatch.setattr(arrayview, "HAVE_NUMPY", False)
    network = generators.ring(4)
    protocol = BFSSpanningTree()
    with pytest.raises(ArrayViewUnsupported, match="numpy"):
        ArrayView(network, protocol, protocol.initial_configuration(network))


def test_detached_view_stops_tracking() -> None:
    network = generators.ring(4)
    protocol = BFSSpanningTree()
    configuration = protocol.initial_configuration(network)
    view = ArrayView(network, protocol, configuration)
    _assert_coherent(view, configuration)
    view.detach()
    configuration.set(1, "bt_dist", 3)
    view.sync()
    assert view.value_at(1, "bt_dist") != 3


# One operation of the interleaving: (opcode, node selector, value seed).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["step", "set", "update", "replace", "freeze", "unfreeze"]),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, seed=st.integers(min_value=0, max_value=2**16))
def test_view_never_diverges_under_interleaved_mutation(ops, seed) -> None:
    """Hypothesis: arbitrary dict-path mutations never desync the array view.

    ``set``/``update_node`` are what scenario events perform under the hood;
    ``replace_node`` swaps a whole local state; freeze/unfreeze perturb the
    scheduler's selection (and hence which nodes the steps touch) without
    touching state directly.  After every single operation the array view
    must decode back exactly the dict configuration.
    """
    network = generators.random_connected(10, seed=4)
    protocol = build_dftno()
    scheduler = Scheduler(
        network,
        protocol,
        daemon=SynchronousDaemon(),
        seed=seed,
        configuration=protocol.random_configuration(network, seed=seed),
    )
    configuration = scheduler.configuration
    rng = random.Random(seed)
    with ArrayView(network, protocol, configuration) as view:
        for opcode, node_pick, value_seed in ops:
            node = node_pick % network.n
            if opcode == "step":
                scheduler.step()
            elif opcode == "set":
                state = protocol.random_state(network, node, random.Random(value_seed))
                name = rng.choice(sorted(state))
                configuration.set(node, name, state[name])
            elif opcode == "update":
                state = protocol.random_state(network, node, random.Random(value_seed))
                names = rng.sample(sorted(state), k=max(1, len(state) // 2))
                configuration.update_node(
                    node, {name: state[name] for name in names}
                )
            elif opcode == "replace":
                configuration.replace_node(
                    node, protocol.random_state(network, node, random.Random(value_seed))
                )
            elif opcode == "freeze":
                scheduler.freeze([node])
            elif opcode == "unfreeze":
                scheduler.unfreeze([node])
            _assert_coherent(view, configuration)
