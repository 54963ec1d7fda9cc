"""Every layer states legitimacy one way: violation rules plus a residue.

``Protocol.legitimate`` is the only definition of a legitimacy predicate: no
leaf layer's violation rule holds at any node and every leaf's residue
holds.  PIF's wave invariant is local, so it is three rules; Dijkstra's
"exactly one privilege" is global, so it is the ring's residue.  Both are
held here to an inline copy of the whole-configuration predicate they
replace, on every configuration of small networks, and the two scheduler
cores are run in lockstep on them (with the guard and rule read checks on,
too, since ``repro-lint``'s probe network is not a tree and its static
RL008 pass skips PIF).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.graphs import generators
from repro.graphs.network import RootedNetwork
from repro.runtime.composition import HookedComposition
from repro.runtime.configuration import Configuration
from repro.runtime.protocol import Protocol
from repro.runtime.reference import ReferenceScheduler
from repro.runtime.scheduler import Scheduler
from repro.substrates.dijkstra_ring import VAR_COUNTER, DijkstraTokenRing, ring_order
from repro.substrates.pif import BROADCAST, CLEAN, FEEDBACK, VAR_PHASE, PIFWave


# ----------------------------------------------------------------------
# The whole-configuration predicates the rules and residues replace
# ----------------------------------------------------------------------
def _whole_pif(parents: dict[int, int | None], network, configuration) -> bool:
    for node in network.nodes():
        own = configuration.get(node, VAR_PHASE)
        parent = parents.get(node)
        if parent is None:
            if own == FEEDBACK:
                return False
            continue
        above = configuration.get(parent, VAR_PHASE)
        if own == BROADCAST and above != BROADCAST:
            return False
        if above == FEEDBACK and own != FEEDBACK:
            return False
    return True


def _whole_dijkstra(network, configuration) -> bool:
    order = ring_order(network)
    privileged = []
    for index, node in enumerate(order):
        predecessor = order[index - 1]
        same = configuration.get(node, VAR_COUNTER) == configuration.get(predecessor, VAR_COUNTER)
        if network.is_root(node):
            if same:
                privileged.append(node)
        elif not same:
            privileged.append(node)
    return len(privileged) == 1


def _rooted_trees(n: int):
    """One parent array per rooted tree shape on ``n`` nodes (root 0, parent[i] < i)."""
    seen = set()
    for choice in itertools.product(*(range(i) for i in range(1, n))):
        parents = (None, *choice)
        children: dict[int, list[int]] = {node: [] for node in range(n)}
        for node in range(1, n):
            children[parents[node]].append(node)

        def shape(node: int) -> str:
            return "(" + "".join(sorted(shape(child) for child in children[node])) + ")"

        code = shape(0)
        if code not in seen:
            seen.add(code)
            yield parents


@pytest.mark.parametrize("n", range(1, 7))
def test_pif_rules_equal_the_whole_wave_predicate_on_every_configuration(n):
    trees = 0
    for parents in _rooted_trees(n):
        trees += 1
        network = RootedNetwork(n, [(parents[node], node) for node in range(1, n)])
        protocol = PIFWave()
        reference = dict(enumerate(parents))
        for phases in itertools.product((CLEAN, BROADCAST, FEEDBACK), repeat=n):
            configuration = Configuration(
                {node: {VAR_PHASE: phase} for node, phase in enumerate(phases)}
            )
            assert protocol.legitimate(network, configuration) == _whole_pif(
                reference, network, configuration
            ), (parents, phases)
    # The rooted tree shapes on 1..6 nodes (OEIS A000081).
    assert trees == (1, 1, 2, 4, 9, 20)[n - 1]


@pytest.mark.parametrize("n", range(3, 6))
def test_dijkstra_residue_equals_the_single_privilege_predicate_on_every_configuration(n):
    network = generators.ring(n)
    protocol = DijkstraTokenRing(k=n + 1)
    assert not protocol.violation_rules(network, 0)
    for counters in itertools.product(range(n + 1), repeat=n):
        configuration = Configuration(
            {node: {VAR_COUNTER: value} for node, value in enumerate(counters)}
        )
        expected = _whole_dijkstra(network, configuration)
        assert protocol.legitimacy_residue(network, configuration) == expected, counters
        assert protocol.legitimate(network, configuration) == expected, counters


# ----------------------------------------------------------------------
# Both cores agree, step by step, with and without the read checks
# ----------------------------------------------------------------------
SUBSTRATES = {
    "pif-tree": (PIFWave, generators.random_tree(10, seed=3)),
    "pif-ring-parents": (
        lambda: PIFWave(parents={0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 0}),
        generators.ring(6),
    ),
    "dijkstra": (DijkstraTokenRing, generators.ring(6)),
    "dijkstra-k": (lambda: DijkstraTokenRing(k=9), generators.ring(7)),
}


@pytest.mark.parametrize("debug", [False, True], ids=["release", "debug-guards"])
@pytest.mark.parametrize("name", SUBSTRATES)
def test_scheduler_and_reference_agree_after_every_step(name, debug, monkeypatch):
    if debug:
        monkeypatch.setenv("REPRO_DEBUG_GUARDS", "1")
    else:
        monkeypatch.delenv("REPRO_DEBUG_GUARDS", raising=False)
    build, network = SUBSTRATES[name]
    protocol = build()
    rng = random.Random(name)
    cores = [core(network, protocol, seed=5) for core in (Scheduler, ReferenceScheduler)]
    assert cores[0].check_guard_locality is debug
    seen = set()
    for step in range(240):
        if step % 80 == 40:
            corrupted = protocol.random_configuration(network, rng=rng)
            for scheduler in cores:
                scheduler.set_configuration(corrupted)
        assert cores[0].configuration == cores[1].configuration, step
        legitimate = {scheduler.legitimate() for scheduler in cores}
        distance = {scheduler.legitimacy_distance() for scheduler in cores}
        assert len(legitimate) == 1 and len(distance) == 1, step
        (holds,), (value,) = legitimate, distance
        assert (value == 0) == holds, step
        seen.add(holds)
        for scheduler in cores:
            scheduler.step()
    assert seen == {True, False}


def test_pif_distance_counts_the_violating_nodes():
    # Path 0-1-2-3 rooted at 0: the root in feedback, its child clean below
    # it, and a broadcast below a clean parent -- three violating nodes.
    network = generators.path(4)
    protocol = PIFWave()
    phases = (FEEDBACK, CLEAN, CLEAN, BROADCAST)
    configuration = Configuration({node: {VAR_PHASE: phase} for node, phase in enumerate(phases)})
    for core in (Scheduler, ReferenceScheduler):
        scheduler = core(network, protocol, configuration=configuration, seed=1)
        assert not scheduler.legitimate()
        assert scheduler.legitimacy_distance() == 3


# ----------------------------------------------------------------------
# No second form
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base", [Protocol, HookedComposition], ids=lambda cls: cls.__name__)
def test_a_layer_that_defines_legitimate_is_rejected(base):
    with pytest.raises(TypeError, match="violation_rules.*legitimacy_residue"):

        class Whole(base):
            def legitimate(self, network, configuration) -> bool:
                return True
