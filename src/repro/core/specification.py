"""The network-orientation problem specification ``SP_NO`` (Section 2.3).

A computation satisfies the specification when

* **SP1** -- every processor carries a unique name ``eta_p`` in
  ``{0, ..., N-1}``, and
* **SP2** -- for every processor ``p`` and every incident link ``(p, q)``,
  the label stored at ``p`` equals ``(eta_p - eta_q) mod N``.

The protocols store the name in the shared variable :data:`VAR_NAME`
(``no_eta``) and the per-link labels in :data:`VAR_EDGE_LABELS` (``no_pi``);
:class:`OrientationSpecification` evaluates SP1/SP2 directly on a live
:class:`~repro.runtime.configuration.Configuration`, which is how the
protocols' legitimacy predicates and the experiment harness decide whether the
system has stabilized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chordal import ChordalOrientation, chordal_labels, positive_modulus
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Reads, Rule, Witness, all_of
from repro.runtime.configuration import Configuration
from repro.runtime.processor import GuardView, ProcessorView

#: Shared-variable name of the node label ``eta_p`` (both DFTNO and STNO).
VAR_NAME = "no_eta"
#: Shared-variable name of the per-link label map ``pi_p`` (both protocols).
VAR_EDGE_LABELS = "no_pi"

#: What :meth:`OrientationSpecification.name_out_of_range` reads: the node's name.
NAME_READS = Reads(own=frozenset({VAR_NAME}))
#: What :meth:`OrientationSpecification.sp2_violated` reads: the node's name
#: and labels, its neighbors' names (``names_unique`` reads names only).
SP2_READS = Reads(own=frozenset({VAR_NAME, VAR_EDGE_LABELS}), neighbor=frozenset({VAR_NAME}))


def _in_range(name: object, modulus: int) -> bool:
    """SP1's range condition on one name: an integer in ``{0, ..., N-1}``."""
    return isinstance(name, int) and 0 <= name < modulus


@dataclass(frozen=True)
class SpecificationReport:
    """Outcome of checking SP1 and SP2 on one configuration."""

    sp1: bool
    sp2: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def holds(self) -> bool:
        """Whether the full specification ``SP_NO`` = SP1 and SP2 holds."""
        return self.sp1 and self.sp2


class OrientationSpecification:
    """Evaluates ``SP_NO`` on configurations of an orientation protocol.

    Parameters
    ----------
    modulus:
        The ``N`` of the chordal arithmetic.  ``None`` means "the number of
        processors of the network being checked" (the thesis assumes every
        processor knows this bound).  A given ``N`` must be positive.

    ``eta_p`` and ``pi_p`` are read from :data:`VAR_NAME` and
    :data:`VAR_EDGE_LABELS`, the variables of both DFTNO and STNO.
    """

    def __init__(self, modulus: int | None = None) -> None:
        self.modulus = None if modulus is None else positive_modulus(modulus)

    def effective_modulus(self, network: RootedNetwork) -> int:
        """The modulus used for ``network`` (explicit value or ``network.n``)."""
        return self.modulus if self.modulus is not None else network.n

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self, network: RootedNetwork, configuration: Configuration) -> SpecificationReport:
        """Evaluate SP1 and SP2, collecting human-readable violations."""
        modulus = self.effective_modulus(network)
        violations: list[str] = []

        names: dict[int, int] = {}
        sp1 = True
        seen: dict[int, int] = {}
        for node in network.nodes():
            name = configuration.get(node, VAR_NAME)
            names[node] = name
            if not _in_range(name, modulus):
                sp1 = False
                violations.append(f"SP1: processor {node} carries out-of-range name {name!r}")
                continue
            if name in seen:
                sp1 = False
                violations.append(
                    f"SP1: processors {seen[name]} and {node} both carry name {name}"
                )
            else:
                seen[name] = node

        sp2 = True
        for node in network.nodes():
            labels = configuration.get(node, VAR_EDGE_LABELS)
            if not isinstance(labels, dict):
                sp2 = False
                violations.append(f"SP2: processor {node} has no edge-label map")
                continue
            own = names[node] if isinstance(names[node], int) else 0
            neighbors = network.neighbors(node)
            expected_labels = chordal_labels(own, [names[q] for q in neighbors], modulus)
            for neighbor, expected in zip(neighbors, expected_labels):
                actual = labels.get(neighbor)
                if actual != expected:
                    sp2 = False
                    violations.append(
                        f"SP2: link ({node}, {neighbor}) labeled {actual!r} at {node}, expected {expected}"
                    )
        return SpecificationReport(sp1=sp1, sp2=sp2, violations=tuple(violations))

    def holds(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Whether ``SP_NO`` holds (SP1 and SP2 simultaneously).

        Answered from the orientation layers' two violation rules,
        :meth:`name_out_of_range` and :meth:`sp2_violated`, at every node,
        plus the name-uniqueness residue (:meth:`names_unique`), without
        collecting :meth:`check`'s violation messages.
        """
        for node in network.nodes():
            view = GuardView(node, network, configuration)
            if self.name_out_of_range(view) or self.sp2_violated(view):
                return False
        return self.names_unique(network, configuration)

    def sp1_holds(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Whether SP1 alone (unique in-range names) holds."""
        modulus = self.effective_modulus(network)
        return all(
            _in_range(configuration.get(node, VAR_NAME), modulus)
            for node in network.nodes()
        ) and self.names_unique(network, configuration)

    def name_out_of_range(self, view: ProcessorView) -> bool:
        """SP1's range condition fails at the view's processor: its name is not in ``0..N-1``."""
        return not _in_range(view.read(VAR_NAME), self.effective_modulus(view.network))

    def sp2_violated(self, view: ProcessorView) -> dict[int, int] | None:
        """Where SP2 fails at the view's processor, the labels its links must carry.

        A link label is not ``(eta_p - eta_q) mod N`` there, or the label map
        is not a dict; ``None`` where SP2 holds.  A neighbor name that is not
        an integer counts as ``0``, as in :func:`chordal_labels`.  The
        edge-relabeling guards' label part, a
        :class:`~repro.runtime.actions.Witness` whose value :meth:`relabel`
        writes, and a violation rule.
        """
        modulus = self.effective_modulus(view.network)
        own, read_neighbor = view.read(VAR_NAME), view.read_neighbor
        wanted = {}
        for neighbor in view.neighbors:
            other = read_neighbor(neighbor, VAR_NAME)
            wanted[neighbor] = (own - (other if isinstance(other, int) else 0)) % modulus
        labels = view.read(VAR_EDGE_LABELS)
        if labels == wanted or (
            isinstance(labels, dict)
            and all(labels.get(neighbor) == label for neighbor, label in wanted.items())
        ):
            return None
        return wanted

    def relabel(self, view: ProcessorView) -> None:
        """The orientation layers' edge-relabeling statement: establish SP2 at the view."""
        view.write(VAR_EDGE_LABELS, view.witness(self.sp2_violated))

    def violation_rules(self, prefix: str, layer: str) -> tuple[Rule, Rule]:
        """``<prefix>-NameRange`` (SP1's range condition, cheap: first), ``<prefix>-Mislabeled``."""
        return (
            Rule(f"{prefix}-NameRange", all_of((self.name_out_of_range, NAME_READS)), layer=layer),
            Rule(
                f"{prefix}-Mislabeled", all_of((Witness(self.sp2_violated), SP2_READS)), layer=layer
            ),
        )

    def names_unique(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """SP1's global residue: no two processors carry the same in-range name."""
        modulus = self.effective_modulus(network)
        seen: set[int] = set()
        for node in network.nodes():
            name = configuration.get(node, VAR_NAME)
            if not _in_range(name, modulus):
                continue
            if name in seen:
                return False
            seen.add(name)
        return True

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(self, network: RootedNetwork, configuration: Configuration) -> ChordalOrientation:
        """Read the orientation out of ``configuration`` (without validating it)."""
        modulus = self.effective_modulus(network)
        names = {node: configuration.get(node, VAR_NAME) for node in network.nodes()}
        labels: dict[int, dict[int, int]] = {}
        for node in network.nodes():
            stored = configuration.get(node, VAR_EDGE_LABELS)
            stored = stored if isinstance(stored, dict) else {}
            labels[node] = {
                neighbor: stored.get(neighbor) for neighbor in network.neighbors(node)
            }
        return ChordalOrientation(names=names, edge_labels=labels, modulus=modulus)


__all__ = [
    "NAME_READS",
    "OrientationSpecification",
    "SP2_READS",
    "SpecificationReport",
    "VAR_NAME",
    "VAR_EDGE_LABELS",
]
