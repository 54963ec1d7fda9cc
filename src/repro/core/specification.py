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

from repro.core.chordal import ChordalOrientation, chordal_edge_label
from repro.graphs.network import RootedNetwork
from repro.runtime.actions import Reads, Rule, all_of
from repro.runtime.configuration import Configuration
from repro.runtime.processor import GuardView, ProcessorView

#: Shared-variable name of the node label ``eta_p`` (both DFTNO and STNO).
VAR_NAME = "no_eta"
#: Shared-variable name of the per-link label map ``pi_p`` (both protocols).
VAR_EDGE_LABELS = "no_pi"

#: What :meth:`OrientationSpecification.misoriented` reads: a node's name and
#: labels, its neighbors' names (``names_unique`` reads names only).
_MISORIENTED_READS = Reads(
    own=frozenset({VAR_NAME, VAR_EDGE_LABELS}), neighbor=frozenset({VAR_NAME})
)


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
        processor knows this bound).

    ``eta_p`` and ``pi_p`` are read from :data:`VAR_NAME` and
    :data:`VAR_EDGE_LABELS`, the variables of both DFTNO and STNO.
    """

    def __init__(self, modulus: int | None = None) -> None:
        self.modulus = modulus

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

        def numeric_name(node: int) -> int:
            value = names.get(node, 0)
            return value if isinstance(value, int) else 0

        sp2 = True
        for node in network.nodes():
            labels = configuration.get(node, VAR_EDGE_LABELS)
            if not isinstance(labels, dict):
                sp2 = False
                violations.append(f"SP2: processor {node} has no edge-label map")
                continue
            for neighbor in network.neighbors(node):
                expected = chordal_edge_label(
                    numeric_name(node), numeric_name(neighbor), modulus
                )
                actual = labels.get(neighbor)
                if actual != expected:
                    sp2 = False
                    violations.append(
                        f"SP2: link ({node}, {neighbor}) labeled {actual!r} at {node}, expected {expected}"
                    )
        return SpecificationReport(sp1=sp1, sp2=sp2, violations=tuple(violations))

    def holds(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Whether ``SP_NO`` holds (SP1 and SP2 simultaneously).

        Evaluated as "no node is :meth:`misoriented`" plus the
        name-uniqueness residue (:meth:`names_unique`) -- the orientation
        layers' violation rule and residue -- without collecting
        :meth:`check`'s violation messages.
        """
        return not any(
            self.misoriented(GuardView(node, network, configuration)) for node in network.nodes()
        ) and self.names_unique(network, configuration)

    def sp1_holds(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Whether SP1 alone (unique in-range names) holds."""
        modulus = self.effective_modulus(network)
        return all(
            _in_range(configuration.get(node, VAR_NAME), modulus)
            for node in network.nodes()
        ) and self.names_unique(network, configuration)

    def misoriented(self, view: ProcessorView) -> bool:
        """SP1's range condition or SP2 fails at the view's processor.

        Reads only the closed neighborhood: the processor's name and labels
        and its neighbors' names.
        """
        modulus = self.effective_modulus(view.network)
        name = view.read(VAR_NAME)
        if not _in_range(name, modulus):
            return True
        labels = view.read(VAR_EDGE_LABELS)
        if not isinstance(labels, dict):
            return True
        read_neighbor, label = view.read_neighbor, labels.get
        for neighbor in view.neighbors:
            other = read_neighbor(neighbor, VAR_NAME)
            if not isinstance(other, int):
                other = 0
            if label(neighbor) != chordal_edge_label(name, other, modulus):
                return True
        return False

    def violation_rule(self, name: str, layer: str) -> Rule:
        """The orientation layers' violation rule: :meth:`misoriented`."""
        return Rule(name, all_of((self.misoriented, _MISORIENTED_READS)), layer=layer)

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
    "OrientationSpecification",
    "SpecificationReport",
    "VAR_NAME",
    "VAR_EDGE_LABELS",
]
