"""The chordal sense of direction (Section 2.2 of the thesis).

A chordal labeling fixes a cyclic ordering of the ``N`` processors (here:
the assignment of unique names ``eta in {0..N-1}``) and labels the link from
``p`` to ``q`` with the cyclic distance ``(eta_p - eta_q) mod N`` as seen from
``p``.  Two structural facts follow immediately and are exposed as checks
here:

* *local orientation*: because names are unique, the labels of the links
  incident to one processor are pairwise distinct;
* *edge symmetry*: the label of a link at one endpoint determines the label at
  the other endpoint (they are inverses modulo ``N``).

:class:`ChordalOrientation` is the immutable value object the high-level API
returns once a protocol has stabilized: the names, the per-endpoint edge
labels, and the modulus, together with validation and navigation helpers used
by the sense-of-direction applications (routing, traversal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import SpecificationError
from repro.graphs.network import RootedNetwork


def positive_modulus(modulus: int) -> int:
    """``modulus``, which must be positive (:class:`SpecificationError` otherwise)."""
    if modulus <= 0:
        raise SpecificationError("the chordal modulus N must be positive")
    return modulus


def chordal_edge_label(name_p: int, name_q: int, modulus: int) -> int:
    """The chordal label of link ``(p, q)`` as seen from ``p``: ``(eta_p - eta_q) mod N``."""
    return (name_p - name_q) % positive_modulus(modulus)


def chordal_labels(name_p: int, names: Sequence[object], modulus: int) -> list[int]:
    """:func:`chordal_edge_label` of ``p``'s links to neighbors named ``names``, in order.

    A neighbor name that is not an integer (a corrupted state) counts as ``0``.
    """
    modulus = positive_modulus(modulus)
    return [(name_p - (name if isinstance(name, int) else 0)) % modulus for name in names]


def inverse_label(label: int, modulus: int) -> int:
    """The label of the same link as seen from the other endpoint (``N - d mod N``)."""
    return (-label) % positive_modulus(modulus)


def is_locally_oriented(labels: Mapping[int, int]) -> bool:
    """Local orientation: the labels assigned by one processor are pairwise distinct."""
    values = list(labels.values())
    return len(values) == len(set(values))


@dataclass(frozen=True)
class ChordalOrientation:
    """A fully oriented network: unique names plus chordal edge labels.

    Attributes
    ----------
    names:
        ``processor -> eta`` with ``eta in {0..modulus-1}``.
    edge_labels:
        ``processor -> {neighbor -> label}``; ``edge_labels[p][q]`` is the
        label of link ``(p, q)`` at ``p``'s side.
    modulus:
        The ``N`` used by the chordal arithmetic (the number of processors, or
        the known upper bound on it).
    """

    names: dict[int, int]
    edge_labels: dict[int, dict[int, int]]
    modulus: int

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_names(
        cls, network: RootedNetwork, names: Mapping[int, int], modulus: int | None = None
    ) -> "ChordalOrientation":
        """Derive the (unique) chordal labeling induced by a naming of the processors."""
        modulus = modulus if modulus is not None else network.n
        labels = {
            node: {
                neighbor: chordal_edge_label(names[node], names[neighbor], modulus)
                for neighbor in network.neighbors(node)
            }
            for node in network.nodes()
        }
        return cls(names=dict(names), edge_labels=labels, modulus=modulus)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def name_of(self, node: int) -> int:
        """The name ``eta_p`` of ``node``."""
        return self.names[node]

    def node_named(self, name: int) -> int:
        """The processor carrying ``name`` (requires the orientation to be valid)."""
        for node, eta in self.names.items():
            if eta == name:
                return node
        raise SpecificationError(f"no processor carries name {name}")

    def label(self, node: int, neighbor: int) -> int:
        """The label of link ``(node, neighbor)`` at ``node``'s side."""
        return self.edge_labels[node][neighbor]

    def neighbor_name(self, node: int, neighbor: int) -> int:
        """The name of ``neighbor`` as derivable locally at ``node`` from the link label.

        This is the operational benefit of a chordal sense of direction: a
        processor knows the *names* of its neighbors without any extra
        storage, because ``eta_q = (eta_p - pi_p[q]) mod N``.
        """
        return (self.names[node] - self.edge_labels[node][neighbor]) % self.modulus

    def cyclic_distance(self, source: int, target: int) -> int:
        """The forward distance from ``source`` to ``target`` on the virtual name cycle."""
        return (self.names[target] - self.names[source]) % self.modulus

    # ------------------------------------------------------------------
    # Validation (the Section 2.2 properties)
    # ------------------------------------------------------------------
    def violations(self, network: RootedNetwork) -> list[str]:
        """Human-readable list of every way this orientation is inconsistent."""
        problems: list[str] = []
        seen: dict[int, int] = {}
        for node in network.nodes():
            if node not in self.names:
                problems.append(f"processor {node} has no name")
                continue
            name = self.names[node]
            if not 0 <= name < self.modulus:
                problems.append(f"name {name} of processor {node} is outside 0..{self.modulus - 1}")
            if name in seen:
                problems.append(f"processors {seen[name]} and {node} share name {name}")
            else:
                seen[name] = node

        for node in network.nodes():
            labels = self.edge_labels.get(node, {})
            for neighbor in network.neighbors(node):
                if neighbor not in labels:
                    problems.append(f"link ({node}, {neighbor}) is unlabeled at {node}")
                    continue
                expected = chordal_edge_label(
                    self.names.get(node, 0), self.names.get(neighbor, 0), self.modulus
                )
                if labels[neighbor] != expected:
                    problems.append(
                        f"link ({node}, {neighbor}) carries label {labels[neighbor]} at {node}, "
                        f"expected {expected}"
                    )
            if not is_locally_oriented({q: labels[q] for q in labels if q in network.neighbor_set(node)}):
                problems.append(f"labels at processor {node} are not locally distinct")

        for u, v in network.edges():
            label_uv = self.edge_labels.get(u, {}).get(v)
            label_vu = self.edge_labels.get(v, {}).get(u)
            if label_uv is None or label_vu is None:
                continue
            if label_vu != inverse_label(label_uv, self.modulus):
                problems.append(
                    f"link ({u}, {v}) violates edge symmetry: {label_uv} at {u} vs {label_vu} at {v}"
                )
        return problems

    def is_valid(self, network: RootedNetwork) -> bool:
        """Whether the orientation satisfies SP1, SP2 and the chordal properties."""
        return not self.violations(network)

    def require_valid(self, network: RootedNetwork) -> None:
        """Raise :class:`SpecificationError` with the violation list if invalid."""
        problems = self.violations(network)
        if problems:
            raise SpecificationError(
                "invalid chordal orientation:\n  " + "\n  ".join(problems)
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def format(self, network: RootedNetwork) -> str:
        """A readable table of names and per-link labels."""
        lines = [f"chordal orientation (N = {self.modulus})"]
        for node in network.nodes():
            labels = ", ".join(
                f"->{neighbor}: {self.edge_labels.get(node, {}).get(neighbor, '?')}"
                for neighbor in network.neighbors(node)
            )
            lines.append(f"  processor {node}: eta={self.names.get(node, '?')}  [{labels}]")
        return "\n".join(lines)


__all__ = [
    "chordal_edge_label",
    "chordal_labels",
    "inverse_label",
    "is_locally_oriented",
    "positive_modulus",
    "ChordalOrientation",
]
