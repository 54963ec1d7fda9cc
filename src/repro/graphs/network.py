"""The rooted, undirected, connected network model of the paper.

Chapter 2 of the thesis models the distributed system as an undirected
connected graph ``S = (V, E)`` with a distinguished *root* processor ``r``;
all other processors are anonymous.  Communication is via locally shared
variables between neighbors.  :class:`RootedNetwork` captures exactly that
structure plus the *port order* each processor uses to enumerate its
neighbors, which is what makes the depth-first traversal of ``DFTNO``
deterministic.

Nodes are integers ``0..n-1``.  The object is immutable after construction;
all derived structures (neighbor tuples, port maps) are precomputed so that
guard evaluation in the scheduler is cheap.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import NetworkError

Edge = tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (small, large) representation of an edge."""
    return (u, v) if u <= v else (v, u)


class RootedNetwork:
    """An undirected, connected graph with a distinguished root processor.

    Parameters
    ----------
    num_nodes:
        Number of processors ``n``; processors are identified by
        ``0..n-1``.  Identifiers exist only inside the simulator -- the
        protocols themselves treat every non-root processor as anonymous.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops and duplicate edges are
        rejected.
    root:
        The distinguished root processor ``r`` (default ``0``).
    name:
        Optional human readable name used in reports and benchmark tables.
    port_orders:
        Optional mapping ``node -> sequence of neighbors`` overriding the
        default port order (ascending neighbor identifier).  Protocols scan
        neighbors in port order, so this controls e.g. the order in which the
        DFS token visits children.

    Raises
    ------
    NetworkError
        If the graph is empty, has invalid node identifiers, self loops,
        duplicate edges, an out-of-range root, or is not connected.
    """

    __slots__ = (
        "_n",
        "_root",
        "_name",
        "_edges",
        "_adjacency",
        "_ports",
        "_max_degree",
    )

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Edge],
        root: int = 0,
        name: str | None = None,
        port_orders: Mapping[int, Sequence[int]] | None = None,
    ) -> None:
        if num_nodes <= 0:
            raise NetworkError("a network needs at least one processor")
        if not 0 <= root < num_nodes:
            raise NetworkError(f"root {root} is not a valid processor id (n={num_nodes})")

        self._n = int(num_nodes)
        self._root = int(root)
        self._name = name or f"network(n={num_nodes})"

        edge_set: set[Edge] = set()
        adjacency: list[set[int]] = [set() for _ in range(num_nodes)]
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise NetworkError(f"edge ({u}, {v}) references an unknown processor")
            if u == v:
                raise NetworkError(f"self loop on processor {u} is not allowed")
            edge = _normalize_edge(u, v)
            if edge in edge_set:
                raise NetworkError(f"duplicate edge {edge}")
            edge_set.add(edge)
            adjacency[u].add(v)
            adjacency[v].add(u)

        if num_nodes > 1 and not edge_set:
            raise NetworkError("a multi-processor network needs at least one link")

        ports: list[tuple[int, ...]] = []
        for node in range(num_nodes):
            if port_orders is not None and node in port_orders:
                order = tuple(port_orders[node])
                if sorted(order) != sorted(adjacency[node]):
                    raise NetworkError(
                        f"port order for processor {node} does not list exactly its neighbors"
                    )
                ports.append(order)
            else:
                ports.append(tuple(sorted(adjacency[node])))

        self._edges = frozenset(edge_set)
        self._adjacency = tuple(frozenset(neigh) for neigh in adjacency)
        self._ports = tuple(ports)
        self._max_degree = max((len(p) for p in ports), default=0)

        self._check_connected()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    # ``n`` and ``root`` are read-only properties whose getter is a C-level
    # ``attrgetter``: guards read them on nearly every call, and a ``def``
    # getter would be one Python call per read.
    n = property(attrgetter("_n"), doc="Number of processors in the network.")
    root = property(
        attrgetter("_root"), doc="Identifier of the distinguished root processor ``r``."
    )

    @property
    def name(self) -> str:
        """Human readable name of the topology."""
        return self._name

    @property
    def max_degree(self) -> int:
        """The maximum degree Delta of the network."""
        return self._max_degree

    def num_edges(self) -> int:
        """Number of bidirectional links."""
        return len(self._edges)

    def nodes(self) -> range:
        """All processor identifiers."""
        return range(self._n)

    def edges(self) -> frozenset[Edge]:
        """The set of links, each as a canonical ``(min, max)`` pair."""
        return self._edges

    def is_root(self, node: int) -> bool:
        """Whether ``node`` is the distinguished root."""
        return node == self._root

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> tuple[int, ...]:
        """Neighbors of ``node`` in port order (the order protocols scan them)."""
        return self._ports[node]

    def neighbor_set(self, node: int) -> frozenset[int]:
        """Neighbors of ``node`` as a set (membership queries)."""
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return len(self._ports[node])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the link ``(u, v)`` exists."""
        return _normalize_edge(u, v) in self._edges

    def port(self, node: int, neighbor: int) -> int:
        """The local port number of ``neighbor`` at ``node``.

        Ports number the incident links ``0..degree-1`` in port order; this is
        the label a processor uses to address a link before any orientation
        has been computed.
        """
        try:
            return self._ports[node].index(neighbor)
        except ValueError as exc:
            raise NetworkError(f"{neighbor} is not a neighbor of {node}") from exc

    def neighbor_at(self, node: int, port: int) -> int:
        """The neighbor reached through local ``port`` of ``node``."""
        try:
            return self._ports[node][port]
        except IndexError as exc:
            raise NetworkError(f"processor {node} has no port {port}") from exc

    # ------------------------------------------------------------------
    # Internal helpers / dunder methods
    # ------------------------------------------------------------------
    def _check_connected(self) -> None:
        seen = {self._root}
        frontier = [self._root]
        while frontier:
            node = frontier.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) != self._n:
            missing = sorted(set(range(self._n)) - seen)
            raise NetworkError(f"network is not connected; unreachable processors: {missing}")

    def with_root(self, root: int) -> "RootedNetwork":
        """A copy of this network rooted at a different processor."""
        return RootedNetwork(
            self._n,
            self._edges,
            root=root,
            name=f"{self._name}@root={root}",
            port_orders={node: self._ports[node] for node in self.nodes()},
        )

    def with_port_orders(self, port_orders: Mapping[int, Sequence[int]]) -> "RootedNetwork":
        """A copy of this network with some port orders replaced."""
        merged = {node: self._ports[node] for node in self.nodes()}
        for node, order in port_orders.items():
            merged[node] = tuple(order)
        return RootedNetwork(self._n, self._edges, root=self._root, name=self._name, port_orders=merged)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedNetwork):
            return NotImplemented
        return (
            self._n == other._n
            and self._root == other._root
            and self._edges == other._edges
            and self._ports == other._ports
        )

    def __hash__(self) -> int:
        return hash((self._n, self._root, self._edges, self._ports))

    def __repr__(self) -> str:
        return (
            f"RootedNetwork(name={self._name!r}, n={self._n}, m={len(self._edges)}, "
            f"root={self._root})"
        )
