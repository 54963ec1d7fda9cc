"""Topology generators for the experiment suite.

The thesis proves its results for *arbitrary* rooted connected networks, and
motivates them with the classic families studied in the sense-of-direction
literature (rings, tori, hypercubes, cliques).  The benchmark harness sweeps
over these families, so each generator here returns a ready-to-use
:class:`~repro.graphs.network.RootedNetwork`.

All generators are deterministic unless they take an explicit ``seed`` / rng
argument, so experiments are reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import NetworkError
from repro.graphs.network import RootedNetwork


# ----------------------------------------------------------------------
# Deterministic families
# ----------------------------------------------------------------------
def ring(n: int, root: int = 0) -> RootedNetwork:
    """A cycle of ``n >= 3`` processors."""
    if n < 3:
        raise NetworkError("a ring needs at least 3 processors")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return RootedNetwork(n, edges, root=root, name=f"ring(n={n})")


def path(n: int, root: int = 0) -> RootedNetwork:
    """A simple path (linear array) of ``n`` processors."""
    if n < 1:
        raise NetworkError("a path needs at least 1 processor")
    edges = [(i, i + 1) for i in range(n - 1)]
    return RootedNetwork(n, edges, root=root, name=f"path(n={n})")


def star(n: int, root: int = 0) -> RootedNetwork:
    """A star with the hub at processor 0 and ``n - 1`` leaves."""
    if n < 2:
        raise NetworkError("a star needs at least 2 processors")
    edges = [(0, i) for i in range(1, n)]
    return RootedNetwork(n, edges, root=root, name=f"star(n={n})")


def complete(n: int, root: int = 0) -> RootedNetwork:
    """The clique ``K_n``."""
    if n < 2:
        raise NetworkError("a clique needs at least 2 processors")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return RootedNetwork(n, edges, root=root, name=f"complete(n={n})")


def wheel(n: int, root: int = 0) -> RootedNetwork:
    """A wheel: hub 0 connected to a cycle of ``n - 1`` rim processors."""
    if n < 4:
        raise NetworkError("a wheel needs at least 4 processors")
    rim = list(range(1, n))
    edges = [(0, i) for i in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return RootedNetwork(n, edges, root=root, name=f"wheel(n={n})")


def kary_tree(n: int, arity: int = 2, root: int = 0) -> RootedNetwork:
    """A complete ``arity``-ary tree on ``n`` processors (heap numbering)."""
    if n < 1:
        raise NetworkError("a tree needs at least 1 processor")
    if arity < 1:
        raise NetworkError("tree arity must be >= 1")
    edges = []
    for child in range(1, n):
        parent = (child - 1) // arity
        edges.append((parent, child))
    return RootedNetwork(n, edges, root=root, name=f"kary_tree(n={n}, k={arity})")


def caterpillar(spine: int, legs_per_node: int = 1, root: int = 0) -> RootedNetwork:
    """A caterpillar: a spine path with ``legs_per_node`` leaves on each spine node."""
    if spine < 1:
        raise NetworkError("a caterpillar needs a non-empty spine")
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for node in range(spine):
        for _ in range(legs_per_node):
            edges.append((node, next_id))
            next_id += 1
    return RootedNetwork(
        next_id, edges, root=root, name=f"caterpillar(spine={spine}, legs={legs_per_node})"
    )


def grid(rows: int, cols: int, root: int = 0) -> RootedNetwork:
    """A ``rows x cols`` mesh."""
    if rows < 1 or cols < 1:
        raise NetworkError("grid dimensions must be positive")
    n = rows * cols

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node_id(r, c), node_id(r, c + 1)))
            if r + 1 < rows:
                edges.append((node_id(r, c), node_id(r + 1, c)))
    return RootedNetwork(n, edges, root=root, name=f"grid({rows}x{cols})")


def torus(rows: int, cols: int, root: int = 0) -> RootedNetwork:
    """A ``rows x cols`` torus (wrap-around mesh); dimensions must be >= 3."""
    if rows < 3 or cols < 3:
        raise NetworkError("torus dimensions must be >= 3 to avoid duplicate links")
    n = rows * cols

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    edge_set = set()
    for r in range(rows):
        for c in range(cols):
            a = node_id(r, c)
            for b in (node_id(r, (c + 1) % cols), node_id((r + 1) % rows, c)):
                edge_set.add((a, b) if a < b else (b, a))
    return RootedNetwork(n, sorted(edge_set), root=root, name=f"torus({rows}x{cols})")


def hypercube(dimension: int, root: int = 0) -> RootedNetwork:
    """The ``dimension``-dimensional hypercube ``Q_d`` (``2**d`` processors)."""
    if dimension < 1:
        raise NetworkError("hypercube dimension must be >= 1")
    n = 1 << dimension
    edges = []
    for node in range(n):
        for bit in range(dimension):
            other = node ^ (1 << bit)
            if node < other:
                edges.append((node, other))
    return RootedNetwork(n, edges, root=root, name=f"hypercube(d={dimension})")


def lollipop(clique_size: int, tail: int, root: int = 0) -> RootedNetwork:
    """A clique of ``clique_size`` processors with a path of ``tail`` processors attached."""
    if clique_size < 2:
        raise NetworkError("lollipop clique must have at least 2 processors")
    if tail < 1:
        raise NetworkError("lollipop tail must have at least 1 processor")
    edges = [(i, j) for i in range(clique_size) for j in range(i + 1, clique_size)]
    prev = clique_size - 1
    for k in range(tail):
        node = clique_size + k
        edges.append((prev, node))
        prev = node
    n = clique_size + tail
    return RootedNetwork(n, edges, root=root, name=f"lollipop(k={clique_size}, tail={tail})")


# ----------------------------------------------------------------------
# Randomized families
# ----------------------------------------------------------------------
def random_tree(n: int, seed: int | None = None, root: int = 0) -> RootedNetwork:
    """A uniformly random labeled tree (random Pruefer-like attachment)."""
    if n < 1:
        raise NetworkError("a tree needs at least 1 processor")
    rng = random.Random(seed)
    edges = []
    for node in range(1, n):
        parent = rng.randrange(node)
        edges.append((parent, node))
    return RootedNetwork(n, edges, root=root, name=f"random_tree(n={n}, seed={seed})")


def height_tree(n: int, height: int, seed: int | None = None) -> RootedNetwork:
    """A tree on ``n`` processors whose root-to-leaf height is exactly ``height``.

    A spine of ``height`` edges fixes the height; the remaining processors are
    attached uniformly at random to spine processors other than the last one,
    so they can never extend the height.
    """
    rng = random.Random(seed)
    if height < 1 or height > n - 1:
        raise ValueError("height must lie in 1..n-1")
    edges = [(i, i + 1) for i in range(height)]
    for node in range(height + 1, n):
        edges.append((rng.randrange(0, height), node))
    return RootedNetwork(n, edges, root=0, name=f"height_tree(n={n}, h={height}, seed={seed})")


def random_connected(
    n: int,
    extra_edge_probability: float = 0.15,
    seed: int | None = None,
    root: int = 0,
) -> RootedNetwork:
    """A random connected graph: a random spanning tree plus extra random links.

    Every non-tree pair of processors is linked independently with probability
    ``extra_edge_probability``, so the expected density is tunable while
    connectivity is guaranteed.
    """
    if n < 1:
        raise NetworkError("a network needs at least 1 processor")
    if not 0.0 <= extra_edge_probability <= 1.0:
        raise NetworkError("extra_edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    edge_set: set[tuple[int, int]] = set()
    for node in range(1, n):
        parent = rng.randrange(node)
        edge_set.add((parent, node))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edge_set and rng.random() < extra_edge_probability:
                edge_set.add((u, v))
    return RootedNetwork(
        n,
        sorted(edge_set),
        root=root,
        name=f"random_connected(n={n}, p={extra_edge_probability}, seed={seed})",
    )


def random_regularish(n: int, degree: int, seed: int | None = None, root: int = 0) -> RootedNetwork:
    """A connected graph in which every processor has degree close to ``degree``.

    Built as a ring (to guarantee connectivity) plus random chords added while
    respecting the target degree.  Used by the space-complexity sweep, which
    needs to vary the maximum degree Delta independently of ``n``.
    """
    if n < 3:
        raise NetworkError("need at least 3 processors")
    if degree < 2 or degree >= n:
        raise NetworkError("degree must lie in [2, n-1]")
    rng = random.Random(seed)
    edge_set = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    degrees = [2] * n
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edge_set]
    rng.shuffle(candidates)
    for u, v in candidates:
        if degrees[u] < degree and degrees[v] < degree:
            edge_set.add((u, v))
            degrees[u] += 1
            degrees[v] += 1
    return RootedNetwork(
        n, sorted(edge_set), root=root, name=f"random_regularish(n={n}, d={degree}, seed={seed})"
    )


# ----------------------------------------------------------------------
# The exact example networks drawn in the thesis figures
# ----------------------------------------------------------------------
def figure_3_1_1_network() -> RootedNetwork:
    """The 5-processor rooted network of Figure 3.1.1 (DFTNO walkthrough).

    Processors (thesis labels in parentheses): ``0`` (r, the root), ``1`` (b),
    ``2`` (d), ``3`` (c), ``4`` (a).  The identifiers are chosen so that the
    default ascending port order makes the deterministic DFS visit ``b``
    before ``a`` at the root, reproducing the naming sequence of the figure:
    r=0, b=1, d=2, c=3, a=4.
    """
    edges = [(0, 1), (0, 4), (1, 2), (2, 3)]
    return RootedNetwork(5, edges, root=0, name="figure-3.1.1")


FIGURE_3_1_1_LABELS = {0: "r", 1: "b", 2: "d", 3: "c", 4: "a"}


def figure_4_1_1_network() -> RootedNetwork:
    """The 5-processor rooted tree of Figure 4.1.1 (STNO walkthrough).

    The root (0) has two children: an internal node (1) with two leaf children
    (3 and 4), and a leaf child (2).  The weight computation of the figure
    yields weights ``leaf=1``, ``internal=3``, ``root=5`` and the final names
    are root=0, internal=1, its leaves 2 and 3, and the remaining leaf 4.
    """
    edges = [(0, 1), (0, 2), (1, 3), (1, 4)]
    return RootedNetwork(5, edges, root=0, name="figure-4.1.1")


def figure_2_2_1_network() -> RootedNetwork:
    """A small network used to illustrate the chordal sense of direction (Fig 2.2.1).

    The exact drawing in the scanned thesis is not recoverable; we use a
    5-processor cycle with one chord, which exercises both ring links and a
    chord label, matching the intent of the illustration.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]
    return RootedNetwork(5, edges, root=0, name="figure-2.2.1")


#: Topology family names :func:`family` can build (the sweepable families).
FAMILY_NAMES = (
    "ring",
    "path",
    "star",
    "complete",
    "binary_tree",
    "random_tree",
    "random_connected",
    "grid",
)


def family(name: str, n: int, seed: int | None = None) -> RootedNetwork:
    """Dispatch helper used by sweeps: build family ``name`` with ``n`` processors."""
    builders = {
        "ring": lambda: ring(max(n, 3)),
        "path": lambda: path(n),
        "star": lambda: star(max(n, 2)),
        "complete": lambda: complete(max(n, 2)),
        "binary_tree": lambda: kary_tree(n, 2),
        "random_tree": lambda: random_tree(n, seed=seed),
        "random_connected": lambda: random_connected(n, seed=seed),
        "grid": lambda: grid(max(1, int(round(n ** 0.5))), max(1, int(round(n ** 0.5)))),
    }
    if name not in builders:
        raise NetworkError(f"unknown topology family {name!r}; choose from {sorted(builders)}")
    return builders[name]()


__all__ = [
    "ring",
    "path",
    "star",
    "complete",
    "wheel",
    "kary_tree",
    "caterpillar",
    "grid",
    "torus",
    "hypercube",
    "lollipop",
    "random_tree",
    "height_tree",
    "random_connected",
    "random_regularish",
    "figure_3_1_1_network",
    "figure_4_1_1_network",
    "figure_2_2_1_network",
    "FIGURE_3_1_1_LABELS",
    "FAMILY_NAMES",
    "family",
]
