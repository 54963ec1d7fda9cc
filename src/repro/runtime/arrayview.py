"""Struct-of-arrays view of a :class:`~repro.runtime.configuration.Configuration`.

The dict-of-nodes configuration is the authoritative state everywhere in the
runtime; this module adds an *opt-in* columnar mirror of it -- one flat numpy
array per declared variable plus a CSR neighbor index -- which is what the
batch guard/action kernels of the vectorized engine
(:mod:`repro.runtime.vectorized`) operate on.

Coherence is watcher-driven: the view registers a change watcher on the
configuration, so every journal event (``set``, ``apply_writes``,
``replace_node``, ``mark_dirty`` -- every mutation path funnels through
``Configuration._journal``) marks the touched nodes pending, and the next
array access re-encodes exactly those nodes from the dict state.  Draining
the scheduler's dirty journal never blinds the view, because the watcher
stream is independent of the journal.

Encodings (all arrays are ``int64``):

* ``int``     -- the value itself;
* ``enum``    -- the index into the declaration's ``enum_values`` tuple;
* ``pointer`` -- the neighbor id, ``None`` as ``-1``;
* ``map``     -- an edge-indexed array: node ``p``'s per-neighbor map occupies
  the CSR slice ``indptr[p]:indptr[p+1]`` in port order.

A value outside its encoding (a non-integer, a negative pointer, an enum
value not in the declared tuple, a map whose keys are not exactly the
neighbors) raises :class:`ArrayViewUnsupported`; consumers treat that as
"this run cannot be vectorized" and fall back to per-node dispatch -- the
encoding is allowed to be partial, never allowed to be wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.network import RootedNetwork
    from repro.runtime.configuration import Configuration
    from repro.runtime.protocol import Protocol

try:  # numpy is an optional extra (``pip install .[vectorized]``)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatched tests
    _np = None

#: Whether numpy is importable in this environment.
HAVE_NUMPY = _np is not None

#: The numpy module (``None`` when :data:`HAVE_NUMPY` is false).  Kernels
#: reach it through ``ArrayView.np`` so they never import numpy themselves.
np = _np

#: Variable kinds the array encoding understands.
ENCODABLE_KINDS = ("int", "enum", "pointer", "map")


class ArrayViewUnsupported(ReproError):
    """The protocol or a stored value cannot be encoded into flat arrays."""


class NeighborIndex:
    """CSR adjacency of a :class:`~repro.graphs.network.RootedNetwork`.

    ``indices[indptr[p]:indptr[p+1]]`` lists ``p``'s neighbors in *port
    order* -- the order every protocol scans them -- so segment reductions
    (``np.minimum.reduceat`` and friends) reproduce first-in-port-order
    tie-breaking exactly.
    """

    __slots__ = ("n", "indptr", "indices", "degrees")

    def __init__(self, network: "RootedNetwork") -> None:
        if not HAVE_NUMPY:
            raise ArrayViewUnsupported("numpy is required for the CSR neighbor index")
        counts = [network.degree(node) for node in network.nodes()]
        self.n = network.n
        self.degrees = _np.asarray(counts, dtype=_np.int64)
        self.indptr = _np.zeros(network.n + 1, dtype=_np.int64)
        _np.cumsum(self.degrees, out=self.indptr[1:])
        flat: list[int] = []
        for node in network.nodes():
            flat.extend(network.neighbors(node))
        self.indices = _np.asarray(flat, dtype=_np.int64)

    def slice_of(self, node: int) -> slice:
        """The ``indices`` slice holding ``node``'s neighbors."""
        return slice(int(self.indptr[node]), int(self.indptr[node + 1]))


def _collect_specs(
    network: "RootedNetwork", protocol: "Protocol"
) -> dict[str, tuple[str, tuple]]:
    """``name -> (kind, enum_values)`` across all nodes, or raise.

    Every node must declare every variable with one consistent encodable
    kind; anything else (an unknown kind, per-node kind disagreement, a
    variable only some nodes own) makes whole-protocol columns meaningless.
    """
    table: dict[str, tuple[str, tuple]] = {}
    counts: dict[str, int] = {}
    for node in network.nodes():
        for spec in protocol.variables(network, node):
            if spec.kind not in ENCODABLE_KINDS:
                raise ArrayViewUnsupported(
                    f"variable {spec.name!r} has no encodable kind "
                    f"(got {spec.kind!r}); declare it through the "
                    f"int/enum/pointer/map variable factories"
                )
            key = (spec.kind, tuple(spec.enum_values))
            if table.setdefault(spec.name, key) != key:
                raise ArrayViewUnsupported(
                    f"variable {spec.name!r} is declared with different kinds "
                    f"on different processors"
                )
            counts[spec.name] = counts.get(spec.name, 0) + 1
    for name, count in counts.items():
        if count != network.n:
            raise ArrayViewUnsupported(
                f"variable {name!r} is declared on {count} of {network.n} "
                f"processors; array columns need it everywhere"
            )
    return table


class ArrayView:
    """A coherent columnar mirror of one configuration.

    Parameters
    ----------
    network / protocol / configuration:
        The run the view mirrors.  The protocol supplies the variable
        declarations (kinds come from the variable factories); the
        configuration is watched for changes.

    Use :meth:`detach` (or the context manager protocol) to unregister the
    configuration watcher when the view is abandoned.
    """

    def __init__(
        self,
        network: "RootedNetwork",
        protocol: "Protocol",
        configuration: "Configuration",
    ) -> None:
        if not HAVE_NUMPY:
            raise ArrayViewUnsupported(
                "numpy is required for the struct-of-arrays view "
                "(pip install .[vectorized])"
            )
        self.network = network
        self.configuration = configuration
        self.index = NeighborIndex(network)
        self.np = _np
        self._kinds: dict[str, str] = {}
        self._enum_values: dict[str, tuple] = {}
        self._enum_codes: dict[str, dict] = {}
        self._arrays: dict[str, Any] = {}
        self._neighbors: tuple[tuple[int, ...], ...] = tuple(
            network.neighbors(node) for node in network.nodes()
        )
        for name, (kind, enum_values) in _collect_specs(network, protocol).items():
            self._kinds[name] = kind
            length = int(self.index.indptr[-1]) if kind == "map" else network.n
            self._arrays[name] = _np.zeros(length, dtype=_np.int64)
            if kind == "enum":
                self._enum_values[name] = enum_values
                try:
                    self._enum_codes[name] = {
                        value: code for code, value in enumerate(enum_values)
                    }
                except TypeError as exc:
                    raise ArrayViewUnsupported(
                        f"enum variable {name!r} has unhashable values"
                    ) from exc
        # node -> None (all variables) or a set of names awaiting re-encode.
        self._pending: dict[int, set[str] | None] = {
            node: None for node in network.nodes()
        }
        self._absorbing = False
        configuration.add_watcher(self._on_change)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variable_names(self) -> tuple[str, ...]:
        """The encoded variables, sorted."""
        return tuple(sorted(self._arrays))

    def kind_of(self, name: str) -> str:
        """The encoding kind of variable ``name``."""
        return self._kinds[name]

    # ------------------------------------------------------------------
    # Coherence machinery
    # ------------------------------------------------------------------
    def _on_change(self, node: int, variables: "tuple[str, ...] | None") -> None:
        if self._absorbing:
            return
        if variables is None:
            self._pending[node] = None
        else:
            names = self._pending.setdefault(node, set())
            if names is not None:
                names.update(variables)

    def detach(self) -> None:
        """Unregister the configuration watcher."""
        self.configuration.discard_watcher(self._on_change)

    def __enter__(self) -> "ArrayView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def begin_absorb(self) -> None:
        """Ignore journal events until :meth:`end_absorb`.

        Used by the vectorized scheduler for the write-application window of
        its own fast-path step: it has already assigned the kernel's output
        arrays in bulk (:meth:`absorb_writes`), so re-encoding the identical
        values from the dict state would be pure per-node overhead.  Anything
        journaled outside that window still marks pending normally.
        """
        self._absorbing = True

    def end_absorb(self) -> None:
        """Resume watcher-driven pending tracking."""
        self._absorbing = False

    def absorb_writes(self, updates: Mapping[str, Any], nodes: Any) -> None:
        """Bulk-assign kernel output columns for ``nodes``.

        ``updates`` maps scalar variable names to full-length value arrays;
        only the ``nodes`` rows are taken.  Callers pair this with
        :meth:`begin_absorb`/:meth:`end_absorb` around the dict-state
        application of the *same* values.
        """
        for name, values in updates.items():
            self._arrays[name][nodes] = values[nodes]

    def sync(self) -> None:
        """Re-encode every pending node from the dict state."""
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        n = self.network.n
        states = self.configuration
        for node, names in pending.items():
            if not 0 <= node < n:
                continue  # foreign id journaled by hand-built state
            state = states.peek_state(node)
            targets = self._arrays if names is None else names
            for name in targets:
                if name not in self._arrays:
                    continue  # variable outside the declared schema
                if name not in state:
                    raise ArrayViewUnsupported(
                        f"variable {name!r} disappeared from processor {node}; "
                        f"the array view cannot represent partial states"
                    )
                self._encode(node, name, state[name])

    def _encode(self, node: int, name: str, value: Any) -> None:
        kind = self._kinds[name]
        if kind == "map":
            neighbors = self._neighbors[node]
            if not isinstance(value, dict) or len(value) != len(neighbors):
                raise ArrayViewUnsupported(
                    f"map variable {name!r} at {node} does not cover exactly "
                    f"the node's neighbors"
                )
            row = []
            for neighbor in neighbors:
                try:
                    entry = value[neighbor]
                except (KeyError, TypeError) as exc:
                    raise ArrayViewUnsupported(
                        f"map variable {name!r} at {node} is missing neighbor "
                        f"{neighbor}"
                    ) from exc
                if not isinstance(entry, int):
                    raise ArrayViewUnsupported(
                        f"map variable {name!r} at {node} holds a non-integer"
                    )
                row.append(entry)
            self._arrays[name][self.slice_of(node)] = row
            return
        if kind == "pointer":
            if value is None:
                code = -1
            elif isinstance(value, int) and value >= 0:
                code = value
            else:
                raise ArrayViewUnsupported(
                    f"pointer variable {name!r} at {node} holds {value!r}"
                )
        elif kind == "enum":
            try:
                code = self._enum_codes[name][value]
            except (KeyError, TypeError) as exc:
                raise ArrayViewUnsupported(
                    f"enum variable {name!r} at {node} holds undeclared value "
                    f"{value!r}"
                ) from exc
        else:  # int
            if not isinstance(value, int):
                raise ArrayViewUnsupported(
                    f"int variable {name!r} at {node} holds non-integer {value!r}"
                )
            code = value
        self._arrays[name][node] = code

    def slice_of(self, node: int) -> slice:
        """The edge-array slice of ``node`` (for ``map`` columns)."""
        return self.index.slice_of(node)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def array(self, name: str) -> Any:
        """The (synced) column of variable ``name``.

        Callers must treat the returned array as read-only; kernel outputs
        are separate arrays handed back through the scheduler.
        """
        self.sync()
        return self._arrays[name]

    def value_at(self, node: int, name: str) -> Any:
        """Decode one value back to its python form (tests, assertions)."""
        self.sync()
        return self._decode_one(node, name)

    def _decode_one(self, node: int, name: str) -> Any:
        kind = self._kinds[name]
        array = self._arrays[name]
        if kind == "map":
            row = array[self.slice_of(node)].tolist()
            return dict(zip(self._neighbors[node], row))
        code = int(array[node])
        if kind == "pointer":
            return None if code < 0 else code
        if kind == "enum":
            return self._enum_values[name][code]
        return code

    def decode_values(self, name: str, values: Any, nodes: Iterable[int]) -> list:
        """Decode ``values[node]`` for each node back to python values.

        ``values`` is a full-length scalar column (typically a kernel output,
        not necessarily ``self.array(name)``); ``map`` columns cannot be
        decoded this way.
        """
        kind = self._kinds[name]
        if kind == "map":
            raise ArrayViewUnsupported("map columns have no scalar decoding")
        nodes = _np.asarray(nodes, dtype=_np.int64)
        raw = values[nodes].tolist()
        if kind == "pointer":
            return [None if code < 0 else code for code in raw]
        if kind == "enum":
            enum_values = self._enum_values[name]
            return [enum_values[code] for code in raw]
        return raw

    def states_of(self, nodes: Sequence[int]) -> dict[int, dict[str, Any]]:
        """Decode whole local states (the shared-memory mirror read path)."""
        self.sync()
        return {
            node: {name: self._decode_one(node, name) for name in self._arrays}
            for node in nodes
        }

    def decode_node(self, node: int, names: Iterable[str]) -> dict[str, Any]:
        """Decode the named variables of one node (no sync: caller-managed)."""
        return {name: self._decode_one(node, name) for name in names}


__all__ = [
    "ArrayView",
    "ArrayViewUnsupported",
    "ENCODABLE_KINDS",
    "HAVE_NUMPY",
    "NeighborIndex",
    "np",
]
