"""The read/write window a processor has onto the system state.

The model of Chapter 2 allows a processor to *read* its own variables and the
variables of its neighbors, and to *write* only its own variables.
:class:`ProcessorView` enforces exactly that: neighbor reads go to the
configuration snapshot taken at the beginning of the computation step, own
reads see writes already made during the same atomic step, and writes are
collected so the scheduler can apply the step atomically.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.runtime.configuration import Configuration


class _ReadTrackingConfiguration:
    """Debug-mode proxy recording every ``(node, variable)`` a view reads.

    Wrapping the configuration (rather than only instrumenting the view's
    read methods) means even code that reaches *around* the view's API --
    ``view._configuration.get(far_node, ...)`` in a sneaky guard -- still
    lands in the read log, so the locality tracker catches it.
    """

    __slots__ = ("_inner", "_log")

    def __init__(self, inner: Configuration, log: set) -> None:
        self._inner = inner
        self._log = log

    def get(self, node: int, variable: str) -> Any:
        self._log.add((node, variable))
        return self._inner.get(node, variable)

    def has(self, node: int, variable: str) -> bool:
        self._log.add((node, variable))
        return self._inner.has(node, variable)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class ProcessorView:
    """Restricted view of a :class:`Configuration` for one processor.

    With ``track_reads=True`` the view also records every ``(processor,
    variable)`` pair it read (:attr:`read_variables`, node-level rollup in
    :attr:`read_nodes`).  The incremental scheduler's debug mode uses this to
    assert the locality invariant its dirty-frontier propagation relies on: a
    guard's value may depend only on the node itself and its neighbors, so a
    change at ``p`` can only flip enabled-status inside ``N_p ∪ {p}``.  The
    guard attribution of :class:`~repro.errors.GuardLocalityError` consumes
    the variable granularity.
    """

    __slots__ = ("_node", "_network", "_configuration", "_writes", "_read_vars")

    def __init__(
        self,
        node: int,
        network: RootedNetwork,
        configuration: Configuration,
        track_reads: bool = False,
    ) -> None:
        self._node = node
        self._network = network
        self._writes: dict[str, Any] = {}
        self._read_vars: set[tuple[int, str]] | None = set() if track_reads else None
        if track_reads:
            configuration = _ReadTrackingConfiguration(configuration, self._read_vars)
        self._configuration = configuration

    # ------------------------------------------------------------------
    # Identity / topology helpers
    # ------------------------------------------------------------------
    @property
    def node(self) -> int:
        """The processor this view belongs to."""
        return self._node

    @property
    def network(self) -> RootedNetwork:
        """The network the processor lives in."""
        return self._network

    @property
    def is_root(self) -> bool:
        """Whether this processor is the distinguished root ``r``."""
        return self._network.is_root(self._node)

    @property
    def neighbors(self) -> tuple[int, ...]:
        """The processor's neighbors ``N_p`` in port order."""
        return self._network.neighbors(self._node)

    @property
    def degree(self) -> int:
        """The processor's degree ``Delta_p``."""
        return self._network.degree(self._node)

    def port(self, neighbor: int) -> int:
        """Local port number of ``neighbor``."""
        return self._network.port(self._node, neighbor)

    # ------------------------------------------------------------------
    # Reads and writes
    # ------------------------------------------------------------------
    def read(self, variable: str) -> Any:
        """Read one of the processor's own variables.

        Writes performed earlier in the same atomic step are visible, so a
        statement (or a composition hook running after it) sees the values it
        just assigned -- matching the sequential reading of the paper's
        macros.
        """
        if self._read_vars is not None:
            self._read_vars.add((self._node, variable))
        if variable in self._writes:
            return self._writes[variable]
        return self._configuration.get(self._node, variable)

    def read_pre(self, variable: str) -> Any:
        """Read one of the processor's own variables as of the *start* of the step.

        Unlike :meth:`read`, writes performed earlier in the same atomic step
        are ignored.  Composition hooks use this when they need the value a
        base action is about to overwrite (e.g. DFTNO's ``UpdateMax`` macro
        needs the descendant the token just returned from, before the token
        layer repoints its child variable).
        """
        if self._read_vars is not None:
            self._read_vars.add((self._node, variable))
        return self._configuration.get(self._node, variable)

    def read_neighbor(self, neighbor: int, variable: str) -> Any:
        """Read a variable owned by a neighboring processor.

        Neighbor reads always observe the configuration as it stood at the
        beginning of the step (composite atomicity: all processors selected in
        the same step read the old configuration).
        """
        if neighbor not in self._network.neighbor_set(self._node):
            raise ProtocolError(
                f"processor {self._node} tried to read non-neighbor {neighbor}"
            )
        if self._read_vars is not None:
            self._read_vars.add((neighbor, variable))
        return self._configuration.get(neighbor, variable)

    def try_read_neighbor(self, neighbor: int, variable: str, default: Any = None) -> Any:
        """Like :meth:`read_neighbor` but returning ``default`` when undefined."""
        if neighbor not in self._network.neighbor_set(self._node):
            raise ProtocolError(
                f"processor {self._node} tried to read non-neighbor {neighbor}"
            )
        if self._read_vars is not None:
            self._read_vars.add((neighbor, variable))
        if not self._configuration.has(neighbor, variable):
            return default
        return self._configuration.get(neighbor, variable)

    def write(self, variable: str, value: Any) -> None:
        """Assign one of the processor's own variables.

        Mutable values (per-neighbor maps) are copied so that later in-place
        modification by the caller cannot retroactively alter the step.
        """
        self._writes[variable] = copy.deepcopy(value)

    @property
    def pending_writes(self) -> dict[str, Any]:
        """The writes collected so far in this atomic step."""
        return dict(self._writes)

    @property
    def read_nodes(self) -> frozenset[int]:
        """Processors whose state was read (only tracked with ``track_reads``)."""
        return frozenset(node for node, _ in self._read_vars or ())

    @property
    def read_variables(self) -> frozenset[tuple[int, str]]:
        """``(processor, variable)`` pairs read (only tracked with ``track_reads``)."""
        return frozenset(self._read_vars or ())

    def __repr__(self) -> str:
        return f"ProcessorView(node={self._node}, writes={sorted(self._writes)})"


__all__ = ["ProcessorView"]
