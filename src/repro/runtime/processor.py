"""The read/write window a processor has onto the system state.

The model of Chapter 2 allows a processor to *read* its own variables and the
variables of its neighbors, and to *write* only its own variables.
:class:`ProcessorView` enforces exactly that: neighbor reads go to the
configuration snapshot taken at the beginning of the computation step, own
reads see writes already made during the same atomic step, and writes are
collected so the scheduler can apply the step atomically.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.runtime.configuration import _IMMUTABLE_TYPES, Configuration, copy_value


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

    The view binds everything a read needs once, at construction: the
    processor's neighbor set and port order from the network, and the
    configuration's live state table.  A read is then a membership test in
    the bound neighbor set plus a lookup in that table, with the same
    :class:`~repro.errors.ProtocolError` on a non-neighbor or a missing
    variable that :meth:`Configuration.get` raises.  The scheduler keeps one
    view per processor for statements, rebuilt when the configuration or
    network object is replaced, and starts each move on it with a fresh
    write buffer (:meth:`begin_move`); it never mutates the configuration
    during an atomic step.  Guards run on the read-only :class:`GuardView`.

    :class:`TrackingProcessorView` is the debug variant that logs every read.
    """

    __slots__ = (
        "_node",
        "_network",
        "_is_root",
        "_configuration",
        "_states",
        "_neighbor_set",
        "_ports",
        "_writes",
        "_witnesses",
    )

    def __init__(
        self,
        node: int,
        network: RootedNetwork,
        configuration: Configuration,
    ) -> None:
        self._node = node
        self._network = network
        self._is_root = network.is_root(node)
        self._configuration = configuration
        self._states = configuration.state_table()
        self._neighbor_set = network.neighbor_set(node)
        self._ports = network.neighbors(node)
        self._writes: dict[str, Any] = {}
        # The witness slots the scheduler shares with the node's guard view.
        self._witnesses: dict[Callable, Any] | None = None

    # ------------------------------------------------------------------
    # Identity / topology helpers
    # ------------------------------------------------------------------
    # Read-only properties whose getter is a C-level ``attrgetter``: guards
    # and statements read them hundreds of thousands of times per run, and
    # a ``def`` getter is one Python call per read.
    node = property(attrgetter("_node"), doc="The processor this view belongs to.")
    network = property(attrgetter("_network"), doc="The network the processor lives in.")
    is_root = property(
        attrgetter("_is_root"), doc="Whether this processor is the distinguished root ``r``."
    )
    neighbors = property(
        attrgetter("_ports"), doc="The processor's neighbors ``N_p`` in port order."
    )
    neighbor_set = property(
        attrgetter("_neighbor_set"),
        doc="The processor's neighbors ``N_p`` as a set (membership tests).",
    )

    @property
    def configuration(self) -> Configuration:
        """The configuration the view reads (a tracking view: its read-logging proxy)."""
        return self._configuration

    @property
    def degree(self) -> int:
        """The processor's degree ``Delta_p``."""
        return len(self._ports)

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
        writes = self._writes
        if variable in writes:
            return writes[variable]
        try:
            return self._states[self._node][variable]
        except KeyError:
            return self._configuration.get(self._node, variable)  # raises ProtocolError

    def read_pre(self, variable: str) -> Any:
        """Read one of the processor's own variables as of the *start* of the step.

        Unlike :meth:`read`, writes performed earlier in the same atomic step
        are ignored.  Composition hooks use this when they need the value a
        base action is about to overwrite (e.g. DFTNO's ``UpdateMax`` macro
        needs the descendant the token just returned from, before the token
        layer repoints its child variable).
        """
        try:
            return self._states[self._node][variable]
        except KeyError:
            return self._configuration.get(self._node, variable)  # raises ProtocolError

    def read_neighbor(self, neighbor: int, variable: str) -> Any:
        """Read a variable owned by a neighboring processor.

        Neighbor reads always observe the configuration as it stood at the
        beginning of the step (composite atomicity: all processors selected in
        the same step read the old configuration).
        """
        if neighbor not in self._neighbor_set:
            raise self._non_neighbor(neighbor)
        try:
            return self._states[neighbor][variable]
        except KeyError:
            return self._configuration.get(neighbor, variable)  # raises ProtocolError

    def try_read_neighbor(self, neighbor: int, variable: str, default: Any = None) -> Any:
        """Like :meth:`read_neighbor` but returning ``default`` when undefined."""
        if neighbor not in self._neighbor_set:
            raise self._non_neighbor(neighbor)
        try:
            return self._states[neighbor][variable]
        except KeyError:
            return default

    def _non_neighbor(self, neighbor: int) -> ProtocolError:
        return ProtocolError(f"processor {self._node} tried to read non-neighbor {neighbor}")

    def write(self, variable: str, value: Any) -> None:
        """Assign one of the processor's own variables.

        The value is stored as :func:`~repro.runtime.configuration.copy_value`
        copies it, so a later in-place change by the caller cannot alter the
        step: an immutable scalar as it is, a flat map of scalars (a
        per-neighbor map) by ``dict(value)``, anything else deep-copied.
        """
        if type(value) not in _IMMUTABLE_TYPES:
            value = copy_value(value)
        self._writes[variable] = value

    def begin_move(self) -> dict[str, Any]:
        """Start an atomic step on this view and return its write buffer.

        The buffer is fresh and live: the statement's writes land in it, and
        the scheduler applies it as it is once every selected processor has
        run.
        """
        self._writes = writes = {}
        return writes

    def witness(self, part: Callable[["ProcessorView"], Any]) -> Any:
        """The value the :class:`~repro.runtime.actions.Witness` part ``part`` returned.

        A statement reads its guard's witness here instead of recomputing
        it.  The scheduler keeps the value of the part's last call at this
        node, exact while the part holds; without a kept value (the
        reference interpreter, a statement called directly) ``part`` is
        called on this view.  Call it before the statement writes: a
        recomputed value sees the writes already made in the step.
        """
        witnesses = self._witnesses
        if witnesses is not None:
            try:
                return witnesses[part]
            except KeyError:
                pass
        return part(self)

    @property
    def pending_writes(self) -> dict[str, Any]:
        """A copy of the writes collected so far in this atomic step."""
        return dict(self._writes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node={self._node}, writes={sorted(self._writes)})"


class GuardView(ProcessorView):
    """The read-only view guards run on.

    A guard is a predicate: a write from it would leak into the guards
    evaluated after it on the same view, and since which guards run depends
    on the scheduler's cached truth values, the scheduler and the reference
    interpreter would see different states.  :meth:`write` therefore raises
    :class:`~repro.errors.ProtocolError`, and the view keeps no write buffer.
    Since it holds no per-evaluation state, the scheduler keeps
    one per processor for the whole run and rebuilds them only when the
    configuration or network object is replaced.  Its witness slots are
    where the scheduler's guard walks keep each witness part's last value
    (:meth:`ProcessorView.witness`).
    """

    __slots__ = ()

    def __init__(
        self,
        node: int,
        network: RootedNetwork,
        configuration: Configuration,
    ) -> None:
        self._node = node
        self._network = network
        self._is_root = network.is_root(node)
        self._configuration = configuration
        self._states = configuration.state_table()
        self._neighbor_set = network.neighbor_set(node)
        self._ports = network.neighbors(node)
        self._witnesses = {}

    def read(self, variable: str) -> Any:
        """Read one of the processor's own variables."""
        try:
            return self._states[self._node][variable]
        except KeyError:
            return self._configuration.get(self._node, variable)  # raises ProtocolError

    def write(self, variable: str, value: Any) -> None:
        """Refuse the write: guards must not change state."""
        raise ProtocolError(
            f"guard of processor {self._node} tried to write variable {variable!r}; "
            f"guards are read-only predicates"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node={self._node})"


class TrackingProcessorView(ProcessorView):
    """A :class:`ProcessorView` that records every ``(processor, variable)`` read.

    The scheduler's debug mode (``check_guard_locality``) evaluates every
    guard part on this view's read-only variant, :class:`TrackingGuardView`,
    to assert the invariants its stale-bit marking relies on: a guard's value
    may depend only on the node itself and its neighbors (so a change at
    ``p`` can only flip enabled-status inside ``N_p ∪ {p}``), and a part's
    only on the variables that part declares reading.  Reads through the
    view's API are logged (own reads too, even when a pending write serves
    them), and the configuration is wrapped in
    :class:`_ReadTrackingConfiguration` so reads that reach *around* the API
    land in the same log.  The guard attribution of
    :class:`~repro.errors.GuardLocalityError` consumes
    :attr:`read_variables`; :attr:`read_nodes` is the node-level rollup.
    """

    __slots__ = ("_read_vars",)

    def __init__(
        self,
        node: int,
        network: RootedNetwork,
        configuration: Configuration,
    ) -> None:
        super().__init__(node, network, configuration)
        self._read_vars: set[tuple[int, str]] = set()
        self._configuration = _ReadTrackingConfiguration(configuration, self._read_vars)

    def read(self, variable: str) -> Any:
        self._read_vars.add((self._node, variable))
        return super().read(variable)

    def read_pre(self, variable: str) -> Any:
        self._read_vars.add((self._node, variable))
        return super().read_pre(variable)

    def read_neighbor(self, neighbor: int, variable: str) -> Any:
        if neighbor in self._neighbor_set:
            self._read_vars.add((neighbor, variable))
        return super().read_neighbor(neighbor, variable)

    def try_read_neighbor(self, neighbor: int, variable: str, default: Any = None) -> Any:
        if neighbor in self._neighbor_set:
            self._read_vars.add((neighbor, variable))
        return super().try_read_neighbor(neighbor, variable, default)

    @property
    def read_nodes(self) -> frozenset[int]:
        """Processors whose state was read."""
        return frozenset(node for node, _ in self._read_vars)

    @property
    def read_variables(self) -> frozenset[tuple[int, str]]:
        """``(processor, variable)`` pairs read."""
        return frozenset(self._read_vars)


class TrackingGuardView(TrackingProcessorView, GuardView):
    """The read-only :class:`GuardView` that also logs every read.

    What ``check_guard_locality`` runs each guard part on: the read log of
    :class:`TrackingProcessorView` with the write refusal of
    :class:`GuardView`.
    """

    __slots__ = ()


__all__ = ["GuardView", "ProcessorView", "TrackingGuardView", "TrackingProcessorView"]
