"""Global configurations (the paper's product of processor states)."""

from __future__ import annotations

import copy
from typing import Any, Iterator, Mapping

from repro.errors import ProtocolError

#: Value types stored without copying: exact instances are immutable, so no
#: holder of the value can alter it after the fact.
_IMMUTABLE_TYPES = frozenset({int, bool, str, float, type(None)})


def copy_value(value: Any) -> Any:
    """A copy of ``value`` no later in-place change of the original reaches.

    The runtime's one value-copy rule: an immutable scalar is shared, a plain
    ``dict`` whose keys and values are immutable scalars (a per-neighbor map)
    is copied with ``dict(value)``, and anything else is deep-copied.  Each
    case is exact: the result equals the original and shares no mutable
    object with it.
    """
    kind = type(value)
    if kind in _IMMUTABLE_TYPES:
        return value
    if kind is dict and all(
        type(key) in _IMMUTABLE_TYPES and type(item) in _IMMUTABLE_TYPES
        for key, item in value.items()
    ):
        return dict(value)
    return copy.deepcopy(value)


def _copy_state(state: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of one local state, each value copied by :func:`copy_value`."""
    return {name: copy_value(value) for name, value in state.items()}


class Configuration:
    """The state of the whole system: one variable assignment per processor.

    A configuration is a mapping ``node -> {variable name -> value}``.  The
    scheduler reads the configuration at the start of a computation step to
    evaluate guards, and applies the writes of all selected processors at the
    end of the step, which gives the composite-atomicity semantics of the
    paper's model (guard evaluation and statement execution of an action are a
    single atomic step).

    Every write path additionally journals *which variables of which
    processors changed* (:meth:`drain_dirty`).  The journal has one consumer,
    the scheduler: each drain marks stale the guard and violation-rule
    parts that read a changed variable.  The journal is
    sound as long as all mutations go through the write methods below --
    mutating a value obtained from :meth:`get` in place bypasses it (the
    runtime never does: :class:`~repro.runtime.processor.ProcessorView`
    stores a copy of every mutable value written, by :func:`copy_value`).
    """

    __slots__ = ("_states", "_dirty")

    def __init__(self, states: Mapping[int, Mapping[str, Any]] | None = None) -> None:
        self._states: dict[int, dict[str, Any]] = {}
        # Nodes changed since the last drain -> the distinct variables that
        # changed there, in first-change order (``None``: the whole state).
        self._dirty: dict[int, tuple[str, ...] | None] = {}
        if states is not None:
            for node, variables in states.items():
                self._states[int(node)] = dict(variables)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, node: int, variable: str) -> Any:
        """Value of ``variable`` at ``node``."""
        try:
            return self._states[node][variable]
        except KeyError as exc:
            raise ProtocolError(
                f"configuration has no value for variable {variable!r} at processor {node}"
            ) from exc

    def state_of(self, node: int) -> dict[str, Any]:
        """A copy of the full local state of ``node`` (values by :func:`copy_value`)."""
        return _copy_state(self._states.get(node, {}))

    def peek_state(self, node: int) -> Mapping[str, Any]:
        """The live local state of ``node`` -- **not** a copy.

        For read-only hot paths that cannot afford :meth:`state_of`'s
        copy, such as fingerprinting states in the
        :class:`~repro.obs.health.HealthMonitor`.  Callers must never
        mutate the returned mapping or its values; the runtime itself never
        mutates stored values in place (writes always replace them), which is
        what makes sharing safe.
        """
        return self._states.get(node, {})

    def state_table(self) -> Mapping[int, Mapping[str, Any]]:
        """The live ``node -> local state`` table -- **not** a copy.

        :class:`~repro.runtime.processor.ProcessorView` binds it once per
        view so a guard's reads skip the per-read method calls.  The same
        contract as :meth:`peek_state` applies: never mutate it or its values.
        """
        return self._states

    def has(self, node: int, variable: str) -> bool:
        """Whether ``variable`` is defined at ``node``."""
        return variable in self._states.get(node, {})

    def nodes(self) -> Iterator[int]:
        """Processors that have at least one variable."""
        return iter(self._states)

    def variables_of(self, node: int) -> tuple[str, ...]:
        """Names of the variables defined at ``node``."""
        return tuple(self._states.get(node, {}))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def set(self, node: int, variable: str, value: Any) -> None:
        """Set ``variable`` at ``node`` (creating the slot if needed)."""
        state = self._states.setdefault(node, {})
        if variable not in state or state[variable] != value:
            self._journal(node, (variable,))
        state[variable] = value

    def _journal(self, node: int, variables: "tuple[str, ...] | None") -> None:
        """Record changed ``variables`` at ``node`` (``None``: whole state).

        A second event on a node before the next drain unions its variables
        into the first one's; ``None`` absorbs everything.
        """
        known = self._dirty.setdefault(node, variables)
        if known is not variables and known is not None:
            if variables is None:
                self._dirty[node] = None
            else:
                added = tuple(name for name in variables if name not in known)
                if added:
                    self._dirty[node] = known + added

    def apply_writes(self, node: int, values: Mapping[str, Any]) -> dict[str, tuple[Any, Any]]:
        """Apply writes at ``node`` and return ``variable -> (old, new)`` changes.

        ``old`` is ``None`` for a variable the write created, and such a write
        only counts as a change when the new value differs from ``None``
        (matching the scheduler's historical ``MoveRecord`` semantics).  The
        journal is stricter: creating a slot always marks the node dirty, so
        guards keyed on a variable's *existence* are re-evaluated.  This is
        the scheduler's single compare-journal-apply pass per move.
        """
        state = self._states.setdefault(node, {})
        changes: dict[str, tuple[Any, Any]] = {}
        touched: list[str] = []
        for name, value in values.items():
            if name not in state:
                touched.append(name)
                if value is not None:
                    changes[name] = (None, value)
            elif state[name] != value:
                touched.append(name)
                changes[name] = (state[name], value)
        state.update(values)
        if touched:
            self._journal(node, tuple(touched))
        return changes

    def replace_node(self, node: int, values: Mapping[str, Any]) -> None:
        """Replace the *whole* local state of ``node``.

        Unlike :meth:`apply_writes` this drops variables absent from
        ``values`` -- needed when a topology change alters which variables a
        processor's program declares (e.g. per-neighbor maps).
        """
        if self._states.get(node) != dict(values):
            self._journal(node, None)
        self._states[node] = dict(values)

    # ------------------------------------------------------------------
    # Change journal
    # ------------------------------------------------------------------
    def drain_dirty(self) -> dict[int, tuple[str, ...] | None]:
        """Return ``node -> changed variables`` and clear the journal.

        The variables are distinct names in first-change order, or ``None``
        when the node's whole state changed (:meth:`replace_node`).
        """
        drained = self._dirty
        self._dirty = {}
        return drained

    # ------------------------------------------------------------------
    # Whole-configuration operations
    # ------------------------------------------------------------------
    def copy(self) -> "Configuration":
        """An independent copy with an empty journal (values by :func:`copy_value`)."""
        clone = Configuration()
        clone._states = self.to_dict()
        return clone

    def to_dict(self) -> dict[int, dict[str, Any]]:
        """A plain-dictionary snapshot (values copied by :func:`copy_value`)."""
        return {node: _copy_state(state) for node, state in self._states.items()}

    def diff(self, other: "Configuration") -> dict[int, dict[str, tuple[Any, Any]]]:
        """Per-node ``variable -> (self value, other value)`` differences."""
        changed: dict[int, dict[str, tuple[Any, Any]]] = {}
        nodes = set(self._states) | set(other._states)
        for node in nodes:
            mine = self._states.get(node, {})
            theirs = other._states.get(node, {})
            names = set(mine) | set(theirs)
            for name in names:
                if mine.get(name) != theirs.get(name):
                    changed.setdefault(node, {})[name] = (mine.get(name), theirs.get(name))
        return changed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._states == other._states

    def __repr__(self) -> str:
        return f"Configuration(nodes={len(self._states)})"

    def format(self, variables: tuple[str, ...] | None = None) -> str:
        """A readable multi-line rendering, optionally restricted to some variables."""
        lines = []
        for node in sorted(self._states):
            state = self._states[node]
            if variables is not None:
                state = {name: state[name] for name in variables if name in state}
            rendered = ", ".join(f"{name}={value!r}" for name, value in sorted(state.items()))
            lines.append(f"  {node}: {rendered}")
        return "\n".join(lines)


__all__ = ["Configuration", "copy_value"]
