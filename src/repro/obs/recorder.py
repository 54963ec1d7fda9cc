"""The execution flight recorder: a causal, replayable event log per run.

The health watchdog can *flag* an anomalous run;
the :class:`FlightRecorder` makes it a reproducible artifact.  Attached as an
ordinary :class:`~repro.runtime.observers.Observer`, it appends one compact
JSONL entry per observable event of the execution:

* ``header`` -- schema version, the :class:`~repro.api.RunSpec` (when known),
  the serialized topology, the protocol and daemon names;
* ``init`` -- the full initial configuration (it was drawn from the rng, so
  a replay cannot re-derive it) plus its fingerprint and the frozen set;
* ``step`` -- every daemon selection with the per-move write-sets (old and
  new values) and a fingerprint of the whole step record;
* ``mutation`` -- every out-of-band state surgery routed through the
  scheduler's seams (``set_configuration``, ``freeze``/``unfreeze``,
  ``set_network`` with the serialized new topology and the redrawn endpoint
  states, ``set_daemon``, ``replace_node``);
* ``event`` -- scenario recovery records (informational);
* ``final`` -- the final configuration, metrics and totals on close.

Values are encoded exactly (tuples and non-string-keyed mappings survive the
JSON round trip via tagged forms), so a replay can assert byte-identical
:class:`~repro.runtime.scheduler.StepRecord` streams.  The replay side lives
in :mod:`repro.replay`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from repro.runtime.observers import Observer

#: Bump on any change to the entry shapes below.
SCHEMA_VERSION = 1

#: Default directory ``record=True`` runs write into.
DEFAULT_LOG_DIR = "flightlogs"

#: Buffered entries are flushed to disk every this many entries.
FLUSH_EVERY = 256

_TAGS = ("__tuple__", "__map__", "__set__", "__frozenset__", "__repr__")


def encode_value(value: Any) -> Any:
    """``value`` as JSON-compatible data that decodes back *exactly*.

    Protocol variables hold ints, strings, ``None``, tuples (pointer pairs)
    and mappings -- sometimes with non-string keys (edge-label maps keyed by
    neighbor id), which plain JSON would silently stringify.  Tuples and such
    mappings are wrapped in tagged objects; everything JSON-native passes
    through untouched.  Unsupported types degrade to a ``__repr__`` tag: the
    log stays writable (and fingerprints deterministic), but a replay of that
    value raises instead of guessing.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, frozenset):
        items = sorted((encode_value(item) for item in value), key=_sort_key)
        return {"__frozenset__": items}
    if isinstance(value, set):
        items = sorted((encode_value(item) for item in value), key=_sort_key)
        return {"__set__": items}
    if isinstance(value, Mapping):
        if all(isinstance(key, str) and key not in _TAGS for key in value):
            return {key: encode_value(item) for key, item in value.items()}
        return {
            "__map__": [
                [encode_value(key), encode_value(item)] for key, item in value.items()
            ]
        }
    return {"__repr__": repr(value)}


def _sort_key(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def decode_value(value: Any) -> Any:
    """The inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode_value(item) for item in value["__tuple__"])
        if "__map__" in value:
            return {
                decode_value(key): decode_value(item) for key, item in value["__map__"]
            }
        if "__set__" in value:
            return set(decode_value(item) for item in value["__set__"])
        if "__frozenset__" in value:
            return frozenset(decode_value(item) for item in value["__frozenset__"])
        if "__repr__" in value:
            from repro.errors import ReplayError

            raise ReplayError(
                f"value {value['__repr__']} was recorded by repr only and "
                f"cannot be replayed"
            )
        return {key: decode_value(item) for key, item in value.items()}
    return value


def encode_states(states: Mapping[int, Mapping[str, Any]]) -> dict[str, Any]:
    """A configuration's ``{node: {variable: value}}`` states, JSON-keyed."""
    return {
        str(node): {name: encode_value(value) for name, value in state.items()}
        for node, state in states.items()
    }


def decode_states(encoded: Mapping[str, Any]) -> dict[int, dict[str, Any]]:
    """The inverse of :func:`encode_states`."""
    return {
        int(node): {name: decode_value(value) for name, value in state.items()}
        for node, state in encoded.items()
    }


def fingerprint(encoded: Any) -> str:
    """Stable 16-hex digest of already-encoded data.

    Unlike Python's per-process ``hash()``, this survives process (and
    machine) boundaries, so logs shipped home from remote workers verify
    against local re-executions.
    """
    blob = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def encode_step(record: Any) -> dict[str, Any]:
    """A :class:`~repro.runtime.scheduler.StepRecord` as a log ``core`` blob."""
    return {
        "step": record.step,
        "round": record.round,
        "executed": [[node, action] for node, action in record.executed],
        "changed": list(record.changed_nodes),
        "moves": [
            {
                "node": move.node,
                "action": move.action,
                "layer": move.layer,
                "changes": {
                    name: [encode_value(old), encode_value(new)]
                    for name, (old, new) in move.changes.items()
                },
            }
            for move in record.moves
        ],
    }


def _value_json(value: Any) -> str:
    """``value`` encoded and dumped exactly as the sorted-keys step dump does."""
    kind = type(value)
    if kind is int:
        return f"{value}"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(encode_value(value), sort_keys=True, separators=(",", ":"))


class _JsonNames(dict):
    """``name -> json.dumps(name)``, filled on first use."""

    def __missing__(self, name: str) -> str:
        encoded = self[name] = json.dumps(name)
        return encoded


class FlightRecorder(Observer):
    """Observer appending the run's causal event log to ``path``.

    Entries are buffered and flushed every :data:`FLUSH_EVERY` entries (and on
    :meth:`close`).  A step entry is buffered as its record and encoded in
    one pass with the rest of the buffer at flush time, which keeps the
    encoder warm instead of interleaving it with the step loop; the runtime
    never mutates a record or the values it holds, so the line is the same
    as if it had been encoded at once.  The recorder is an ordinary
    observer: a failure inside any hook disables it (warn-once) without
    perturbing the run it was watching.

    ``spec`` (a :class:`~repro.api.RunSpec`) enriches the header so a replay
    can rebuild the protocol and validate the topology without guesswork;
    raw scheduler runs record ``protocol.name`` instead.
    """

    def __init__(self, path: "str | Path", spec: Any = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._spec = spec
        self._fh = open(self.path, "w", encoding="utf-8")
        # Serialized entries, and ``(seq, StepRecord)`` pairs still to encode.
        self._buffer: list[str | tuple[int, Any]] = []
        self._seq = 0
        self._source: Any = None
        self._started = False
        self._closed = False
        self.entries_written = 0
        # JSON encodings of the action, layer and variable names steps repeat.
        self._names = _JsonNames()

    # ------------------------------------------------------------------
    # Low-level writing
    # ------------------------------------------------------------------
    def _write(self, entry: dict[str, Any]) -> None:
        if self._closed:
            return
        entry["seq"] = self._seq
        self._line(json.dumps(entry, separators=(",", ":")))

    def _line(self, text: "str | tuple[int, Any]") -> None:
        """Append one entry: serialized (sequence number already inside), or
        a ``(seq, StepRecord)`` pair :meth:`flush` encodes."""
        self._seq += 1
        self._buffer.append(text)
        self.entries_written += 1
        if len(self._buffer) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Push buffered entries to disk."""
        if self._buffer and not self._closed:
            lines = []
            core_of, sha256 = self._step_core_json, hashlib.sha256
            for entry in self._buffer:
                if type(entry) is not str:
                    # The core is serialized exactly once: the sorted-keys
                    # dump both *is* the fingerprint input (matching
                    # :func:`fingerprint` on the parsed-back core) and is
                    # spliced verbatim into the entry line.
                    seq, record = entry
                    core_json = core_of(record)
                    digest = sha256(core_json.encode("utf-8")).hexdigest()[:16]
                    entry = f'{{"type":"step","core":{core_json},"fp":"{digest}","seq":{seq}}}'
                lines.append(entry)
            self._fh.write("\n".join(lines) + "\n")
            self._buffer.clear()
            self._fh.flush()

    def close(self) -> None:
        """Write the ``final`` entry (when a run was seen) and close the file."""
        if self._closed:
            return
        source = self._source
        if source is not None:
            try:
                states = source.configuration.to_dict()
                encoded = encode_states(states)
                self._write(
                    {
                        "type": "final",
                        "steps": source.steps_executed,
                        "rounds": source.rounds_completed,
                        "config": encoded,
                        "fingerprint": fingerprint(encoded),
                        "metrics": encode_value(source.metrics.as_dict()),
                    }
                )
            except Exception:  # a torn-down engine must not lose the log
                pass
        self.flush()
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def on_run_start(self, source: Any, payload: Any) -> None:
        if self._started:
            # A second engine construction inside one recorded run (e.g. a
            # presettle pass wired with observers) would interleave two step
            # streams; record the fact instead of corrupting the log.
            self._write({"type": "note", "note": "additional run start ignored"})
            return
        self._started = True
        self._source = source
        from repro.graphs import io as graph_io

        header: dict[str, Any] = {
            "type": "header",
            "version": SCHEMA_VERSION,
            "protocol": getattr(source.protocol, "name", None),
            "daemon": source.daemon.name,
            "network": graph_io.to_dict(source.network),
        }
        if self._spec is not None:
            header["spec"] = self._spec.to_dict()
            header["spec_hash"] = self._spec.canonical_hash
            header["engine"] = self._spec.engine
            header["protocol"] = self._spec.protocol
        self._write(header)
        states = source.configuration.to_dict()
        encoded = encode_states(states)
        self._write(
            {
                "type": "init",
                "config": encoded,
                "fingerprint": fingerprint(encoded),
                "frozen": sorted(source.frozen_nodes),
            }
        )

    def on_step(self, source: Any, record: Any) -> None:
        if self._closed:
            return
        self._source = source
        # :meth:`_line` inlined: this hook runs once per step.
        seq = self._seq
        self._seq = seq + 1
        buffer = self._buffer
        buffer.append((seq, record))
        self.entries_written += 1
        if len(buffer) >= FLUSH_EVERY:
            self.flush()

    def _step_core_json(self, record: Any) -> str:
        """``json.dumps(encode_step(record), sort_keys=True, separators=(",", ":"))``.

        Written out for the fixed ``step`` shape (keys in sorted order, names
        from the cache, int pairs formatted inline) because it runs once per
        step; a non-string variable name takes the generic dump.
        """
        names = self._names
        moves = []
        for move in record.moves:
            changes = move.changes
            parts = []
            for variable in sorted(changes):
                if type(variable) is not str:
                    return json.dumps(encode_step(record), sort_keys=True, separators=(",", ":"))
                old, new = changes[variable]
                if type(old) is int and type(new) is int:
                    parts.append(f"{names[variable]}:[{old},{new}]")
                else:
                    parts.append(f"{names[variable]}:[{_value_json(old)},{_value_json(new)}]")
            moves.append(
                f'{{"action":{names[move.action]},"changes":{{{",".join(parts)}}},'
                f'"layer":{names[move.layer]},"node":{move.node}}}'
            )
        # One move per step is the common case (central daemon): skip the joins.
        executed = record.executed
        if len(executed) == 1:
            node, action = executed[0]
            executed_json = f"[{node},{names[action]}]"
        else:
            executed_json = ",".join([f"[{node},{names[action]}]" for node, action in executed])
        changed = record.changed_nodes
        changed_json = f"{changed[0]}" if len(changed) == 1 else ",".join(map(str, changed))
        return (
            f'{{"changed":[{changed_json}],"executed":[{executed_json}],'
            f'"moves":[{",".join(moves)}],"round":{record.round},"step":{record.step}}}'
        )

    def on_mutation(self, source: Any, mutation: Mapping[str, Any]) -> None:
        self._source = source
        kind = mutation.get("kind")
        entry: dict[str, Any] = {"type": "mutation", "kind": kind}
        if kind == "set_configuration":
            encoded = encode_states(mutation["configuration"].to_dict())
            entry["config"] = encoded
            entry["fingerprint"] = fingerprint(encoded)
        elif kind == "set_network":
            from repro.graphs import io as graph_io

            entry["network"] = graph_io.to_dict(mutation["network"])
            entry["reinitialized"] = encode_states(mutation["reinitialized"])
        elif kind in ("freeze", "unfreeze"):
            entry["nodes"] = list(mutation["nodes"])
        elif kind == "set_daemon":
            entry["daemon"] = mutation["daemon"]
        elif kind == "replace_node":
            entry["node"] = mutation["node"]
            entry["state"] = {
                name: encode_value(value)
                for name, value in mutation["state"].items()
            }
        else:  # forward-compatible: record what arrived
            entry["data"] = encode_value(dict(mutation))
        self._write(entry)

    def on_event(self, source: Any, event: Any) -> None:
        entry: dict[str, Any] = {
            "type": "event",
            "kind": getattr(event, "kind", type(event).__name__),
        }
        for attr in ("description", "affected_nodes", "applied", "steps_consumed",
                     "recovery_steps", "recovery_rounds", "disturbance"):
            value = getattr(event, attr, None)
            if value is not None:
                entry[attr] = encode_value(value)
        self._write(entry)

    def on_converged(self, source: Any, result: Any) -> None:
        entry: dict[str, Any] = {"type": "converged"}
        as_row = getattr(result, "as_row", None)
        if callable(as_row):
            try:
                entry["row"] = encode_value(as_row())
            except Exception:
                entry["result"] = repr(result)
        else:
            entry["result"] = repr(result)
        self._write(entry)


__all__ = [
    "DEFAULT_LOG_DIR",
    "FlightRecorder",
    "SCHEMA_VERSION",
    "decode_states",
    "decode_value",
    "encode_states",
    "encode_step",
    "encode_value",
    "fingerprint",
]
