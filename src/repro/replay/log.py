"""Reading flight-recorder logs (the write side is :mod:`repro.obs.recorder`).

A :class:`FlightLog` is the parsed, validated form of one recorded run: the
header, the initial configuration, and the ordered entry stream.  Parsing is
strict about structure (a malformed line raises :class:`~repro.errors.ReplayError`
with its file:line position) but agnostic about content -- a *divergent* log
is perfectly readable; divergence is the replay engine's verdict, not the
parser's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ReplayError
from repro.obs.recorder import SCHEMA_VERSION, decode_states, decode_value


@dataclass
class FlightLog:
    """One parsed flight-recorder log."""

    path: Path
    header: dict[str, Any]
    init: dict[str, Any]
    entries: list[dict[str, Any]] = field(default_factory=list)
    final: dict[str, Any] | None = None

    @classmethod
    def load(cls, path: "str | Path") -> "FlightLog":
        """Parse ``path``; raises :class:`ReplayError` on structural damage."""
        path = Path(path)
        if not path.exists():
            raise ReplayError(f"flight log {path} does not exist")
        header: dict[str, Any] | None = None
        init: dict[str, Any] | None = None
        final: dict[str, Any] | None = None
        entries: list[dict[str, Any]] = []
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            raw = raw.strip()
            if not raw:
                continue
            try:
                entry = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ReplayError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not isinstance(entry, dict) or "type" not in entry:
                raise ReplayError(f"{path}:{lineno}: entry without a type")
            kind = entry["type"]
            if kind == "header":
                if header is not None:
                    raise ReplayError(f"{path}:{lineno}: duplicate header")
                version = entry.get("version")
                if version != SCHEMA_VERSION:
                    raise ReplayError(
                        f"{path}:{lineno}: log schema version {version!r} is not "
                        f"the supported {SCHEMA_VERSION}"
                    )
                header = entry
            elif kind == "init":
                if header is None:
                    raise ReplayError(f"{path}:{lineno}: init before header")
                if init is not None:
                    raise ReplayError(f"{path}:{lineno}: duplicate init entry")
                init = entry
            elif kind == "final":
                final = entry
            else:
                entries.append(entry)
        if header is None:
            raise ReplayError(f"{path}: no header entry (not a flight log?)")
        if init is None:
            raise ReplayError(f"{path}: no init entry (truncated before step 0?)")
        return cls(path=path, header=header, init=init, entries=entries, final=final)

    # ------------------------------------------------------------------
    # Decoded views
    # ------------------------------------------------------------------
    def initial_states(self) -> dict[int, dict[str, Any]]:
        """The recorded initial configuration's states, exactly decoded."""
        return decode_states(self.init["config"])

    def initial_frozen(self) -> tuple[int, ...]:
        return tuple(self.init.get("frozen") or ())

    def steps(self) -> Iterator[dict[str, Any]]:
        """The ``step`` entries in order."""
        return (entry for entry in self.entries if entry["type"] == "step")

    def step_count(self) -> int:
        return sum(1 for _ in self.steps())

    @property
    def spec_dict(self) -> "dict[str, Any] | None":
        """The recorded :class:`~repro.api.RunSpec` dictionary, when present."""
        spec = self.header.get("spec")
        return dict(spec) if isinstance(spec, dict) else None

    def describe(self) -> str:
        """One-line human summary for CLI banners."""
        network = self.header.get("network") or {}
        parts = [
            f"protocol={self.header.get('protocol')}",
            f"daemon={self.header.get('daemon')}",
            f"n={network.get('num_nodes')}",
            f"entries={len(self.entries)}",
            f"steps={self.step_count()}",
        ]
        if self.header.get("engine"):
            parts.insert(0, f"engine={self.header['engine']}")
        return " ".join(str(part) for part in parts)


def decoded_step_record(entry: dict[str, Any]):
    """A log ``step`` entry as a live :class:`~repro.runtime.scheduler.StepRecord`.

    The decoded record compares equal (named-tuple equality, which is what the
    equivalence suite uses between engines) to the record the original run
    produced -- that is the round-trip guarantee the value codec exists for.
    """
    from repro.runtime.scheduler import MoveRecord, StepRecord

    core = entry.get("core")
    if not isinstance(core, dict):
        raise ReplayError(f"step entry seq={entry.get('seq')} has no core blob")
    try:
        moves = tuple(
            MoveRecord(
                node=move["node"],
                action=move["action"],
                layer=move["layer"],
                changes={
                    name: (decode_value(pair[0]), decode_value(pair[1]))
                    for name, pair in move["changes"].items()
                },
            )
            for move in core["moves"]
        )
        return StepRecord(
            step=core["step"],
            round=core["round"],
            executed=tuple((node, action) for node, action in core["executed"]),
            changed_nodes=tuple(core["changed"]),
            moves=moves,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ReplayError(
            f"step entry seq={entry.get('seq')} is malformed: {exc!r}"
        ) from exc


__all__ = ["FlightLog", "decoded_step_record"]
