"""Per-layer static read/write sets, serialized for downstream consumers.

The static pass already derives, for every protocol action it can resolve,
which variables its guard reads (own vs. neighbor) and which its statement
writes.  This module turns those :class:`~repro.lint.static.ActionSummary`
records into one JSON-serializable artifact:

* the CI lint job uploads it as a build artifact;
* reviewers get a one-page answer to "what does this layer touch?".

Unresolvable guards/statements are reported with ``*_resolved: false`` rather
than silently omitted, so a consumer can tell "no reads" from "not analyzable".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.lint.static import analyze_paths


def build_summary(paths: Iterable[str | Path]) -> dict[str, object]:
    """``{module: {"<Owner>.<action>": footprint, ...}, ...}`` plus the universe."""
    analyzer = analyze_paths(paths)
    modules: dict[str, dict[str, object]] = {}
    for summary in analyzer.summaries:
        key = f"{summary.owner}.{summary.action}"
        modules.setdefault(summary.module, {})[key] = summary.as_dict()
    return {
        "variables": sorted(analyzer.variable_universe),
        "modules": modules,
    }


def write_summary(paths: Iterable[str | Path], out: str | Path) -> dict[str, object]:
    """Build the artifact and write it to ``out`` as JSON; returns the dict."""
    payload = build_summary(paths)
    Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return payload


__all__ = ["build_summary", "write_summary"]
