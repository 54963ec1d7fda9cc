"""The findings model shared by every ``repro-lint`` mode.

A :class:`Finding` is one rule violation -- static (``RL...``, from
:mod:`repro.lint.static`), dynamic guard-locality (``RL004`` raised at run
time as :class:`~repro.errors.GuardLocalityError`), or an
under-declared read (``RL008``, from :mod:`repro.lint.reads` and, at run
time, from the scheduler's debug mode).  All of
them render through the same two formatters so CI logs and the campaign
pre-flight table read identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from repro.errors import GuardLocalityError

#: Rule catalog: id -> (severity, one-line description).  The static pass
#: emits RL001..RL006; the dynamic tracker raises RL004 (as
#: :class:`GuardLocalityError`); the read-declaration cross-check
#: (:mod:`repro.lint.reads`) and the dynamic tracker emit RL008; the
#: cross-check also emits RL009 for a pointer-directed read's pointer.
RULES: dict[str, tuple[str, str]] = {
    "RL001": ("error", "guard mutates state (view.write inside a guard)"),
    "RL002": ("warning", "guard performs I/O"),
    "RL003": ("warning", "guard draws randomness"),
    "RL004": ("error", "non-local read (bypasses the ProcessorView neighbor checks)"),
    "RL005": ("error", "non-local write (statement writes outside its own node)"),
    "RL006": ("error", "undeclared variable access (name not in the layer's schema)"),
    "RL008": ("error", "guard or legitimacy predicate reads a variable its declared reads omit"),
    "RL009": (
        "error",
        "pointer-directed read whose pointer is not declared read (via: own, named_by: neighbor)",
    ),
}


def severity_of(rule: str) -> str:
    """The catalog severity of ``rule`` (unknown rules count as errors)."""
    return RULES.get(rule, ("error", ""))[0]


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file:line (or a run location)."""

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"
    layer: str = ""
    function: str = ""

    def location(self) -> str:
        """``path:line`` (runtime findings carry only a pseudo-path)."""
        return f"{self.path}:{self.line}" if self.line else self.path


def finding_from_guard_error(exc: GuardLocalityError, path: str = "<runtime>") -> Finding:
    """Render a dynamic :class:`GuardLocalityError` as a lint finding.

    The runtime tracker and the static pass report the same contract
    violation; routing the exception through here keeps both surfaces in one
    format (rule id, layer, offending variables).
    """
    return Finding(
        rule=exc.rule,
        path=path,
        line=0,
        message=str(exc),
        severity=severity_of(exc.rule),
        layer=exc.layer,
        function=exc.action,
    )


def format_findings(findings: Sequence[Finding], title: str | None = None) -> str:
    """Human-readable findings table (one ``path:line: RULE ...`` per line)."""
    if not findings:
        return "repro-lint: no findings"
    lines = []
    if title:
        lines.append(title)
    for finding in findings:
        context = "/".join(part for part in (finding.layer, finding.function) if part)
        suffix = f" [{context}]" if context else ""
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.severity}: "
            f"{finding.message}{suffix}"
        )
    errors = sum(1 for finding in findings if finding.severity == "error")
    warnings = len(findings) - errors
    lines.append(f"repro-lint: {len(findings)} finding(s) ({errors} error, {warnings} warning)")
    return "\n".join(lines)


def findings_to_json(findings: Iterable[Finding]) -> str:
    """Machine-readable form (``repro-lint --format json``)."""
    return json.dumps([asdict(finding) for finding in findings], indent=2, sort_keys=True)


__all__ = [
    "Finding",
    "RULES",
    "finding_from_guard_error",
    "findings_to_json",
    "format_findings",
    "severity_of",
]
