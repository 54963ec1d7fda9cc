"""repro-lint: static protocol verifier.

One findings vocabulary (:data:`~repro.lint.findings.RULES`) for every mode:

* the **static** pass (:mod:`repro.lint.static`) walks every layer's
  guard/action source through the :class:`~repro.runtime.processor.ProcessorView`
  API and reports locality and purity violations (``RL001``-``RL006``),
  deriving per-action read/write sets (:mod:`repro.lint.summary`) on the way;
* the **read-declaration** cross-check (:mod:`repro.lint.reads`, part of the
  default run) holds each guard and violation-rule part's ``reads``, and
  each layer's ``legitimacy_residue``, to the static read sets (``RL008``),
  and each pointer-directed read's pointer to its own or neighbor reads
  (``RL009``).

Runtime :class:`~repro.errors.GuardLocalityError` failures route through the
same formatter via :func:`~repro.lint.findings.finding_from_guard_error`.
"""

from repro.lint.findings import (
    Finding,
    RULES,
    finding_from_guard_error,
    findings_to_json,
    format_findings,
    severity_of,
)
from repro.lint.static import (
    ActionSummary,
    analyze_paths,
    iter_source_files,
    lint_paths,
    modules_for_protocols,
)
from repro.lint.summary import build_summary, write_summary

__all__ = [
    "ActionSummary",
    "Finding",
    "RULES",
    "analyze_paths",
    "build_summary",
    "finding_from_guard_error",
    "findings_to_json",
    "format_findings",
    "iter_source_files",
    "lint_paths",
    "modules_for_protocols",
    "severity_of",
    "write_summary",
]
