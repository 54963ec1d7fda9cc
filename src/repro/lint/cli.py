"""``repro-lint``: protocol verifier.

Runs the static AST pass (rules RL001-RL006) over the given
files/directories, then the read-declaration probe (RL004, RL008, RL009),
which runs every guard part, rule part and residue of the protocols they
define under the run-time read check, and prints findings, the probe's under
their own ``read probe`` title (exit 1 when any are found)::

    repro-lint src/repro                       # lint everything
    repro-lint --protocols dftno stno-bfs      # lint just those layers' modules
    repro-lint src/repro --format json         # machine-readable findings
    repro-lint src/repro --summary rwsets.json # also write read/write sets

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding, findings_to_json, format_sections
from repro.lint.reads import check_reads
from repro.lint.static import analyze_paths, iter_source_files, modules_for_protocols


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Everything ``repro-lint`` reports for ``paths`` (files or directories), sorted."""
    static, probe = _passes(paths)
    return _sorted(static + probe)


def _passes(paths: Iterable[str | Path]) -> tuple[list[Finding], list[Finding]]:
    """The static pass's findings and the read probe's for ``paths``, each sorted."""
    files = iter_source_files(paths)
    return _sorted(analyze_paths(files).findings), _sorted(check_reads(files)[0])


def _sorted(findings: Iterable[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Protocol verifier.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--protocols",
        nargs="+",
        metavar="NAME",
        help="lint the modules backing these protocol names (dftno, stno-bfs, stno-dfs)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--summary",
        metavar="FILE",
        help="also write the per-layer static read/write sets to FILE as JSON",
    )
    return parser


def _run_static(args: argparse.Namespace) -> int:
    paths: list[Path] = [Path(p) for p in args.paths]
    if args.protocols:
        paths.extend(modules_for_protocols(args.protocols))
    if not paths:
        package_root = Path(__file__).resolve().parent.parent
        paths = [package_root]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"repro-lint: no such path: {missing[0]}", file=sys.stderr)
        return 2
    static, probe = _passes(paths)
    if args.summary:
        from repro.lint.summary import write_summary

        write_summary(paths, args.summary)
    if args.format == "json":
        print(findings_to_json(_sorted(static + probe)))
    else:
        print(format_sections((("static analysis", static), ("read probe", probe))))
    return 1 if static or probe else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_static(args)
    except (ValueError, OSError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
