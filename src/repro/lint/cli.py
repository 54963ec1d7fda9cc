"""``repro-lint``: static protocol verifier.

Static mode (default) runs the AST pass over the given files/directories,
cross-checks the declared guard and legitimacy reads of the protocols they
define against it (rule RL008), and prints findings (exit 1 when any are
found)::

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
from typing import Sequence

from repro.lint.findings import findings_to_json, format_findings
from repro.lint.reads import check_reads
from repro.lint.static import analyze_paths, modules_for_protocols


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static protocol verifier.",
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
    analyzer = analyze_paths(paths)
    findings = sorted(
        analyzer.findings + check_reads(analyzer)[0], key=lambda f: (f.path, f.line, f.rule)
    )
    if args.summary:
        from repro.lint.summary import write_summary

        write_summary(paths, args.summary)
    if args.format == "json":
        print(findings_to_json(findings))
    else:
        print(format_findings(findings, title="static analysis"))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_static(args)
    except (ValueError, OSError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
