"""The read probe runs every read line of the shipped guard and rule parts.

An execution check sees only the branches it runs, so ``repro-lint``'s
RL008 verdict on the shipped package is only as good as the probe's line
coverage.  This test traces the probe with :func:`sys.settrace` and holds
it to every line of a part, or of a helper a part calls, that calls a view
read method.  The eight lines it leaves unrun read nothing: they are
out-of-domain defensive branches (``sp2_violated``'s non-dict label map and
non-int name, two lines of ``child_weights``, one of ``desired_name``,
``_desired``'s isolated root, ``_child_settled``'s non-neighbor child and
``_valid_active``'s level above n-1).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import repro
from repro.lint import iter_source_files
from repro.lint.reads import check_reads
from repro.runtime.scheduler import _CheckedPart

PACKAGE = Path(repro.__file__).parent.resolve()

#: A call of a view read method, directly or through a local alias.
_READ_CALL = re.compile(r"\b(read|read_pre|read_neighbor|try_read_neighbor)\(")


def _trace_probe() -> tuple[set, set[tuple[str, int]]]:
    """The package code objects the probe ran inside a part, and the lines it ran."""
    package, runtime = str(PACKAGE), str(PACKAGE / "runtime")
    checked_call = _CheckedPart.__call__.__code__
    depth = 0
    entered: set = set()
    ran: set[tuple[str, int]] = set()

    def leave(frame, event, arg):
        nonlocal depth
        if event == "return":
            depth -= 1
        return leave

    def record(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return record

    def tracer(frame, event, arg):
        nonlocal depth
        code = frame.f_code
        if code is checked_call:
            depth += 1
            return leave
        filename = code.co_filename
        if not depth or not filename.startswith(package) or filename.startswith(runtime):
            return None
        entered.add(code)
        ran.add((filename, frame.f_lineno))
        return record

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        findings, _ = check_reads(iter_source_files([PACKAGE]))
    finally:
        sys.settrace(previous)
    assert findings == []
    return entered, ran


def test_the_probe_runs_every_read_line_of_the_shipped_parts() -> None:
    entered, ran = _trace_probe()
    # The parts and helpers of the token, tree, PIF, Dijkstra, specification
    # and orientation modules all ran.
    assert {Path(code.co_filename).name for code in entered} >= {
        "token_circulation.py",
        "spanning_tree.py",
        "pif.py",
        "dijkstra_ring.py",
        "specification.py",
        "dftno.py",
        "stno.py",
    }
    unrun_reads = []
    for code in entered:
        source = Path(code.co_filename).read_text(encoding="utf-8").splitlines()
        for line in {line for _, _, line in code.co_lines() if line}:
            if (code.co_filename, line) not in ran and _READ_CALL.search(source[line - 1]):
                unrun_reads.append(f"{Path(code.co_filename).name}:{line} ({code.co_name})")
    assert unrun_reads == []
