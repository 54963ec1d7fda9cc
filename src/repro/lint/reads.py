"""Cross-check declared reads against the static read sets (rule RL008).

The scheduler skips a guard or violation-rule part after a
change to a variable its :class:`~repro.runtime.actions.Reads` omits (each
``all_of`` part has its own; a plain guard is one part declared by
``Action.reads``), and keeps a layer's cached residue after a change to
anything its rule parts do not read.  An under-declared read therefore
leaves a stale answer in place without any error.  This pass holds each
declaration to the reads the static pass (:mod:`repro.lint.static`) finds.
A read the pass finds in a resolved guard or rule part that the part's own
declaration omits is an RL008 error, even when another part of the same
guard declares it; so is a read of ``legitimacy_residue`` that no rule part
of its layer declares.  A pointer-directed read (``via``/``named_by``)
counts as a neighbor read: the static pass cannot tell which neighbor a
pointer names, so it is checked here against the union of the plain and the
pointer-directed neighbor reads, and at run time, neighbor by neighbor, by
``check_guard_locality``.  A declaration whose ``via`` pointer is missing
from its own reads, or whose ``named_by`` pointer is missing from its
neighbor reads, is an RL009 error.  Over-declaring is sound and allowed.

Declarations are runtime values: STNO builds its own from the tree it runs
over.  So the pass imports each analyzed module that declares reads or
defines a residue, instantiates its protocol classes that take no
arguments, and reads the declarations off their actions and rules on a
small probe network.  Reads the static pass cannot see are not checked
here, such as those made by helpers on other objects like
``self._tree.children`` or variable names held in attributes;
``check_guard_locality`` checks those at run time.  A part is keyed by the
file and line of its predicate's definition, so a predicate of another
module (the specification's SP2 part) is one site for every guard and rule
that holds it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from types import ModuleType

from repro.errors import ReproError
from repro.lint.findings import Finding, severity_of
from repro.runtime.actions import Not, Reads
from repro.runtime.protocol import Protocol


def _import(path: Path) -> ModuleType | None:
    """The module at ``path``: by dotted name inside the package, else by file."""
    import repro

    package = Path(repro.__file__).resolve().parent
    if path.is_relative_to(package):
        parts = path.relative_to(package).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        try:
            return importlib.import_module(".".join(("repro", *parts)))
        except ImportError:  # a missing optional dependency: left unchecked
            return None
    name = f"_repro_lint_probe_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    except ImportError:
        del sys.modules[name]
        return None
    return module


def _guard_site(guard: object) -> tuple[Path, int] | None:
    """``(file, first line)`` of a guard part's code: the key static summaries share.

    A :class:`~repro.runtime.actions.Not` part's site is its predicate's.
    """
    if isinstance(guard, Not):
        guard = guard.predicate
    function = getattr(guard, "__func__", guard)  # a bound method's function
    code = getattr(function, "__code__", None)
    if code is None:
        return None
    return Path(code.co_filename).resolve(), code.co_firstlineno


def _declarations(
    paths: set[Path],
) -> tuple[dict[tuple[Path, int], dict[Reads, set[str]]], dict[tuple[Path, str], frozenset[str]]]:
    """Declared guard- and rule-part reads by site, and rule reads by ``(file, class)``.

    A site maps each declaration made for it to the action or rule names
    that made it (a predicate shared by several actions or parts may be
    declared differently).  A class maps to every variable its rule parts
    read, own or neighbor -- what its residue may read.
    """
    from repro.graphs import generators

    network = generators.random_connected(8, seed=1)
    guards: dict[tuple[Path, int], dict[Reads, set[str]]] = {}
    legitimacy: dict[tuple[Path, str], frozenset[str]] = {}
    for path in sorted(paths):
        module = _import(path)
        if module is None:
            continue
        for cls in vars(module).values():
            if not (
                isinstance(cls, type)
                and issubclass(cls, Protocol)
                and cls.__module__ == module.__name__
                and not inspect.isabstract(cls)
            ):
                continue
            try:
                protocol = cls()
                actions = [protocol.actions(network, node) for node in network.nodes()]
                rules = [protocol.violation_rules(network, node) for node in network.nodes()]
            except (TypeError, ValueError, ReproError):  # needs arguments or another topology
                continue
            declared = [
                reads for program in rules for rule in program for _, reads in rule.guard_parts
            ]
            if declared and None not in declared:
                legitimacy[(path, cls.__name__)] = frozenset().union(
                    *(reads.own | reads.neighbor_reads for reads in declared)
                )
            for program in (*actions, *rules):
                for action in program:
                    for predicate, reads in action.guard_parts:
                        site = _guard_site(predicate)
                        if reads is not None and site is not None:
                            names = guards.setdefault(site, {}).setdefault(reads, set())
                            names.add(action.name)
    return guards, legitimacy


def _finding(
    path: str, line: int, owner: str, function: str, message: str, rule: str = "RL008"
) -> Finding:
    return Finding(
        rule=rule,
        path=path,
        line=line,
        message=message,
        severity=severity_of(rule),
        layer=owner,
        function=function,
    )


def _unread_pointers(declared: Reads) -> list[str]:
    """The pointers of ``declared``'s pointer-directed reads it does not declare reading.

    A ``via`` pointer is followed from the processor itself, so it must be
    in ``own``; a ``named_by`` pointer is tested at every neighbor, so it
    must be in ``neighbor``.  Without that the scheduler would not stale the
    part when the pointer moves.
    """
    return [
        f"via pointer {pointer!r} is not in its own reads"
        for pointer, _ in declared.via
        if pointer not in declared.own
    ] + [
        f"named_by pointer {pointer!r} is not in its neighbor reads"
        for pointer, _ in declared.named_by
        if pointer not in declared.neighbor
    ]


def check_reads(analyzer) -> tuple[list[Finding], int]:
    """RL008 and RL009 findings for ``analyzer``'s modules, and the declarations checked.

    ``analyzer`` is a finished static pass (:func:`~repro.lint.static.analyze_paths`).
    """
    paths = {
        Path(summary.module).resolve() for summary in analyzer.summaries if summary.declares_reads
    }
    paths.update(Path(summary.module).resolve() for summary in analyzer.legitimacy_summaries)
    guards, legitimacy = _declarations(paths)
    # Each guard-part site once, with the first action summary that uses it
    # (a gate shared by several actions is one site).
    sites = {}
    for summary in analyzer.summaries:
        for part in summary.guard_parts:
            sites.setdefault((Path(part.path).resolve(), part.line), (part, summary))
    findings: list[Finding] = []
    checked = 0
    for site, (part, summary) in sites.items():
        declared_at = guards.get(site, {})
        for declared, names in sorted(declared_at.items(), key=lambda item: sorted(item[1])):
            checked += 1
            missing = []
            if own := part.reads_own - declared.own:
                missing.append(f"own {sorted(own)}")
            if neighbor := part.reads_neighbor - declared.neighbor_reads:
                missing.append(f"neighbor {sorted(neighbor)}")
            if missing:
                action = "/".join(sorted(names))
                kind = "violation rule" if summary.rule else "guard of action"
                findings.append(
                    _finding(
                        summary.module,
                        summary.line,
                        summary.owner,
                        action,
                        f"{kind} {action!r} (the part defined at "
                        f"{Path(part.path).name}:{part.line}) reads "
                        + " and ".join(missing)
                        + " that its declared reads omit",
                    )
                )
    for (path, line), declared_at in sorted(guards.items()):
        part_summary = sites.get((path, line))
        for declared, names in declared_at.items():
            if misses := _unread_pointers(declared):
                action = "/".join(sorted(names))
                summary = part_summary[1] if part_summary else None
                findings.append(
                    _finding(
                        summary.module if summary else str(path),
                        summary.line if summary else line,
                        summary.owner if summary else "",
                        action,
                        f"declared reads of {action!r} (the part defined at {path.name}:{line}): "
                        + "; ".join(misses),
                        rule="RL009",
                    )
                )
    for summary in analyzer.legitimacy_summaries:
        declared = legitimacy.get((Path(summary.module).resolve(), summary.owner))
        if declared is None:
            continue
        checked += 1
        if missing := summary.reads - declared:
            findings.append(
                _finding(
                    summary.module,
                    summary.line,
                    summary.owner,
                    summary.method,
                    f"{summary.method} reads {sorted(missing)} that none of the "
                    "layer's violation rules declares",
                )
            )
    return findings, checked


__all__ = ["check_reads"]
