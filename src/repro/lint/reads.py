"""The read probe: every guard part, rule part and residue under the run-time read check.

The scheduler skips a guard or violation-rule part after a change to a
variable its :class:`~repro.runtime.actions.Reads` omits, and keeps a
layer's cached residue after a change to anything its rule parts do not
read, so an under-declared read leaves a stale answer in place without any
error.  ``check_guard_locality`` raises on such a read when a part makes it
(:class:`~repro.runtime.scheduler._CheckedPart`,
:func:`~repro.runtime.scheduler.check_residue_reads`); the probe makes every
part make its reads before any run does.

Declarations are runtime values (STNO builds its own from the tree it runs
over), so the probe imports each analyzed module that defines a class and
builds its :class:`~repro.runtime.protocol.Protocol` subclasses that take no
arguments, plus, for ``core/dftno.py`` and ``core/stno.py``, the shipped
stacks (DFTNO and STNO read their substrate's variables, so they run only
inside one).  On each network of :data:`PROBE_NETWORKS` a protocol accepts,
it compiles each node's program in ``check_guard_locality`` mode, then calls
every distinct part at every node, and checks every leaf's residue, on
:data:`SAMPLES` seeded random configurations.  A protocol that refuses a
network, or cannot run its parts on its own configurations, with a
:class:`~repro.errors.ReproError` is skipped there.

Each :class:`~repro.errors.GuardLocalityError` becomes a finding (RL004 or
RL008) anchored at the part's definition, once per part and declaration; a
part that failed is not called again.  A declaration whose ``via`` pointer
is missing from its own reads, or whose ``named_by`` pointer is missing from
its neighbor reads, is an RL009 error.  Over-declaring is sound and allowed.
The probe sees only the reads its samples make;
``tests/lint/test_probe_coverage.py`` holds it to every read line of the
shipped parts.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path
from types import ModuleType
from typing import Iterable

from repro.errors import GuardLocalityError, ReproError
from repro.graphs import generators
from repro.graphs.network import RootedNetwork
from repro.lint.findings import Finding, severity_of
from repro.runtime.actions import Not, Reads
from repro.runtime.processor import GuardView
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import (
    _CheckedPart,
    check_residue_reads,
    compile_program,
    residue_reads,
)

#: The networks every protocol is probed on: a dense graph, a ring (all
#: :class:`~repro.substrates.dijkstra_ring.DijkstraTokenRing` runs on) and a
#: tree (all :class:`~repro.substrates.pif.PIFWave` runs on).
PROBE_NETWORKS = (
    generators.random_connected(8, seed=1),
    generators.ring(6),
    generators.random_tree(7, seed=1),
)

#: Seeded random configurations drawn per protocol and network.  Ten already
#: run every read line of the shipped parts; twenty leave a margin.
SAMPLES = 20

#: Module -> the shipped stacks built when it is analyzed.
_STACKS = {"repro.core.dftno": ("dftno",), "repro.core.stno": ("stno-bfs", "stno-dfs")}

#: A module with no class statement defines no protocol and is not imported
#: (a ``__main__`` module would run).
_CLASS_RE = re.compile(r"^class ", re.MULTILINE)

#: A checked part or residue: its definition site and its declared reads.
Key = tuple[tuple[Path, int], Reads | frozenset[str] | None]


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


def _guard_site(guard: object) -> tuple[Path, int]:
    """``(file, first line)`` of a part's or a residue's code.

    A :class:`~repro.runtime.actions.Not` part's site is its predicate's.
    """
    if isinstance(guard, Not):
        guard = guard.predicate
    code = getattr(guard, "__func__", guard).__code__  # a bound method's function's
    return Path(code.co_filename).resolve(), code.co_firstlineno


def _display(path: Path) -> str:
    """``path`` relative to the working directory when it lies below it."""
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _finding(
    site: tuple[Path, int], rule: str, message: str, layer: str, function: str
) -> Finding:
    return Finding(
        rule=rule,
        path=_display(site[0]),
        line=site[1],
        message=message,
        severity=severity_of(rule),
        layer=layer,
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


def _protocols(paths: Iterable[Path]) -> list[Protocol]:
    """The protocols to probe: the no-argument classes of ``paths`` and their stacks."""
    from repro.analysis.convergence import protocol_stack

    protocols: list[Protocol] = []
    for path in sorted({Path(path).resolve() for path in paths}):
        if not _CLASS_RE.search(path.read_text(encoding="utf-8")):
            continue
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
                protocols.append(cls())
            except (TypeError, ValueError, ReproError):  # it needs arguments
                continue
        protocols.extend(protocol_stack(name)[0] for name in _STACKS.get(module.__name__, ()))
    return protocols


class _Probe:
    """One probe run: its findings, and every part and residue it compiled."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.parts: dict[Key, _CheckedPart] = {}  # the first part compiled under each key
        self.residues: set[Key] = set()
        self.failed: set[Key] = set()

    def _call(self, key: Key, check, *args) -> None:
        """Run ``check(*args)`` unless ``key`` failed before; its error becomes a finding."""
        if key in self.failed:
            return
        try:
            check(*args)
        except GuardLocalityError as exc:
            self.failed.add(key)
            self.findings.append(_finding(key[0], exc.rule, str(exc), exc.layer, exc.action))

    def run(self, protocol: Protocol, network: RootedNetwork) -> None:
        """Probe ``protocol`` on ``network``.

        Raises :class:`~repro.errors.ReproError` when the protocol refuses
        the network or cannot run its parts there.
        """
        leaves = tuple(dict.fromkeys(protocol.layers()))
        compiled: dict[tuple, list] = {}
        programs = []
        for node in network.nodes():
            actions = tuple(protocol.actions(network, node))
            rules = tuple(tuple(leaf.violation_rules(network, node)) for leaf in leaves)
            parts = compiled.get((actions, rules))
            if parts is None:
                _, walks, segments = compile_program(actions, rules, check_guard_locality=True)
                steps = (*walks, *(rule for _, held, _ in segments for rule in held))
                parts = compiled[actions, rules] = [
                    ((_guard_site(part.predicate), part.declared), part)
                    for part in dict.fromkeys(part for walk in steps for part, _, _ in walk)
                ]
                for key, part in parts:
                    self.parts.setdefault(key, part)
            programs.append((node, parts))
        residues = []
        for leaf in leaves:
            declared = residue_reads(
                rule for node in network.nodes() for rule in leaf.violation_rules(network, node)
            )
            residues.append(((_guard_site(leaf.legitimacy_residue), declared), leaf, declared))
        self.residues.update(key for key, _, _ in residues)
        for seed in range(SAMPLES):
            configuration = protocol.random_configuration(network, seed=seed)
            for node, parts in programs:
                view = GuardView(node, network, configuration)
                for key, part in parts:
                    self._call(key, part, view)
            for key, leaf, declared in residues:
                self._call(key, check_residue_reads, leaf, network, configuration, declared)

    def check_pointers(self) -> None:
        """RL009 for each declaration whose pointer-directed reads omit their pointers."""
        for key, part in self.parts.items():
            if part.declared is not None and (misses := _unread_pointers(part.declared)):
                names = "/".join(sorted({holder.name for holder in part.holders}))
                layers = "/".join(sorted({holder.layer for holder in part.holders}))
                message = f"declared reads of {names!r}: " + "; ".join(misses)
                self.findings.append(_finding(key[0], "RL009", message, layers, names))


def check_reads(paths: Iterable[str | Path]) -> tuple[list[Finding], set[Key]]:
    """RL004/RL008/RL009 findings of the probe over the modules at ``paths``, and what it checked.

    ``paths`` are source files (:func:`~repro.lint.static.iter_source_files`).
    The checked set holds each part's and residue's definition site with
    its declared reads.
    """
    probe = _Probe()
    for protocol in _protocols(Path(path) for path in paths):
        for network in PROBE_NETWORKS:
            try:
                probe.run(protocol, network)
            except ReproError:  # it refuses the network, or runs only in a stack
                continue
    probe.check_pointers()
    return probe.findings, set(probe.parts) | probe.residues


__all__ = ["PROBE_NETWORKS", "SAMPLES", "check_reads"]
