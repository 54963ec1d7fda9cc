"""AST-based static verification of the guarded-command locality contract.

The whole reproduction rests on one structural assumption: a guard reads only
its closed neighborhood and an action writes only its own node.  That is what
makes the scheduler's maintained enabled-set (stale-guard re-evaluation)
sound.  This pass checks the contract at review time, before any scheduler
runs:

* every ``Action(name, guard, statement, ...)`` and violation
  ``Rule(name, guard, ...)`` construction (and every composition
  ``hooks()`` mapping) is located in the protocol sources; a rule's guard
  is held to the same contract as an action's;
* guards and statements -- plus every same-module helper they call with the
  view -- are walked through the :class:`~repro.runtime.processor.ProcessorView`
  API surface; a guard written ``all_of((predicate, reads), ...)`` is walked
  part by part (a ``Not(predicate)`` part as ``predicate``);
* violations are reported as :class:`~repro.lint.findings.Finding` objects
  with rule ids ``RL001``..``RL006`` (see
  :data:`~repro.lint.findings.RULES`).

The analysis is deliberately *conservative*: a guard or helper it cannot
resolve statically (a callable stored in a variable, a cross-object call like
``self._tree.children(view)``, a variable name computed at run time) is
skipped, never flagged.  A method of an object ``__init__`` builds,
``self.<attr>.<method>`` after ``self.<attr> = Class(...)``, is resolved in
``Class``'s module, which may be another ``repro`` module.  False negatives
are acceptable -- the run-time tracker (``check_guard_locality`` /
``REPRO_DEBUG_GUARDS``, which ``repro-lint`` also runs every part under:
:mod:`repro.lint.reads`) backstops the read rules -- false positives on
shipped protocols are not.  Whether a part's reads match its declared
``Reads`` (RL008) is left to that run-time check alone.

Escape hatch: a line carrying ``# repro-lint: disable=RL001`` (comma-separate
several ids, or ``disable=all``) suppresses findings anchored to that line.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.lint.findings import Finding, severity_of

#: Variable-factory callables whose first argument declares a variable name
#: (see :mod:`repro.runtime.variables`).
_VARIABLE_FACTORIES = {
    "int_variable",
    "enum_variable",
    "pointer_variable",
    "map_variable",
    "VariableSpec",
}

#: ``view`` methods that read a variable: method -> index of the name argument.
_READ_METHODS = {"read": 0, "read_pre": 0, "read_neighbor": 1, "try_read_neighbor": 1}

#: Receivers/callables that make a guard impure (I/O).
_IO_CALLABLES = {"print", "open", "input"}
_IO_MODULES = {"os", "sys", "subprocess", "shutil", "socket", "pathlib"}

#: RNG surface: the stdlib module, conventional rng names, Random methods.
_RNG_RECEIVERS = {"random", "rng"}
_RNG_METHODS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
}

_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,\s]+)")


def _first_view_param(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> str | None:
    """The parameter a guard/statement receives the view through."""
    args = node.args.args
    names = [arg.arg for arg in args]
    if names and names[0] == "self":
        names = names[1:]
    return names[0] if names else None


@dataclass
class _ModuleIndex:
    """Everything the resolver needs to know about one source file."""

    path: str
    tree: ast.Module
    source_lines: list[str]
    constants: dict[str, str] = field(default_factory=dict)
    module_aliases: dict[str, str] = field(default_factory=dict)  # alias -> module
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    class_constants: dict[str, dict[str, ast.expr]] = field(default_factory=dict)
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    disabled: dict[int, set[str]] = field(default_factory=dict)


def _index_module(path: Path) -> _ModuleIndex:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    index = _ModuleIndex(path=str(path), tree=tree, source_lines=source.splitlines())
    for lineno, line in enumerate(index.source_lines, start=1):
        match = _DISABLE_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            index.disabled[lineno] = rules
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str):
                    index.constants[target.id] = node.value.value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                index.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                index.from_imports[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            index.classes[node.name] = node
            index.class_bases[node.name] = [
                base.id for base in node.bases if isinstance(base, ast.Name)
            ]
            attrs: dict[str, ast.expr] = {}
            for item in node.body:
                if isinstance(item, ast.Assign) and len(item.targets) == 1:
                    target = item.targets[0]
                    if isinstance(target, ast.Name):
                        attrs[target.id] = item.value
            index.class_constants[node.name] = attrs
    return index


@dataclass
class _Scope:
    """Where an expression lives: its module, class, and function nesting."""

    index: _ModuleIndex
    class_name: str | None = None
    function_stack: tuple[ast.FunctionDef, ...] = ()


class _Resolver:
    """Conservative name resolution over one module index.

    ``foreign`` maps a ``repro`` module name to that module's resolver
    (``None``: not found), for the constants and classes the module imports.
    """

    def __init__(
        self, index: _ModuleIndex, foreign: Callable[[str], "_Resolver | None"]
    ) -> None:
        self.index = index
        self.foreign = foreign

    # -- strings ------------------------------------------------------
    def resolve_string(self, expr: ast.expr, scope: _Scope) -> str | None:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            for function in reversed(scope.function_stack):
                local = self._local_string(function, expr.id)
                if local is not None:
                    return local
            if expr.id in self.index.constants:
                return self.index.constants[expr.id]
            if expr.id in self.index.from_imports:
                return self._foreign_constant(*self.index.from_imports[expr.id])
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = expr.value.id
            if owner == "self" and scope.class_name:
                return self._class_string(scope.class_name, expr.attr, scope)
            if owner in self.index.classes:
                return self._class_string(owner, expr.attr, scope)
            if owner in self.index.module_aliases:
                return self._foreign_constant(self.index.module_aliases[owner], expr.attr)
            if owner in self.index.from_imports:
                module, name = self.index.from_imports[owner]
                # `name` may be a class (`ForeignClass.ACTION_X`) or a submodule.
                resolver = self.foreign(module)
                if resolver is not None and name in resolver.index.classes:
                    return resolver._class_string(name, expr.attr, scope)
                return self._foreign_constant(f"{module}.{name}", expr.attr)
        return None

    def _foreign_constant(self, module: str, name: str) -> str | None:
        """The module-level string constant ``name`` of the ``repro`` module ``module``."""
        resolver = self.foreign(module)
        return resolver.index.constants.get(name) if resolver is not None else None

    def _local_string(self, function: ast.FunctionDef, name: str) -> str | None:
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and target.id == name
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    return node.value.value
        return None

    def _class_string(self, class_name: str, attr: str, scope: _Scope) -> str | None:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.index.classes:
                continue
            seen.add(current)
            expr = self.index.class_constants.get(current, {}).get(attr)
            if expr is not None:
                narrowed = _Scope(self.index, class_name=None, function_stack=())
                return self.resolve_string(expr, narrowed)
            queue.extend(self.index.class_bases.get(current, []))
        return None

    # -- callables ----------------------------------------------------
    def resolve_callable(
        self, expr: ast.expr, scope: _Scope
    ) -> tuple[ast.FunctionDef | ast.Lambda, _Scope] | None:
        if isinstance(expr, ast.Lambda):
            return expr, scope
        if isinstance(expr, ast.Name):
            for depth in range(len(scope.function_stack), 0, -1):
                enclosing = scope.function_stack[depth - 1]
                found = self._find_def(enclosing.body, expr.id)
                if found is not None:
                    inner = _Scope(
                        self.index,
                        class_name=scope.class_name,
                        function_stack=scope.function_stack[:depth] + (found,),
                    )
                    return found, inner
            if expr.id in self.index.functions:
                found = self.index.functions[expr.id]
                return found, _Scope(self.index, function_stack=(found,))
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = expr.value.id
            if owner == "self" and scope.class_name:
                return self._class_method(scope.class_name, expr.attr)
            if owner in self.index.classes:
                return self._class_method(owner, expr.attr)
        held = ast.unparse(expr.value) if isinstance(expr, ast.Attribute) else ""
        init = self._class_method(scope.class_name, "__init__") if scope.class_name else None
        if held.startswith("self.") and init is not None:
            # ``self.<held>.<method>``, where ``__init__`` sets ``self.<held> = Class(...)``
            # and ``Class`` is this module's or imported from a ``repro`` module.
            for node in ast.walk(init[0]):
                if (
                    isinstance(node, ast.Assign)
                    and ast.unparse(node.targets[0]) == held
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                ):
                    name = node.value.func.id
                    module, name = self.index.from_imports.get(name, (None, name))
                    resolver = self if module is None else self.foreign(module)
                    return resolver._class_method(name, expr.attr) if resolver else None
        return None

    @classmethod
    def _find_def(cls, body: Sequence[ast.stmt], name: str) -> ast.FunctionDef | None:
        """Find ``def name`` in ``body``, descending into compound statements
        (``if``/``for``/``while``/``with``/``try`` branches) but never into
        other function bodies -- their defs are out of scope for the caller."""
        for node in body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for child_body in (
                getattr(node, "body", ()),
                getattr(node, "orelse", ()),
                getattr(node, "finalbody", ()),
            ):
                found = cls._find_def(child_body, name)
                if found is not None:
                    return found
            for handler in getattr(node, "handlers", ()):
                found = cls._find_def(handler.body, name)
                if found is not None:
                    return found
        return None

    def _class_method(
        self, class_name: str, attr: str
    ) -> tuple[ast.FunctionDef, _Scope] | None:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.index.classes:
                continue
            seen.add(current)
            for node in self.index.classes[current].body:
                if isinstance(node, ast.FunctionDef) and node.name == attr:
                    return node, _Scope(
                        self.index, class_name=current, function_stack=(node,)
                    )
            queue.extend(self.index.class_bases.get(current, []))
        return None


@dataclass
class ActionSummary:
    """The statically-derived read/write footprint of one protocol action or rule.

    What ``repro-lint --summary`` (:mod:`repro.lint.summary`) writes out;
    a guard's reads are the union over its resolved parts.
    """

    module: str
    owner: str  # enclosing class (or "<module>")
    action: str
    line: int
    guard_reads_own: set[str] = field(default_factory=set)
    guard_reads_neighbor: set[str] = field(default_factory=set)
    statement_reads_own: set[str] = field(default_factory=set)
    statement_reads_neighbor: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    guard_resolved: bool = False  # every guard part resolved
    statement_resolved: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "owner": self.owner,
            "action": self.action,
            "line": self.line,
            "guard_reads_own": sorted(self.guard_reads_own),
            "guard_reads_neighbor": sorted(self.guard_reads_neighbor),
            "statement_reads_own": sorted(self.statement_reads_own),
            "statement_reads_neighbor": sorted(self.statement_reads_neighbor),
            "writes": sorted(self.writes),
            "guard_resolved": self.guard_resolved,
            "statement_resolved": self.statement_resolved,
        }


class _FunctionChecker(ast.NodeVisitor):
    """Walk one guard/statement (and its helpers) applying the rules."""

    def __init__(
        self,
        analyzer: "_Analyzer",
        scope: _Scope,
        kind: str,  # "guard" | "statement"
        view_param: str | None,
        summary: ActionSummary,
        reads: tuple[set[str], set[str]],  # where own / neighbor reads go
        visited: set[tuple[str, int, str]] | None = None,
    ) -> None:
        self.analyzer = analyzer
        self.scope = scope
        self.kind = kind
        self.view_param = view_param
        self.summary = summary
        self.reads = reads
        # Per-action: a helper shared by two actions must contribute its
        # footprint to both summaries (finding dedup is separate).
        self.visited = visited if visited is not None else set()
        self.resolver = analyzer.resolvers[scope.index.path]
        # Local names bound to a view method (``read_neighbor = view.read_neighbor``).
        self.view_aliases: dict[str, str] = {}

    def check(self, body: Iterable[ast.stmt] | ast.expr) -> None:
        if isinstance(body, ast.expr):
            self.visit(body)
            return
        for stmt in body:
            self.visit(stmt)

    # Nested defs inside a guard/statement are only relevant if called; the
    # call-site recursion handles them, so do not descend here by default.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:  # noqa: N802
        return

    def visit_Assign(self, node: ast.Assign) -> None:  # noqa: N802
        """Track local aliases of the view's methods, plain or tuple-unpacked."""
        for target in node.targets:
            unpacked = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
            pairs = zip(target.elts, node.value.elts) if unpacked else ((target, node.value),)
            for name, value in pairs:
                if isinstance(name, ast.Name):
                    self.view_aliases.pop(name.id, None)
                    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                        if self.view_param is not None and value.value.id == self.view_param:
                            self.view_aliases[name.id] = value.attr
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:  # noqa: N802
        if (
            self.view_param is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == self.view_param
            and node.attr.startswith("_")
        ):
            if self.kind == "guard":
                self.analyzer.report(
                    "RL004",
                    node,
                    self.scope,
                    f"guard reaches into the view's private state "
                    f"(`{self.view_param}.{node.attr}`), bypassing the neighbor-checked "
                    f"read API",
                    self.summary,
                )
            else:
                self.analyzer.report(
                    "RL005",
                    node,
                    self.scope,
                    f"statement reaches into the view's private state "
                    f"(`{self.view_param}.{node.attr}`): the only way to write a node "
                    f"other than its own",
                    self.summary,
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        func = node.func
        handled_attr = False
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and self.view_param is not None
            and func.value.id == self.view_param
        ):
            handled_attr = self._check_view_call(node, func.attr)
        elif isinstance(func, ast.Name) and func.id in self.view_aliases:
            handled_attr = self._check_view_call(node, self.view_aliases[func.id])
        if self.kind == "guard":
            self._check_purity(node, func)
        if not handled_attr:
            self._maybe_recurse(node, func)
        self.generic_visit(node)

    def _check_view_call(self, node: ast.Call, method: str) -> bool:
        if method == "write":
            if self.kind == "guard":
                self.analyzer.report(
                    "RL001",
                    node,
                    self.scope,
                    f"guard calls `{self.view_param}.write(...)`: guards must be pure "
                    f"predicates over the configuration",
                    self.summary,
                )
            name = self._variable_argument(node, 0)
            if name is not None:
                self.summary.writes.add(name)
                self._check_declared(node, name, "written")
            return True
        if method in _READ_METHODS:
            name = self._variable_argument(node, _READ_METHODS[method])
            if name is not None:
                own, neighbor = self.reads
                (neighbor if method in ("read_neighbor", "try_read_neighbor") else own).add(name)
                self._check_declared(node, name, "read")
            return True
        return False

    def _variable_argument(self, node: ast.Call, position: int) -> str | None:
        if len(node.args) > position:
            return self.resolver.resolve_string(node.args[position], self.scope)
        for keyword in node.keywords:
            if keyword.arg == "variable":
                return self.resolver.resolve_string(keyword.value, self.scope)
        return None

    def _check_declared(self, node: ast.Call, name: str, verb: str) -> None:
        if name not in self.analyzer.variable_universe:
            self.analyzer.report(
                "RL006",
                node,
                self.scope,
                f"variable {name!r} is {verb} but never declared in any analyzed "
                f"layer's variable schema",
                self.summary,
            )

    def _check_purity(self, node: ast.Call, func: ast.expr) -> None:
        if isinstance(func, ast.Name) and func.id in _IO_CALLABLES:
            self.analyzer.report(
                "RL002",
                node,
                self.scope,
                f"guard calls `{func.id}(...)`: guards must not perform I/O",
                self.summary,
            )
            return
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner in _IO_MODULES:
                self.analyzer.report(
                    "RL002",
                    node,
                    self.scope,
                    f"guard calls `{owner}.{func.attr}(...)`: guards must not perform I/O",
                    self.summary,
                )
                return
            if owner in _RNG_RECEIVERS or (
                func.attr in _RNG_METHODS and owner != self.view_param
            ):
                self.analyzer.report(
                    "RL003",
                    node,
                    self.scope,
                    f"guard calls `{owner}.{func.attr}(...)`: guards must be "
                    f"deterministic in the configuration",
                    self.summary,
                )

    def _maybe_recurse(self, node: ast.Call, func: ast.expr) -> None:
        """Propagate the rule context into same-module helpers.

        Only calls that *pass the view along* matter for locality; purity
        still matters regardless, so any resolvable helper is followed (with
        a visited-set to terminate cycles).
        """
        resolved = self.resolver.resolve_callable(func, self.scope)
        if resolved is None:
            return
        target, target_scope = resolved
        key = (self.scope.index.path, id(target), self.kind)
        if key in self.visited:
            return
        self.visited.add(key)
        view_param: str | None = None
        if isinstance(target, (ast.FunctionDef, ast.Lambda)):
            callee_view = _first_view_param(target)
            if callee_view is not None and self._passes_view(node):
                view_param = callee_view
        checker = _FunctionChecker(
            self.analyzer,
            target_scope,
            self.kind,
            view_param,
            self.summary,
            self.reads,
            self.visited,
        )
        checker.check(target.body)

    def _passes_view(self, node: ast.Call) -> bool:
        if self.view_param is None:
            return False
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id == self.view_param:
                return True
        return any(
            isinstance(kw.value, ast.Name) and kw.value.id == self.view_param
            for kw in node.keywords
        )


class _Analyzer:
    """One lint run over a set of source files."""

    def __init__(self, paths: Sequence[Path]) -> None:
        self.indexes: dict[str, _ModuleIndex] = {}
        self.resolvers: dict[str, _Resolver] = {}
        for path in paths:
            index = _index_module(path)
            self.indexes[index.path] = index
            self.resolvers[index.path] = _Resolver(index, self._module_resolver)
        self._foreign: dict[str, _Resolver | None] = {}
        self.variable_universe: set[str] = set()
        self.findings: list[Finding] = []
        self.summaries: list[ActionSummary] = []
        self._seen_findings: set[tuple[str, str, int, int]] = set()

    def _module_resolver(self, module: str) -> _Resolver | None:
        """The resolver of the ``repro`` module ``module`` (``None``: no source found).

        An analyzed file's own; any other module is indexed on first use.
        """
        if module not in self._foreign:
            self._foreign[module] = None
            try:
                spec = importlib.util.find_spec(module) if module.startswith("repro") else None
            except (ImportError, ValueError):
                return None
            origin = Path(spec.origin).resolve() if spec and spec.origin else None
            if origin is not None and origin.suffix == ".py":
                analyzed = [path for path in self.indexes if Path(path).resolve() == origin]
                try:
                    index = self.indexes[analyzed[0]] if analyzed else _index_module(origin)
                except (OSError, SyntaxError):
                    return None
                self._foreign[module] = self.resolvers.setdefault(
                    index.path, _Resolver(index, self._module_resolver)
                )
        return self._foreign[module]

    # -- reporting ----------------------------------------------------
    def report(
        self,
        rule: str,
        node: ast.AST,
        scope: _Scope,
        message: str,
        summary: ActionSummary,
    ) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        key = (scope.index.path, rule, line, col)
        if key in self._seen_findings:
            return
        disabled = scope.index.disabled.get(line, ())
        if rule in disabled or "all" in disabled:
            return
        self._seen_findings.add(key)
        self.findings.append(
            Finding(
                rule=rule,
                path=scope.index.path,
                line=line,
                message=message,
                severity=severity_of(rule),
                layer=summary.owner,
                function=summary.action,
            )
        )

    # -- passes -------------------------------------------------------
    def collect_variables(self) -> None:
        """Union of every variable schema declaration across the file set.

        A schema is declared in a ``variables()`` body or in the function a
        ``PerNetwork(...)`` builds per network (a layer whose ``variables``
        returns specs built once per network).
        """
        for index in self.indexes.values():
            resolver = self.resolvers[index.path]
            for scope, function in _walk_functions(index):
                inner = _Scope(
                    index,
                    class_name=scope.class_name,
                    function_stack=scope.function_stack + (function,),
                )
                if function.name == "variables":
                    self._collect_schema(function, inner, resolver)
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and _callee_name(node) == "PerNetwork"
                        and node.args
                    ):
                        resolved = resolver.resolve_callable(node.args[0], inner)
                        if resolved is not None:
                            schema, schema_scope = resolved
                            self._collect_schema(schema, schema_scope, resolver)

    def _collect_schema(
        self, function: ast.FunctionDef | ast.Lambda, scope: _Scope, resolver: _Resolver
    ) -> None:
        """Add the variable names ``function``'s factory calls declare."""
        for node in ast.walk(function):
            if not isinstance(node, ast.Call) or _callee_name(node) not in _VARIABLE_FACTORIES:
                continue
            name: str | None = None
            if node.args:
                name = resolver.resolve_string(node.args[0], scope)
            if name is None:
                for keyword in node.keywords:
                    if keyword.arg == "name":
                        name = resolver.resolve_string(keyword.value, scope)
            if name is not None:
                self.variable_universe.add(name)

    def check_actions(self) -> None:
        for index in self.indexes.values():
            resolver = self.resolvers[index.path]
            for scope, function in _walk_functions(index):
                inner = _Scope(
                    index,
                    class_name=scope.class_name,
                    function_stack=scope.function_stack + (function,),
                )
                for node in ast.walk(function):
                    if not isinstance(node, ast.Call):
                        continue
                    name = _callee_name(node)
                    if name in ("Action", "Rule"):
                        self._check_action_call(node, inner, resolver, rule=name == "Rule")
                if function.name == "hooks":
                    self._check_hooks(function, inner, resolver)

    def _check_action_call(
        self, node: ast.Call, scope: _Scope, resolver: _Resolver, rule: bool = False
    ) -> None:
        guard_expr = node.args[1] if len(node.args) > 1 else None
        statement_expr = node.args[2] if len(node.args) > 2 and not rule else None
        name_expr = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "guard":
                guard_expr = keyword.value
            elif keyword.arg == "statement":
                statement_expr = keyword.value
            elif keyword.arg == "name":
                name_expr = keyword.value
        action_name = (
            resolver.resolve_string(name_expr, scope) if name_expr is not None else None
        )
        summary = ActionSummary(
            module=scope.index.path,
            owner=scope.class_name or "<module>",
            action=action_name or f"<anonymous:{node.lineno}>",
            line=node.lineno,
            statement_resolved=rule,  # a rule has no statement to resolve
        )
        if guard_expr is not None:
            guard_reads = (summary.guard_reads_own, summary.guard_reads_neighbor)
            summary.guard_resolved = all(
                [
                    self._check_callable(predicate, scope, "guard", summary, guard_reads)
                    for predicate in _conjunct_predicates(guard_expr) or [guard_expr]
                ]
            )
        if statement_expr is not None:
            statement_reads = (summary.statement_reads_own, summary.statement_reads_neighbor)
            summary.statement_resolved = self._check_callable(
                statement_expr, scope, "statement", summary, statement_reads
            )
        self.summaries.append(summary)

    def _check_hooks(
        self, function: ast.FunctionDef, scope: _Scope, resolver: _Resolver
    ) -> None:
        """Composition hook mappings: every dict value is a statement."""
        for node in ast.walk(function):
            if not isinstance(node, ast.Dict):
                continue
            for key_expr, value_expr in zip(node.keys, node.values):
                hook_name = (
                    resolver.resolve_string(key_expr, scope)
                    if key_expr is not None
                    else None
                )
                summary = ActionSummary(
                    module=scope.index.path,
                    owner=scope.class_name or "<module>",
                    action=f"hook:{hook_name or value_expr.lineno}",
                    line=value_expr.lineno,
                )
                summary.guard_resolved = True  # hooks have no guard of their own
                statement_reads = (summary.statement_reads_own, summary.statement_reads_neighbor)
                summary.statement_resolved = self._check_callable(
                    value_expr, scope, "statement", summary, statement_reads
                )
                if summary.statement_resolved:
                    self.summaries.append(summary)

    def _check_callable(
        self,
        expr: ast.expr,
        scope: _Scope,
        kind: str,
        summary: ActionSummary,
        reads: tuple[set[str], set[str]],
    ) -> bool:
        """Check the callable ``expr`` resolves to, collecting its reads into
        ``reads`` (own, neighbor); whether it resolved."""
        resolver = self.resolvers[scope.index.path]
        resolved = resolver.resolve_callable(expr, scope)
        if resolved is None:
            return False
        target, target_scope = resolved
        view_param = _first_view_param(target)
        checker = _FunctionChecker(self, target_scope, kind, view_param, summary, reads)
        checker.check(target.body)
        return True

    def run(self) -> None:
        self.collect_variables()
        self.check_actions()
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))


def _callee_name(call: ast.Call) -> str | None:
    """The called name: ``f`` of ``f(...)`` and of ``obj.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _conjunct_predicates(expr: ast.expr) -> list[ast.expr] | None:
    """The predicates of an ``all_of((predicate, reads), ...)`` guard, else ``None``.

    A part that is not a literal ``(predicate, reads)`` tuple is taken whole,
    which leaves it unresolved.  A negated part, ``(Not(predicate), reads)``,
    reads what ``predicate`` reads.
    """
    if not isinstance(expr, ast.Call) or _callee_name(expr) != "all_of":
        return None
    return [
        _negated(part.elts[0]) if isinstance(part, ast.Tuple) and part.elts else part
        for part in expr.args
    ]


def _negated(predicate: ast.expr) -> ast.expr:
    """The predicate a ``Not(predicate)`` part wraps; any other part as it is."""
    if (
        isinstance(predicate, ast.Call)
        and _callee_name(predicate) == "Not"
        and len(predicate.args) == 1
        and not predicate.keywords
    ):
        return predicate.args[0]
    return predicate


def _walk_functions(index: _ModuleIndex):
    """Yield ``(scope, function)`` for every def in the module (any nesting)."""

    def descend(body, class_name, stack):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                yield _Scope(index, class_name=class_name, function_stack=stack), node
                yield from descend(node.body, class_name, stack + (node,))
            elif isinstance(node, ast.ClassDef):
                yield from descend(node.body, node.name, ())

    yield from descend(index.tree.body, None, ())


def iter_source_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into the ``.py`` files to analyze."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
        else:
            raise ValueError(f"not a Python source file or directory: {path}")
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def analyze_paths(paths: Iterable[str | Path]) -> _Analyzer:
    """Run the static pass; returns the analyzer (findings + action summaries)."""
    analyzer = _Analyzer(iter_source_files(paths))
    analyzer.run()
    return analyzer


#: Protocol name -> the source modules that define its layers.  Used by the
#: ``repro-campaign run --lint`` pre-flight to lint exactly the substrates a
#: grid references.  Token circulation rides along with every stack that can
#: reference its variables cross-module (the DFS overlay does).
def modules_for_protocols(protocols: Iterable[str]) -> list[Path]:
    import repro.core.dftno
    import repro.core.specification
    import repro.core.stno
    import repro.substrates.spanning_tree
    import repro.substrates.token_circulation

    by_protocol = {
        "dftno": (repro.core.dftno, repro.substrates.token_circulation),
        "stno-bfs": (
            repro.core.stno,
            repro.substrates.spanning_tree,
            repro.substrates.token_circulation,
        ),
        "stno-dfs": (
            repro.core.stno,
            repro.substrates.spanning_tree,
            repro.substrates.token_circulation,
        ),
    }
    modules: list[Path] = []
    for protocol in protocols:
        if protocol not in by_protocol:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from {sorted(by_protocol)}"
            )
        for module in by_protocol[protocol]:
            path = Path(module.__file__)
            if path not in modules:
                modules.append(path)
    return modules


__all__ = [
    "ActionSummary",
    "analyze_paths",
    "iter_source_files",
    "modules_for_protocols",
]
