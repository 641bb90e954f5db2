"""Pass 1 of the project-wide analyzer: the whole-program model.

reprolint v2 runs in two passes.  This module is the first: it walks
every parsed module of the scanned tree and builds

* a **symbol table** — every function/method definition, keyed by
  ``relpath::qualname`` (``core/sou.py::SOU.execute``);
* an **import graph** — per-module alias → dotted-target maps covering
  ``import a.b as c`` and ``from a.b import f as g`` (including one
  level of re-export chasing through package ``__init__`` modules);
* an **approximate call graph** — :meth:`ProjectModel.resolve_call`
  maps a syntactic call site to candidate definitions: local name →
  same-module def, import alias → cross-module def, ``self.m()`` →
  enclosing-class method, and a method-name fallback resolving
  ``obj.m()`` to every project class method named ``m``.

The call graph is deliberately *may*-resolution (over-approximate for
receivers, under-approximate for dynamic dispatch through variables of
unknown type); the interprocedural rules built on top (CYC02, PAR02)
are tuned for that precision and document the residual blind spots.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.reprolint.rules._util import dotted_name


@dataclass
class FunctionInfo:
    """One function or method definition anywhere in the project."""

    relpath: str
    path: str
    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None

    @property
    def key(self) -> str:
        return f"{self.relpath}::{self.qualname}"


@dataclass
class ModuleInfo:
    """Per-module summary produced by pass 1."""

    relpath: str
    path: str
    tree: ast.Module
    source: str
    #: local alias -> fully dotted target ("costs" -> "repro.model.costs").
    imports: Dict[str, str] = field(default_factory=dict)
    #: qualname ("f", "C.m", "f.inner") -> definition.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: names of classes defined at any nesting level.
    class_names: Set[str] = field(default_factory=set)
    #: module-level assigned names (mutable global candidates for PAR02).
    assigned_names: Set[str] = field(default_factory=set)
    #: module-level ``NAME = <literal>`` constants (schema version strings).
    constants: Dict[str, object] = field(default_factory=dict)


def _module_dotted_names(relpath: str, packages: Sequence[str]) -> List[str]:
    """Dotted names this file answers to (with and without root package)."""
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in stem.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    names: List[str] = []
    if parts:
        names.append(".".join(parts))
    for pkg in packages:
        full = [pkg] + parts
        names.append(".".join(full))
    return names


def _relative_base(relpath: str, level: int) -> List[str]:
    """Package parts a level-``level`` relative import resolves against."""
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in stem.split("/") if p]
    if not parts:
        return []
    if parts[-1] != "__init__":
        parts = parts[:-1]  # a plain module: level 1 is its package
    else:
        parts = parts[:-1]
        parts.append("")  # placeholder so the first level strips nothing
        parts = parts[:-1]
    for _ in range(level - 1):
        if parts:
            parts = parts[:-1]
    return parts


def _collect_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = alias.name
                else:
                    first = alias.name.split(".")[0]
                    module.imports.setdefault(first, first)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(module.relpath, node.level)
                if node.module:
                    base = base + node.module.split(".")
                prefix = ".".join(base)
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{prefix}.{alias.name}" if prefix else alias.name
                module.imports[local] = target


def _collect_defs(module: ModuleInfo) -> None:
    def walk(body: Sequence[ast.stmt], prefix: str,
             class_name: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                module.functions[qual] = FunctionInfo(
                    relpath=module.relpath, path=module.path,
                    qualname=qual, name=stmt.name, node=stmt,
                    class_name=class_name,
                )
                walk(stmt.body, f"{qual}.", None)
            elif isinstance(stmt, ast.ClassDef):
                module.class_names.add(stmt.name)
                walk(stmt.body, f"{prefix}{stmt.name}.", stmt.name)
            else:
                for attr in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, attr, None)
                    if sub:
                        walk(sub, prefix, class_name)
                for handler in getattr(stmt, "handlers", ()):
                    walk(handler.body, prefix, class_name)

    walk(module.tree.body, "", None)


def _collect_module_bindings(module: ModuleInfo) -> None:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        module.assigned_names.add(node.id)
            if len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Constant):
                module.constants[stmt.targets[0].id] = stmt.value.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            module.assigned_names.add(stmt.target.id)
            if isinstance(stmt.value, ast.Constant):
                module.constants[stmt.target.id] = stmt.value.value
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            module.assigned_names.add(stmt.target.id)


class ProjectModel:
    """The assembled pass-1 model; input to every :class:`ProjectRule`."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_dotted: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self._rel_by_path: Dict[str, str] = {}

    @classmethod
    def build(
        cls,
        entries: Sequence[Tuple[str, str, ast.Module, str]],
        packages: Sequence[str] = (),
    ) -> "ProjectModel":
        """Assemble the model from ``(path, relpath, tree, source)`` rows.

        ``packages`` lists the root package names the scanned relpaths
        live under (``("repro",)`` when scanning ``src/repro``), so
        absolute imports like ``repro.model.costs`` resolve against
        relpaths like ``model/costs.py``.
        """
        project = cls()
        for path, relpath, tree, source in entries:
            module = ModuleInfo(
                relpath=relpath, path=path, tree=tree, source=source
            )
            _collect_imports(module)
            _collect_defs(module)
            _collect_module_bindings(module)
            project.modules[relpath] = module
            project._rel_by_path[path] = relpath
            for dotted in _module_dotted_names(relpath, packages):
                project.by_dotted.setdefault(dotted, relpath)
            for info in module.functions.values():
                project.functions[info.key] = info
                if info.class_name is not None:
                    project.methods_by_name.setdefault(
                        info.name, []
                    ).append(info)
        return project

    def relpath_of(self, path: str) -> Optional[str]:
        return self._rel_by_path.get(path)

    def resolve_symbol(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Resolve a fully dotted name to a definition, chasing re-exports."""
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return None
        seen.add(dotted)
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            relpath = self.by_dotted.get(".".join(parts[:cut]))
            if relpath is None:
                continue
            module = self.modules[relpath]
            rest = parts[cut:]
            if not rest:
                return None
            qual = ".".join(rest)
            info = module.functions.get(qual)
            if info is not None:
                return info
            if qual in module.class_names:
                return module.functions.get(f"{qual}.__init__")
            if len(rest) == 1 and rest[0] in module.imports:
                return self.resolve_symbol(module.imports[rest[0]], seen)
            return None
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        class_name: Optional[str] = None,
    ) -> List[FunctionInfo]:
        """Candidate definitions for one syntactic call site."""
        return self.resolve_call_detailed(module, call, class_name)[0]

    def resolve_call_detailed(
        self,
        module: ModuleInfo,
        call: ast.Call,
        class_name: Optional[str] = None,
    ) -> Tuple[List[FunctionInfo], bool]:
        """Candidates plus whether method-name fallback produced them.

        The second element is True only for the may-alias dispatch case
        (receiver of unknown type, matched on method name alone) — a
        much weaker claim than the precise paths, which consumers like
        CYC02 treat with all-candidates instead of any-candidate logic.
        """
        dn = dotted_name(call.func)
        if dn is None:
            return [], False
        parts = dn.split(".")
        if len(parts) == 1:
            name = parts[0]
            info = module.functions.get(name)
            if info is not None:
                return [info], False
            if name in module.class_names:
                init = module.functions.get(f"{name}.__init__")
                return ([init] if init is not None else []), False
            if name in module.imports:
                resolved = self.resolve_symbol(module.imports[name])
                return ([resolved] if resolved is not None else []), False
            return [], False
        first, last = parts[0], parts[-1]
        if first in ("self", "cls") and class_name and len(parts) == 2:
            info = module.functions.get(f"{class_name}.{last}")
            if info is not None:
                return [info], False
        if first in module.imports:
            expanded = ".".join([module.imports[first]] + parts[1:])
            resolved = self.resolve_symbol(expanded)
            if resolved is not None:
                return [resolved], False
        # Receiver of unknown type: fall back to every project method
        # with that name (may-alias dispatch).
        return list(self.methods_by_name.get(last, ())), True
