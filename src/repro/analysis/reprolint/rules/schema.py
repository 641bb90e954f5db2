"""SCHEMA01 — report-schema lockfiles: key drift needs a version bump.

The repo's versioned report dicts (``serve-sweep/v1``,
``cluster-run/v1``, the Chrome-trace export) are consumed by CI smoke
jobs, EXPERIMENTS.md tooling, and downstream notebooks.  Renaming or
dropping a key without bumping the version string breaks those
consumers silently.  SCHEMA01 pins each schema's *key set* in
``lint/schemas.lock`` and fails on drift.

**Discovery**: any dict literal containing a ``"schema"`` key whose
value is a string constant (or a name resolving to a module-level
string constant, e.g. ``SERVE_SCHEMA``).  The key set is the literal's
constant string keys plus any ``var["key"] = ...`` stores on the
variable it is assigned to, within the same function.

**Anchored sub-schemas**: lock ids containing ``#`` (e.g.
``serve-sweep/v1#row``) are not auto-discovered — the lock entry's
``anchor`` (``relpath::qualname``) names a function whose returned
dict literal *is* the schema (row/record ``to_dict`` helpers).

**Failing patterns**: a discovered schema missing from the lock; a key
set differing from the locked one under the *same* version string; a
locked schema or anchor that no longer exists; two sites claiming the
same schema id with different keys.

Fix path: bump the version string (``.../v2``) for intentional
changes, then run ``repro lint --update-schemas`` to regenerate the
lock; the diff of ``lint/schemas.lock`` documents the change in
review.  The rule is inert when the config names no lockfile; the
shipped config (:func:`~repro.analysis.reprolint.config.default_config`)
names ``lint/schemas.lock``.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.reprolint.cfg import walk_shallow
from repro.analysis.reprolint.config import LintConfig
from repro.analysis.reprolint.diagnostics import Diagnostic
from repro.analysis.reprolint.engine import ProjectRule
from repro.analysis.reprolint.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)

LOCK_FORMAT = 1


@dataclass
class SchemaSite:
    """One dict literal claiming a schema id."""

    schema_id: str
    module: ModuleInfo
    qualname: str
    node: ast.AST
    keys: Set[str]
    dynamic: bool  # a **spread or non-constant key was present


def _func_nodes(func: ast.AST) -> Iterator[ast.AST]:
    for stmt in getattr(func, "body", []):
        yield from walk_shallow(stmt)


def _dict_keys(node: ast.Dict) -> Tuple[Set[str], bool]:
    keys: Set[str] = set()
    dynamic = False
    for key in node.keys:
        if key is None:
            dynamic = True  # **spread
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        else:
            dynamic = True
    return keys, dynamic


def _schema_id_of(
    node: ast.Dict, module: ModuleInfo
) -> Optional[str]:
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and key.value == "schema":
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                return value.value
            if isinstance(value, ast.Name):
                constant = module.constants.get(value.id)
                if isinstance(constant, str):
                    return constant
    return None


def _subscript_stores(func: ast.AST, var: str) -> Set[str]:
    keys: Set[str] = set()
    for node in _func_nodes(func):
        if isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == var \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            keys.add(node.slice.value)
    return keys


def discover_sites(project: ProjectModel) -> List[SchemaSite]:
    """Every dict literal with a ``"schema"`` key, across the project."""
    sites: List[SchemaSite] = []
    for module in project.modules.values():
        for info in module.functions.values():
            func = info.node
            for node in _func_nodes(func):
                if not isinstance(node, ast.Dict):
                    continue
                schema_id = _schema_id_of(node, module)
                if schema_id is None:
                    continue
                keys, dynamic = _dict_keys(node)
                sites.append(SchemaSite(
                    schema_id=schema_id, module=module,
                    qualname=info.qualname, node=node,
                    keys=keys, dynamic=dynamic,
                ))
            # var["k"] = ... stores extend the dict the var holds
            for stmt in _func_nodes(func):
                target: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                value = getattr(stmt, "value", None)
                if not isinstance(target, ast.Name) \
                        or not isinstance(value, ast.Dict):
                    continue
                schema_id = _schema_id_of(value, module)
                if schema_id is None:
                    continue
                extra = _subscript_stores(func, target.id)
                for site in sites:
                    if site.node is value:
                        site.keys |= extra
    return sites


def anchored_keys(
    project: ProjectModel, info: FunctionInfo
) -> Tuple[Set[str], bool]:
    """Key set of the dict an anchored function returns."""
    func = info.node
    keys: Set[str] = set()
    dynamic = False
    returned_vars: Set[str] = set()
    for node in _func_nodes(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                got, dyn = _dict_keys(node.value)
                keys |= got
                dynamic = dynamic or dyn
            elif isinstance(node.value, ast.Name):
                returned_vars.add(node.value.id)
    for node in _func_nodes(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in returned_vars \
                and isinstance(node.value, ast.Dict):
            got, dyn = _dict_keys(node.value)
            keys |= got
            dynamic = dynamic or dyn
    for var in returned_vars:
        keys |= _subscript_stores(func, var)
    return keys, dynamic


def load_lock(path: Optional[str]) -> Optional[Dict[str, object]]:
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("format") != LOCK_FORMAT:
        return None
    return doc


def update_schemas_lock(
    project: ProjectModel, lock_path: str
) -> Dict[str, Dict[str, object]]:
    """Regenerate ``lint/schemas.lock`` from the current tree.

    Auto-discovered schemas get their anchor and keys recomputed;
    hand-anchored ``id#part`` entries keep their anchor and get keys
    recomputed from it (entries whose anchor file was not scanned are
    preserved untouched).
    """
    prior = load_lock(lock_path) or {"format": LOCK_FORMAT, "schemas": {}}
    prior_schemas: Dict[str, Dict[str, object]] = dict(
        prior.get("schemas", {})  # type: ignore[arg-type]
    )
    schemas: Dict[str, Dict[str, object]] = {}
    for site in discover_sites(project):
        entry = schemas.setdefault(site.schema_id, {
            "anchor": f"{site.module.relpath}::{site.qualname}",
            "keys": set(),
        })
        entry["keys"] |= site.keys  # type: ignore[operator]
    for schema_id, entry in prior_schemas.items():
        if "#" not in schema_id:
            if schema_id not in schemas:
                # keep entries whose defining file was not scanned
                anchor = str(entry.get("anchor", ""))
                relpath = anchor.split("::", 1)[0]
                if relpath not in project.modules:
                    schemas[schema_id] = dict(entry)
            continue
        anchor = str(entry.get("anchor", ""))
        relpath, _, qualname = anchor.partition("::")
        if relpath not in project.modules:
            schemas[schema_id] = dict(entry)
            continue
        info = project.functions.get(f"{relpath}::{qualname}")
        if info is None:
            continue  # dangling anchor: dropped; SCHEMA01 flags next run
        keys, _dynamic = anchored_keys(project, info)
        schemas[schema_id] = {"anchor": anchor, "keys": keys}
    doc = {
        "format": LOCK_FORMAT,
        "schemas": {
            schema_id: {
                "anchor": entry["anchor"],
                "keys": sorted(entry["keys"]),  # type: ignore[arg-type]
            }
            for schema_id, entry in sorted(schemas.items())
        },
    }
    directory = os.path.dirname(os.path.abspath(lock_path))
    os.makedirs(directory, exist_ok=True)
    with open(lock_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc["schemas"]  # type: ignore[return-value]


def _drift_message(
    schema_id: str, locked: Set[str], current: Set[str]
) -> str:
    added = sorted(current - locked)
    removed = sorted(locked - current)
    parts = []
    if added:
        parts.append(f"added {', '.join(added)}")
    if removed:
        parts.append(f"removed {', '.join(removed)}")
    detail = "; ".join(parts) or "key set changed"
    return (
        f"schema '{schema_id}' drifted from lint/schemas.lock "
        f"({detail}) — bump the schema version or run "
        f"'repro lint --update-schemas'"
    )


class Schema01ReportSchemaLock(ProjectRule):
    """SCHEMA01 — versioned report dict drifted from its lockfile.

    **Failing pattern**: a dict literal carrying a ``"schema"`` version
    key whose key set differs from the entry locked in
    ``lint/schemas.lock`` — or a schema/anchor present in only one of
    tree and lock.

    **Contract**: report consumers (CI smoke validators, analysis
    notebooks) key on field names; the version string is the change
    protocol.  Key drift without a version bump is a silent break.

    **Escape hatch**: bump the version, regenerate the lock with
    ``repro lint --update-schemas``, or per-line
    ``# reprolint: disable=SCHEMA01 -- <why>``.
    """

    code = "SCHEMA01"
    name = "report-schema-lock"

    def check_project(
        self, project: ProjectModel, config: LintConfig
    ) -> Iterator[Diagnostic]:
        lock_path = getattr(config, "schemas_lock", None)
        if not lock_path:
            return  # no lock configured: rule inert (see module doc)
        sites = discover_sites(project)
        lock = load_lock(lock_path)
        if lock is None:
            for site in sites:
                yield self.diagnostic(
                    site.module.path, site.node,
                    f"report schema '{site.schema_id}' has no lockfile "
                    f"entry ({lock_path} missing or unreadable) — run "
                    f"'repro lint --update-schemas'",
                )
            return
        entries: Dict[str, Dict[str, object]] = dict(
            lock.get("schemas", {})  # type: ignore[arg-type]
        )

        by_id: Dict[str, List[SchemaSite]] = {}
        for site in sites:
            by_id.setdefault(site.schema_id, []).append(site)

        for schema_id in sorted(by_id):
            group = by_id[schema_id]
            union_keys: Set[str] = set()
            for site in group:
                union_keys |= site.keys
            for site in group[1:]:
                if site.keys != group[0].keys:
                    yield self.diagnostic(
                        site.module.path, site.node,
                        f"schema '{schema_id}' is built with different "
                        f"key sets at multiple sites (also "
                        f"{group[0].module.relpath}::"
                        f"{group[0].qualname}) — split the version "
                        f"string or unify the builders",
                    )
            entry = entries.get(schema_id)
            first = group[0]
            if entry is None:
                yield self.diagnostic(
                    first.module.path, first.node,
                    f"report schema '{schema_id}' "
                    f"({first.module.relpath}::{first.qualname}) is not "
                    f"locked — run 'repro lint --update-schemas'",
                )
                continue
            locked = set(entry.get("keys", ()))  # type: ignore[arg-type]
            if first.dynamic:
                missing = locked - union_keys
                if missing:
                    yield self.diagnostic(
                        first.module.path, first.node,
                        _drift_message(schema_id, locked, union_keys),
                    )
            elif union_keys != locked:
                yield self.diagnostic(
                    first.module.path, first.node,
                    _drift_message(schema_id, locked, union_keys),
                )

        for schema_id in sorted(entries):
            entry = entries[schema_id]
            anchor = str(entry.get("anchor", ""))
            relpath, _, qualname = anchor.partition("::")
            if relpath not in project.modules:
                continue  # subtree scan: anchor file not in this run
            module = project.modules[relpath]
            if "#" in schema_id:
                info = project.functions.get(f"{relpath}::{qualname}")
                if info is None:
                    yield Diagnostic(
                        path=module.path, line=1, col=1, code=self.code,
                        message=(
                            f"lockfile anchor '{anchor}' for schema "
                            f"'{schema_id}' no longer resolves — fix "
                            f"the anchor or drop the entry"
                        ),
                    )
                    continue
                keys, dynamic = anchored_keys(project, info)
                locked = set(entry.get("keys", ()))  # type: ignore[arg-type]
                if dynamic:
                    if locked - keys:
                        yield self.diagnostic(
                            module.path, info.node,
                            _drift_message(schema_id, locked, keys),
                        )
                elif keys != locked:
                    yield self.diagnostic(
                        module.path, info.node,
                        _drift_message(schema_id, locked, keys),
                    )
            elif schema_id not in by_id:
                yield Diagnostic(
                    path=module.path, line=1, col=1, code=self.code,
                    message=(
                        f"locked schema '{schema_id}' (anchor "
                        f"'{anchor}') no longer appears in the tree — "
                        f"run 'repro lint --update-schemas' to drop it"
                    ),
                )
