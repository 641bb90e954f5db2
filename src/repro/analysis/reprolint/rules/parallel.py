"""PAR01 — shared-state mutation in parallel grid-worker code.

``harness/parallel.py`` promises bit-identical output for every
``--jobs N``: each grid cell is a frozen
:class:`~repro.experiments.campaign.CampaignCell` value and the worker
derives *everything* from it.  That only holds while worker functions
are pure — any write to module-level or closure state is invisible to
sibling processes, differs between ``--jobs 1`` (shared interpreter)
and ``--jobs N`` (forked workers), and silently breaks the
bit-identity the test suite asserts.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.reprolint.diagnostics import Diagnostic
from repro.analysis.reprolint.engine import Rule

#: Methods that mutate their receiver in place.
_MUTATORS = frozenset(
    ("append", "extend", "insert", "remove", "pop", "popitem", "clear",
     "add", "discard", "update", "setdefault", "sort", "reverse",
     "appendleft", "extendleft")
)


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _base_name(node: ast.AST) -> str:
    """Leftmost name of an attribute/subscript chain, or ''."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


class Par01WorkerSharedState(Rule):
    """PAR01 — mutation of module-level or closure state in worker code.

    **Failing pattern**, inside any function of a worker module
    (default scope: ``harness/parallel.py``): a ``global`` or
    ``nonlocal`` declaration; an assignment, augmented assignment, or
    item/attribute store whose base resolves to a module-level binding;
    or an in-place mutator call (``.append``, ``.update``, ...) on a
    module-level name.

    **Contract**: the frozen-cell contract — every worker derives its
    entire state from its frozen cell argument, so scheduling
    order, process count, and fork timing cannot influence results and
    ``--jobs N`` stays bit-identical to ``--jobs 1``.

    **Escape hatch**: ``# reprolint: disable=PAR01 -- <why>`` for
    process-local memoisation that provably cannot alter results.
    """

    code = "PAR01"
    name = "worker-shared-state"

    def check(self, tree, path, source) -> Iterator[Diagnostic]:
        module_names = _module_level_names(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_names = {
                arg.arg
                for arg in (func.args.args + func.args.posonlyargs
                            + func.args.kwonlyargs)
            }
            if func.args.vararg:
                local_names.add(func.args.vararg.arg)
            if func.args.kwarg:
                local_names.add(func.args.kwarg.arg)
            # Plain-name stores inside the function are locals (absent a
            # ``global``, which is flagged on its own) — a local that
            # shadows a module name is not shared state.
            local_names |= {
                node.id
                for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
            }
            for node in ast.walk(func):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    kind = "global" if isinstance(node, ast.Global) else \
                        "nonlocal"
                    yield self.diagnostic(
                        path, node,
                        f"'{kind} {', '.join(node.names)}' in worker "
                        f"function '{func.name}': workers must derive all "
                        f"state from their cell argument",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, (ast.Attribute, ast.Subscript)):
                            base = _base_name(target)
                            if base in module_names \
                                    and base not in local_names:
                                yield self.diagnostic(
                                    path, node,
                                    f"store into module-level '{base}' from "
                                    f"worker function '{func.name}' breaks "
                                    f"the frozen-cell contract",
                                )
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _MUTATORS:
                    base = _base_name(node.func)
                    if base in module_names and base not in local_names:
                        yield self.diagnostic(
                            path, node,
                            f"in-place '{node.func.attr}' on module-level "
                            f"'{base}' from worker function '{func.name}' "
                            f"breaks the frozen-cell contract",
                        )
