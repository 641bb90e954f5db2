"""reprolint: AST-based determinism & invariant analyzer for this repo.

Machine-checks the source-level contracts the reproduction's guarantees
rest on (see ``docs/STATIC_ANALYSIS.md``):

============  =========================================================
``DET01``     unseeded / global-state randomness in simulated paths
``DET02``     wall-clock reads outside benchmarking.py / log.py
``DET03``     set iteration feeding ordering-sensitive sinks
``COST01``    raw cycle literals outside model/costs.py
``PAR01``     shared-state mutation in parallel-sweep worker code
``DUR01``     durable writes missing fsync-before-atomic-rename
``CYC02``     cost quantity computed but never billed (interprocedural)
``WAL01``     committed-state mutation not dominated by its WAL event
``PAR02``     shared-state mutation reachable from a pool worker
``SCHEMA01``  versioned report dict drifted from lint/schemas.lock
``LINT00``    malformed disable pragma (meta-rule)
============  =========================================================

The last four are *project-wide* (reprolint v2): pass 1 builds a
symbol table, import graph, and approximate call graph over the whole
scanned tree; pass 2 runs the interprocedural rules on top.  ``--sarif``
also writes the findings as SARIF 2.1.0.

Run it as ``python -m repro lint`` (or programmatically via
:func:`lint_project` / :func:`lint_source`).  Where each rule applies
is stated once, in :mod:`repro.analysis.reprolint.config`; per-line
suppressions use ``# reprolint: disable=CODE -- just.``.
"""

from __future__ import annotations

from repro.analysis.reprolint.config import (
    LintConfig,
    RuleScope,
    default_config,
    permissive_config,
)
from repro.analysis.reprolint.diagnostics import Diagnostic
from repro.analysis.reprolint.engine import (
    ENGINE_VERSION,
    META_CODE,
    FileReport,
    ProjectLintResult,
    ProjectRule,
    Rule,
    collect_diagnostics,
    lint_project,
    lint_source,
)
from repro.analysis.reprolint.rules import ALL_RULE_CLASSES, all_rules

__all__ = [
    "ALL_RULE_CLASSES",
    "Diagnostic",
    "ENGINE_VERSION",
    "FileReport",
    "LintConfig",
    "META_CODE",
    "ProjectLintResult",
    "ProjectRule",
    "Rule",
    "RuleScope",
    "all_rules",
    "collect_diagnostics",
    "default_config",
    "lint_project",
    "lint_source",
    "main",
    "permissive_config",
]


def main(
    paths,
    json_out=None,
    list_rules=False,
    sarif_out=None,
    update_schemas=False,
) -> int:
    """Entry point behind ``repro lint``; returns the process exit code.

    0 = clean, 1 = findings, 2 = a file failed to parse/read.

    ``sarif_out`` additionally writes SARIF 2.1.0; ``update_schemas``
    regenerates the SCHEMA01 lockfile from the current tree before
    linting.
    """
    import json as _json
    import os as _os
    import sys

    rules = all_rules()
    if list_rules:
        for rule in rules:
            doc = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.code}  {rule.name}: {doc}")
        return 0

    config = default_config()

    if update_schemas:
        from repro.analysis.reprolint.rules.schema import (
            update_schemas_lock,
        )

        pre = lint_project(paths, [], config=config)
        schemas = update_schemas_lock(pre.project, config.schemas_lock)
        print(
            f"reprolint: locked {len(schemas)} schema(s) in "
            f"{config.schemas_lock}",
            file=sys.stderr,
        )

    result = lint_project(paths, rules, config=config)
    reports = result.reports
    diagnostics = collect_diagnostics(reports)
    errors = [r.parse_error for r in reports if r.parse_error]

    if sarif_out is not None:
        from repro.analysis.reprolint.sarif import write_sarif

        write_sarif(
            sarif_out, diagnostics, rules, base_dir=_os.getcwd()
        )

    if json_out is not None:
        payload = {
            "files_scanned": result.files_scanned,
            "findings": [d.to_dict() for d in diagnostics],
            "errors": errors,
        }
        text = _json.dumps(payload, indent=1)
        if json_out == "-":
            print(text)
        else:
            with open(json_out, "w") as handle:
                handle.write(text + "\n")
    else:
        for diag in diagnostics:
            print(diag.render())
        for error in errors:
            print(error, file=sys.stderr)

    if errors:
        return 2
    if diagnostics:
        print(
            f"reprolint: {len(diagnostics)} finding(s) in "
            f"{len(reports)} file(s)",
            file=sys.stderr,
        )
        return 1
    if json_out is None:
        print(f"reprolint: {len(reports)} file(s) clean")
    return 0
