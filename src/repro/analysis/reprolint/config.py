"""reprolint configuration: rule scoping, loaded from ``pyproject.toml``.

Every rule carries a *scope*: which files (relative to the scanned
package root) it applies to.  The built-in defaults encode this repo's
actual contracts — which directories are simulated paths, where
wall-clock reads are sanctioned, where the cost model lives — and
``[tool.reprolint]`` in ``pyproject.toml`` can override them without
touching code.

Path entries are matched against the POSIX-style path of each file
relative to the scanned root (e.g. ``core/sou.py`` when scanning
``src/repro``):

* an entry ending in ``/`` matches every file under that directory;
* any other entry matches a file whose relative path equals it or ends
  with ``/`` + entry (so ``log.py`` matches the top-level module);
* an empty ``include`` list means *match every scanned file*.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: The rule scoping shipped with the repo.  Mirrored (and overridable)
#: in ``[tool.reprolint.rules]`` of pyproject.toml.
DEFAULT_RULE_SCOPES: Dict[str, Dict[str, List[str]]] = {
    "DET01": {
        "include": [
            "core/", "art/", "engines/", "workloads/", "faults/",
            "harness/", "durability/", "concurrency/", "memsim/",
            "serve/", "cluster/",
        ],
        "exclude": [],
    },
    "DET02": {
        "include": [],
        "exclude": ["harness/benchmarking.py", "log.py"],
    },
    "DET03": {
        "include": [
            "core/", "art/", "engines/", "workloads/", "faults/",
            "harness/", "durability/", "concurrency/", "memsim/",
            "serve/", "cluster/",
        ],
        "exclude": [],
    },
    "COST01": {
        "include": [
            "core/", "engines/", "faults/", "durability/", "harness/",
            "model/", "serve/", "cluster/",
        ],
        "exclude": ["model/costs.py"],
    },
    "PAR01": {
        "include": ["harness/parallel.py", "cluster/"],
        "exclude": [],
    },
    "DUR01": {
        "include": ["durability/"],
        "exclude": [],
    },
    # Interprocedural rules (reprolint v2).  These analyze the whole
    # scanned tree regardless of scope; the scope decides where their
    # *diagnostics* may land.
    "CYC02": {
        "include": [
            "core/", "engines/", "faults/", "durability/", "harness/",
            "model/", "serve/", "cluster/", "memsim/", "concurrency/",
        ],
        "exclude": ["model/costs.py"],
    },
    "WAL01": {
        "include": ["durability/", "cluster/replication.py"],
        "exclude": [],
    },
    "PAR02": {
        "include": [],
        # logging configuration is an explicit process-local side
        # channel (PAR01's carve-out) and never feeds results
        "exclude": ["log.py"],
    },
    "SCHEMA01": {
        "include": [],
        "exclude": [],
    },
}

#: Files never scanned, regardless of rule scope.
DEFAULT_EXCLUDE: List[str] = []


@dataclass(frozen=True)
class RuleScope:
    """Which files one rule applies to."""

    include: Sequence[str] = ()
    exclude: Sequence[str] = ()

    def matches(self, relpath: str) -> bool:
        if _matches_any(relpath, self.exclude):
            return False
        if not self.include:
            return True
        return _matches_any(relpath, self.include)


@dataclass(frozen=True)
class LintConfig:
    """Full analyzer configuration."""

    scopes: Dict[str, RuleScope] = field(default_factory=dict)
    exclude: Sequence[str] = ()
    disabled_rules: Sequence[str] = ()
    #: Absolute path of the SCHEMA01 lockfile; None leaves SCHEMA01
    #: inert (set via ``[tool.reprolint] schemas-lock`` in pyproject).
    schemas_lock: Optional[str] = None

    def scope_for(self, code: str) -> RuleScope:
        return self.scopes.get(code, RuleScope())

    def rule_enabled(self, code: str) -> bool:
        return code not in self.disabled_rules


def _matches_any(relpath: str, entries: Sequence[str]) -> bool:
    for entry in entries:
        if entry.endswith("/"):
            if relpath.startswith(entry) or ("/" + entry) in ("/" + relpath):
                return True
        elif relpath == entry or relpath.endswith("/" + entry):
            return True
    return False


def default_config() -> LintConfig:
    """The built-in scoping (used when pyproject has no override)."""
    return LintConfig(
        scopes={
            code: RuleScope(
                include=tuple(scope["include"]),
                exclude=tuple(scope["exclude"]),
            )
            for code, scope in DEFAULT_RULE_SCOPES.items()
        },
        exclude=tuple(DEFAULT_EXCLUDE),
    )


def permissive_config() -> LintConfig:
    """Every rule applies to every file — used by the fixture tests."""
    return LintConfig(scopes={}, exclude=())


def load_config(pyproject_path: Optional[str] = None) -> LintConfig:
    """Load ``[tool.reprolint]`` from pyproject, merged over defaults.

    Missing file, missing section, or a Python without a TOML parser
    (< 3.11 and no ``tomli``) all fall back to the built-in defaults, so
    the analyzer always runs.
    """
    if pyproject_path is None:
        return default_config()
    try:
        import tomllib  # Python >= 3.11
    except ImportError:  # pragma: no cover - 3.9/3.10 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return default_config()
    try:
        with open(pyproject_path, "rb") as handle:
            doc = tomllib.load(handle)
    except (OSError, ValueError):
        return default_config()
    section = doc.get("tool", {}).get("reprolint")
    if not isinstance(section, dict):
        return default_config()

    base = default_config()
    scopes = dict(base.scopes)
    rules = section.get("rules", {})
    if isinstance(rules, dict):
        for code, entry in rules.items():
            if not isinstance(entry, dict):
                continue
            prior = scopes.get(code, RuleScope())
            scopes[code] = RuleScope(
                include=tuple(entry.get("include", prior.include)),
                exclude=tuple(entry.get("exclude", prior.exclude)),
            )
    schemas_lock = section.get("schemas-lock") or section.get(
        "schemas_lock"
    )
    if isinstance(schemas_lock, str):
        root = os.path.dirname(os.path.abspath(pyproject_path))
        schemas_lock = os.path.normpath(os.path.join(root, schemas_lock))
    else:
        schemas_lock = None
    return LintConfig(
        scopes=scopes,
        exclude=tuple(section.get("exclude", base.exclude)),
        disabled_rules=tuple(section.get("disable", ())),
        schemas_lock=schemas_lock,
    )
