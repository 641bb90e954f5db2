"""reprolint configuration: where each rule applies.

Every rule carries a *scope*: which files (relative to the scanned
package root) it applies to.  :data:`RULE_SCOPES` is the one statement
of this repo's contracts — which directories are simulated paths, where
wall-clock reads are sanctioned, where the cost model lives — and
:func:`default_config` (those scopes plus the SCHEMA01 lockfile) is
exactly what ``repro lint`` runs.

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
from typing import Dict, Optional, Sequence


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


#: The packages whose results must be deterministic: simulated paths,
#: the harness and the campaign platform.
_SIMULATED = (
    "core/", "art/", "engines/", "workloads/", "faults/", "harness/",
    "durability/", "concurrency/", "memsim/", "serve/", "cluster/",
    "experiments/",
)

#: Every package that bills a cost.
_BILLING = (
    "core/", "engines/", "faults/", "durability/", "harness/", "model/",
    "serve/", "cluster/", "memsim/", "concurrency/",
)

#: Each rule's scope.
RULE_SCOPES: Dict[str, RuleScope] = {
    # Seeded-RNG-only contract: the golden determinism test and
    # bit-identical --jobs N sweeps require every draw to flow from a
    # harness-threaded seed.
    "DET01": RuleScope(include=_SIMULATED),
    # Wall-clock reads are sanctioned only for host-side stamps and log
    # timestamps.
    "DET02": RuleScope(exclude=("harness/benchmarking.py", "log.py")),
    # Set iteration order is process-dependent; ordered consumption must
    # go through sorted().
    "DET03": RuleScope(include=_SIMULATED),
    # All cycle/latency billing flows through the calibrated constants
    # of model/costs.py.
    "COST01": RuleScope(include=_BILLING, exclude=("model/costs.py",)),
    # Frozen-cell contract for parallel sweep workers.
    "PAR01": RuleScope(include=("harness/parallel.py", "cluster/")),
    # fsync-before-atomic-rename (or append+sync) for every durable
    # write.  harness/benchmarking.py is in scope because
    # BENCH_speed.json is an append-only trajectory whose torn states
    # would lose every recorded comparison; experiments/store.py rides
    # on SQLite's own journaled atomicity instead of this protocol.
    "DUR01": RuleScope(include=("durability/", "harness/benchmarking.py")),
    # Interprocedural rules.  These analyze the whole scanned tree
    # regardless of scope; the scope decides where their *diagnostics*
    # may land.
    # Cost terms must reach a billing sink.
    "CYC02": RuleScope(include=_BILLING, exclude=("model/costs.py",)),
    # Commit-point typestate: the committed-state ledger trails the WAL.
    "WAL01": RuleScope(include=("durability/", "cluster/replication.py")),
    # Call-graph race detection from every process-pool worker root;
    # logging configuration is an explicit process-local side channel
    # (PAR01's carve-out) and never feeds results.
    "PAR02": RuleScope(exclude=("log.py",)),
    # Versioned report dicts are locked in lint/schemas.lock.
    "SCHEMA01": RuleScope(),
}

#: The SCHEMA01 lockfile of this checkout: ``lint/schemas.lock`` beside
#: ``src/`` (this module is ``src/repro/analysis/reprolint/config.py``).
SCHEMAS_LOCK = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, os.pardir, os.pardir, os.pardir, "lint", "schemas.lock",
))


@dataclass(frozen=True)
class LintConfig:
    """Full analyzer configuration."""

    scopes: Dict[str, RuleScope] = field(default_factory=dict)
    #: Absolute path of the SCHEMA01 lockfile; None leaves SCHEMA01
    #: inert.
    schemas_lock: Optional[str] = None

    def scope_for(self, code: str) -> RuleScope:
        return self.scopes.get(code, RuleScope())


def _matches_any(relpath: str, entries: Sequence[str]) -> bool:
    for entry in entries:
        if entry.endswith("/"):
            if relpath.startswith(entry) or ("/" + entry) in ("/" + relpath):
                return True
        elif relpath == entry or relpath.endswith("/" + entry):
            return True
    return False


def default_config() -> LintConfig:
    """The shipped scoping and lockfile: what ``repro lint`` runs."""
    return LintConfig(scopes=dict(RULE_SCOPES), schemas_lock=SCHEMAS_LOCK)


def permissive_config() -> LintConfig:
    """Every rule applies to every file — used by the fixture tests."""
    return LintConfig()
