"""Seeded-mutation self-tests: each interprocedural analysis must catch
a violation injected into the *real* tree.

The shipped tree is clean under ``repro lint``, which leaves the gate
open to a vacuous-pass failure mode: an analysis that silently stopped
matching anything would still report "clean".  The fixture pairs in
``test_reprolint_project.py`` guard against that with synthetic
modules; these tests close the loop against the production code
itself.  Each test copies ``src/repro`` to a scratch tree, applies a
one-line mutation of exactly the kind the rule exists to catch —

* CYC02 — discard the billed return of a ``model/costs.py`` call;
* WAL01 — advance the committed-op ledger before any WAL event;
* PAR02 — append to a module global from a pool-worker root;
* SCHEMA01 — rename a locked key of the serve-sweep/v1 report

— and asserts the two-pass run flags the mutated file with the
expected code (and nothing before mutation: the unmutated copy is
linted clean first, which also warms the verdict cache so the four
mutated runs only re-parse the single edited file).

The mutations are *textual* against unique source lines: if the real
module drifts so a target line disappears, the test fails loudly at
the mutation step instead of silently testing nothing.
"""

import contextlib
import os
import shutil

import pytest

from repro.analysis.reprolint import (
    all_rules,
    collect_diagnostics,
    lint_project,
    load_config,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
PYPROJECT = os.path.join(REPO_ROOT, "pyproject.toml")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A scratch copy of the real tree plus a shared verdict cache."""
    base = tmp_path_factory.mktemp("mutation")
    tree = base / "repro"
    shutil.copytree(
        SRC_ROOT, tree, ignore=shutil.ignore_patterns("__pycache__")
    )
    return {"tree": str(tree), "cache": str(base / "cache.json")}


def _lint(scratch):
    result = lint_project(
        [scratch["tree"]],
        all_rules(),
        config=load_config(PYPROJECT),
        cache_path=scratch["cache"],
    )
    assert all(r.parse_error is None for r in result.reports)
    return collect_diagnostics(result.reports)


@contextlib.contextmanager
def mutated(scratch, rel, old, new):
    """Apply a one-line textual mutation to the scratch copy, restore after.

    ``old`` must appear exactly once — a drifted target line fails here
    rather than producing a mutation-free (vacuous) run.
    """
    path = os.path.join(scratch["tree"], rel)
    with open(path, "r", encoding="utf-8") as handle:
        original = handle.read()
    assert original.count(old) == 1, f"mutation target drifted in {rel}: {old!r}"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original.replace(old, new))
        yield
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original)


def _findings(scratch, code, rel):
    diags = _lint(scratch)
    hits = [d for d in diags if d.code == code]
    assert hits, (
        f"{code} missed the injected violation in {rel}:\n"
        + "\n".join(d.render() for d in diags)
    )
    assert all(d.path.endswith(rel) for d in hits), [d.render() for d in hits]
    return hits


def test_unmutated_copy_is_clean(scratch):
    # The baseline the mutations perturb: the copied tree, linted with
    # the shipped config and lockfile, has zero findings.
    diags = _lint(scratch)
    assert diags == [], "\n".join(d.render() for d in diags)


def test_cyc02_catches_discarded_route_billing(scratch):
    # Neuter the cluster route bill: the costs.route_batch_cycles()
    # return is computed but never flows to a billing sink.
    with mutated(
        scratch,
        os.path.join("cluster", "coordinator.py"),
        "        route_cycles = costs.route_batch_cycles(len(ids))",
        "        costs.route_batch_cycles(len(ids))",
    ):
        hits = _findings(scratch, "CYC02", "coordinator.py")
        assert any("route_batch_cycles" in d.message for d in hits)


def test_wal01_catches_ledger_advance_before_wal(scratch):
    # Advance ops_logged before wal.begin_batch(): on a crash between
    # the two, the ledger claims ops the WAL never saw.  The mutation
    # sits before *any* WAL event, so no dominator can excuse it.
    with mutated(
        scratch,
        os.path.join("durability", "manager.py"),
        "        wal.begin_batch(batch_index)",
        "        self.ops_logged += len(mutating)\n"
        "        wal.begin_batch(batch_index)",
    ):
        hits = _findings(scratch, "WAL01", "manager.py")
        # Only the injected write fires; the legitimate post-commit
        # ledger advance stays dominated and clean.
        assert len(hits) == 1, [d.render() for d in hits]
        assert "ops_logged" in hits[0].message


def test_par02_catches_worker_global_append(scratch):
    # run_campaign_cell is a worker root (the ``worker=run_campaign_cell``
    # parameter default of run_campaign feeds pool.submit); a
    # module-global append inside it is cross-process state that
    # silently diverges under --jobs N.
    signature = (
        "def run_campaign_cell(\n"
        "    cell: CampaignCell, *, collect_metrics: bool = False\n"
        ") -> Dict[str, object]:"
    )
    with mutated(
        scratch,
        os.path.join("experiments", "campaign.py"),
        signature,
        "_CELL_LOG = []\n"
        "\n"
        "\n"
        + signature
        + "\n    _CELL_LOG.append(cell.label())",
    ):
        hits = _findings(scratch, "PAR02", "campaign.py")
        assert any(
            "_CELL_LOG" in d.message and "run_campaign_cell" in d.message
            for d in hits
        ), [d.render() for d in hits]


def test_schema01_catches_renamed_report_key(scratch):
    # Rename a locked serve-sweep/v1 key: the report drifts from
    # lint/schemas.lock without a lockfile update to document it.
    with mutated(
        scratch,
        os.path.join("serve", "simulator.py"),
        '        "knee_load": knee_load,',
        '        "knee_loadx": knee_load,',
    ):
        hits = _findings(scratch, "SCHEMA01", "simulator.py")
        assert any("serve-sweep/v1" in d.message for d in hits)


def test_restored_copy_is_clean_again(scratch):
    # Every mutation context restored its file: the scratch tree is
    # byte-identical to the baseline and lints clean from cache.
    diags = _lint(scratch)
    assert diags == [], "\n".join(d.render() for d in diags)
