"""reprolint v2 self-checks: project model, interprocedural rules,
SARIF output, and the schema lockfile.

Layers mirror ``test_reprolint.py``:

* **project fixture tests** — each interprocedural rule has a
  ``fixtures/project/<code>_bad/`` directory that must produce findings
  of exactly that code, and a ``<code>_good/`` twin that must be clean
  (no vacuous passes: the bad run is asserted non-empty);
* **call-graph units** — import aliasing, re-export chasing, ``self.``
  dispatch, and the method-name fallback (with its weak-evidence flag);
* **SARIF + lockfile** — document structure, drift detection, and the
  shipped ``lint/schemas.lock`` staying in sync with the tree;
* **gate coherence** — the shipped tree is clean under the full
  two-pass run (``lint_project``), not just the per-file pass.
"""

import ast
import json
import os
import shutil
import textwrap

import pytest

from repro.analysis.reprolint import (
    LintConfig,
    all_rules,
    collect_diagnostics,
    default_config,
    lint_project,
    main,
    permissive_config,
)
from repro.analysis.reprolint.project import ProjectModel
from repro.analysis.reprolint.rules.cycles import Cyc02UnbilledCycles
from repro.analysis.reprolint.rules.races import Par02CrossProcessRace
from repro.analysis.reprolint.rules.schema import (
    LOCK_FORMAT,
    Schema01ReportSchemaLock,
    update_schemas_lock,
)
from repro.analysis.reprolint.rules.walcommit import (
    Wal01CommitPointTypestate,
)
from repro.analysis.reprolint.sarif import to_sarif

HERE = os.path.dirname(os.path.abspath(__file__))
PROJECT_FIXTURES = os.path.join(HERE, "fixtures", "project")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

PROJECT_RULES = {
    "CYC02": Cyc02UnbilledCycles,
    "WAL01": Wal01CommitPointTypestate,
    "PAR02": Par02CrossProcessRace,
}


def _lint_dir(name, rule_cls, config=None):
    result = lint_project(
        [os.path.join(PROJECT_FIXTURES, name)],
        [rule_cls()],
        config=config or permissive_config(),
    )
    assert all(r.parse_error is None for r in result.reports)
    return collect_diagnostics(result.reports)


def _model(files, packages=()):
    """Build a ProjectModel straight from ``{relpath: source}``."""
    entries = [
        ("/proj/" + rel, rel, ast.parse(textwrap.dedent(src)), src)
        for rel, src in files.items()
    ]
    return ProjectModel.build(entries, packages=packages)


def _only_call(model, relpath, qualname):
    """The single ast.Call inside one function, plus its module."""
    module = model.modules[relpath]
    info = module.functions[qualname]
    calls = [
        node for node in ast.walk(info.node)
        if isinstance(node, ast.Call)
    ]
    assert len(calls) == 1
    return module, info, calls[0]


# ---------------------------------------------------------------------------
# Project fixtures: each interprocedural rule flags its bad directory
# and stays silent on the good twin.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(PROJECT_RULES))
def test_project_bad_fixture_is_flagged(code):
    diags = _lint_dir(f"{code.lower()}_bad", PROJECT_RULES[code])
    assert diags, f"{code}: bad project fixture produced no findings"
    assert {d.code for d in diags} == {code}
    for diag in diags:
        assert diag.line > 0
        assert diag.message


@pytest.mark.parametrize("code", sorted(PROJECT_RULES))
def test_project_good_fixture_is_clean(code):
    diags = _lint_dir(f"{code.lower()}_good", PROJECT_RULES[code])
    assert diags == [], "\n".join(d.render() for d in diags)


def test_cyc02_flags_both_discard_and_dead_store():
    diags = _lint_dir("cyc02_bad", Cyc02UnbilledCycles)
    messages = "\n".join(d.message for d in diags)
    assert len(diags) == 2
    assert "discarded" in messages
    assert "dead cost store" in messages
    # The discarded call is flagged through the *fixpoint*: derived()
    # has no billing-suffixed name; it is tainted via its return.
    assert "'wasted'" in messages


def test_wal01_flags_mutation_before_event_and_branch_gap():
    diags = _lint_dir("wal01_bad", Wal01CommitPointTypestate)
    assert len(diags) == 2
    assert {d.line for d in diags} == {13, 19}


def test_par02_walks_the_call_graph_past_the_worker():
    diags = _lint_dir("par02_bad", Par02CrossProcessRace)
    assert len(diags) == 1
    # The mutation lives in record(), one hop *past* the submitted
    # worker — the per-file PAR01 cannot see this.
    assert "_RESULTS" in diags[0].message
    assert "worker -> record" in diags[0].message


# ---------------------------------------------------------------------------
# Call-graph construction: aliasing, re-exports, dispatch, fallback.
# ---------------------------------------------------------------------------


def test_resolve_from_import_alias():
    model = _model({
        "mod_a.py": "def f():\n    return 1\n",
        "mod_b.py": "from mod_a import f as g\ndef h():\n    return g()\n",
    })
    module, info, call = _only_call(model, "mod_b.py", "h")
    resolved, fallback = model.resolve_call_detailed(module, call)
    assert [r.key for r in resolved] == ["mod_a.py::f"]
    assert fallback is False


def test_resolve_module_alias_attribute_call():
    model = _model({
        "mod_a.py": "def f():\n    return 1\n",
        "mod_b.py": (
            "import pkg.mod_a as ma\ndef h():\n    return ma.f()\n"
        ),
    }, packages=("pkg",))
    module, info, call = _only_call(model, "mod_b.py", "h")
    resolved, fallback = model.resolve_call_detailed(module, call)
    assert [r.key for r in resolved] == ["mod_a.py::f"]
    assert fallback is False


def test_resolve_chases_package_reexport():
    model = _model({
        "sub/__init__.py": "from sub.impl import f\n",
        "sub/impl.py": "def f():\n    return 2\n",
        "main.py": "from sub import f\ndef h():\n    return f()\n",
    })
    module, info, call = _only_call(model, "main.py", "h")
    resolved, fallback = model.resolve_call_detailed(module, call)
    assert [r.key for r in resolved] == ["sub/impl.py::f"]
    assert fallback is False


def test_resolve_self_method_dispatch():
    model = _model({
        "mod.py": (
            "class C:\n"
            "    def m(self):\n"
            "        return 1\n"
            "    def caller(self):\n"
            "        return self.m()\n"
        ),
    })
    module, info, call = _only_call(model, "mod.py", "C.caller")
    resolved, fallback = model.resolve_call_detailed(
        module, call, class_name=info.class_name
    )
    assert [r.key for r in resolved] == ["mod.py::C.m"]
    assert fallback is False


def test_method_name_fallback_is_flagged_as_weak():
    model = _model({
        "a.py": "class A:\n    def run(self):\n        return 1\n",
        "b.py": "class B:\n    def run(self):\n        return 2\n",
        "c.py": "def h(obj):\n    return obj.run()\n",
    })
    module, info, call = _only_call(model, "c.py", "h")
    resolved, fallback = model.resolve_call_detailed(module, call)
    assert sorted(r.key for r in resolved) == [
        "a.py::A.run", "b.py::B.run",
    ]
    assert fallback is True


def test_cyc02_fallback_requires_unanimous_candidates(tmp_path):
    """A mixed fallback set (some cost, some not) must not be flagged."""
    proj = tmp_path / "mixed"
    proj.mkdir()
    (proj / "a.py").write_text(
        "class Meter:\n"
        "    def run(self):\n"
        "        return 10  # plain value, but see b.py\n"
    )
    (proj / "b.py").write_text(
        "class Biller:\n"
        "    def run(self):\n"
        "        return self.batch_cycles\n"
    )
    (proj / "c.py").write_text(
        "def go(obj):\n"
        "    obj.run()\n"  # fallback -> {Meter.run, Biller.run}: mixed
        "    return None\n"
    )
    diags = collect_diagnostics(lint_project(
        [str(proj)], [Cyc02UnbilledCycles()], config=permissive_config()
    ).reports)
    assert diags == [], "\n".join(d.render() for d in diags)


# ---------------------------------------------------------------------------
# SARIF output.
# ---------------------------------------------------------------------------


def _copy_fixture_project(name, dest):
    shutil.copytree(os.path.join(PROJECT_FIXTURES, name), str(dest))


def test_sarif_document_structure(tmp_path):
    proj = tmp_path / "proj"
    _copy_fixture_project("cyc02_bad", proj)
    result = lint_project(
        [str(proj)], [Cyc02UnbilledCycles()], config=permissive_config()
    )
    rules = all_rules()
    doc = to_sarif(
        collect_diagnostics(result.reports), rules, base_dir=str(tmp_path)
    )
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-2.1.0.json")
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    assert {r["id"] for r in driver["rules"]} >= {
        "CYC02", "WAL01", "PAR02", "SCHEMA01", "DET01",
    }
    assert run["results"], "expected findings in the SARIF results"
    for res in run["results"]:
        assert res["ruleId"] == "CYC02"
        assert res["message"]["text"]
        (loc,) = res["locations"]
        phys = loc["physicalLocation"]
        assert phys["artifactLocation"]["uri"] == "proj/engine.py"
        assert phys["region"]["startLine"] > 0
        assert phys["region"]["startColumn"] > 0


def test_main_writes_sarif(tmp_path):
    proj = tmp_path / "proj"
    _copy_fixture_project("cyc02_bad", proj)
    out = tmp_path / "findings.sarif"
    # main runs the shipped config, whose CYC02 scope names package
    # directories this fixture lacks: the run may be clean, so assert
    # only that the file parses.
    rc = main([str(proj)], sarif_out=str(out))
    assert os.path.exists(out)
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert rc in (0, 1)


# ---------------------------------------------------------------------------
# SCHEMA01 lockfiles.
# ---------------------------------------------------------------------------


def _schema_config(lock_path):
    return LintConfig(scopes={}, schemas_lock=str(lock_path))


def _schema_project():
    return lint_project(
        [os.path.join(PROJECT_FIXTURES, "schema01")], [],
        config=permissive_config(),
    ).project


def test_schema01_inert_without_lock_configured():
    diags = _lint_dir("schema01", Schema01ReportSchemaLock)
    assert diags == []


def test_schema01_missing_lockfile_is_flagged(tmp_path):
    diags = _lint_dir(
        "schema01", Schema01ReportSchemaLock,
        config=_schema_config(tmp_path / "none.lock"),
    )
    assert len(diags) == 1
    assert "no lockfile entry" in diags[0].message


def test_update_schemas_lock_then_clean(tmp_path):
    lock = tmp_path / "schemas.lock"
    schemas = update_schemas_lock(_schema_project(), str(lock))
    assert schemas["test-report/v1"]["keys"] == [
        "n_rows", "rows", "schema", "total",
    ]
    diags = _lint_dir(
        "schema01", Schema01ReportSchemaLock, config=_schema_config(lock)
    )
    assert diags == [], "\n".join(d.render() for d in diags)


def test_schema01_detects_key_drift(tmp_path):
    lock = tmp_path / "schemas.lock"
    update_schemas_lock(_schema_project(), str(lock))
    doc = json.loads(lock.read_text())
    doc["schemas"]["test-report/v1"]["keys"] = [
        "n_rows", "rows", "schema", "grand_total",
    ]
    lock.write_text(json.dumps(doc))
    diags = _lint_dir(
        "schema01", Schema01ReportSchemaLock, config=_schema_config(lock)
    )
    assert len(diags) == 1
    assert "drifted" in diags[0].message
    assert "added total" in diags[0].message
    assert "removed grand_total" in diags[0].message


def test_schema01_anchored_subschema_drift(tmp_path):
    lock = tmp_path / "schemas.lock"
    update_schemas_lock(_schema_project(), str(lock))
    doc = json.loads(lock.read_text())
    doc["schemas"]["test-report/v1#row"] = {
        "anchor": "report.py::Row.to_dict",
        "keys": ["a", "b", "c"],  # tree only builds a, b
    }
    lock.write_text(json.dumps(doc))
    diags = _lint_dir(
        "schema01", Schema01ReportSchemaLock, config=_schema_config(lock)
    )
    assert len(diags) == 1
    assert "test-report/v1#row" in diags[0].message
    assert "removed c" in diags[0].message

    # --update-schemas recomputes the anchored keys and settles it.
    schemas = update_schemas_lock(_schema_project(), str(lock))
    assert schemas["test-report/v1#row"]["keys"] == ["a", "b"]
    diags = _lint_dir(
        "schema01", Schema01ReportSchemaLock, config=_schema_config(lock)
    )
    assert diags == []


def test_schema01_stale_locked_schema(tmp_path):
    lock = tmp_path / "schemas.lock"
    update_schemas_lock(_schema_project(), str(lock))
    doc = json.loads(lock.read_text())
    doc["schemas"]["gone-report/v1"] = {
        "anchor": "report.py::build_report", "keys": ["x"],
    }
    lock.write_text(json.dumps(doc))
    diags = _lint_dir(
        "schema01", Schema01ReportSchemaLock, config=_schema_config(lock)
    )
    assert len(diags) == 1
    assert "no longer appears" in diags[0].message


def test_shipped_schemas_lock_matches_tree(tmp_path):
    """Regenerating the shipped lock must be a no-op (no silent drift)."""
    shipped = os.path.join(REPO_ROOT, "lint", "schemas.lock")
    with open(shipped, "r", encoding="utf-8") as handle:
        before = json.load(handle)
    assert before["format"] == LOCK_FORMAT
    work = tmp_path / "schemas.lock"
    shutil.copyfile(shipped, str(work))
    project = lint_project([SRC_ROOT], [], config=default_config()).project
    update_schemas_lock(project, str(work))
    after = json.loads(work.read_text())
    assert after == before
    for schema_id in ("serve-sweep/v1", "cluster-run/v1",
                      "serve-sweep/v1#row", "cluster-run/v1#failover",
                      "trace-export/v2"):
        assert schema_id in after["schemas"], schema_id


# ---------------------------------------------------------------------------
# Gate coherence: the full two-pass run is clean on the shipped tree.
# ---------------------------------------------------------------------------


def test_shipped_tree_clean_under_project_rules():
    result = lint_project([SRC_ROOT], all_rules(), config=default_config())
    diags = collect_diagnostics(result.reports)
    errors = [r.parse_error for r in result.reports if r.parse_error]
    assert errors == []
    assert diags == [], "\n".join(d.render() for d in diags)
    assert result.files_scanned > 100
    assert result.project is not None


def test_main_list_rules_includes_project_rules(capsys):
    assert main([], list_rules=True) == 0
    out = capsys.readouterr().out
    for code in ("CYC02", "WAL01", "PAR02", "SCHEMA01"):
        assert code in out
