"""reprolint self-checks: fixtures, pragmas, scoping, CLI, and the ratchet.

Three layers:

* **fixture tests** — every rule family has a ``<code>_bad.py`` fixture
  that must produce at least one finding of exactly that code, and a
  ``<code>_good.py`` fixture that must be clean under the same rule;
* **engine tests** — pragma grammar (justified suppression, LINT00 for
  malformed disables), default scoping (sanctioned files excluded), and
  the CLI exit-code contract (0 clean / 1 findings / 2 parse error);
* **gate coherence** — the shipped tree is clean under the shipped
  config (both passes), and the mypy strict ratchet file stays in sync
  with the strict override in pyproject.toml.
"""

import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis.reprolint import (
    META_CODE,
    all_rules,
    collect_diagnostics,
    default_config,
    lint_project,
    lint_source,
    main,
    permissive_config,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
PYPROJECT = os.path.join(REPO_ROOT, "pyproject.toml")

RULE_CODES = ("DET01", "DET02", "DET03", "COST01", "PAR01", "DUR01")


def _read_fixture(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as handle:
        return handle.read()


def _rule(code):
    (rule,) = [r for r in all_rules() if r.code == code]
    return rule


def _lint_fixture(name, code):
    """Lint one fixture with a single rule, every scope wide open."""
    source = _read_fixture(name)
    return lint_source(
        source, name, [_rule(code)], relpath=name, config=permissive_config()
    )


# ---------------------------------------------------------------------------
# Fixtures: one failing and one passing example per rule family.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", RULE_CODES)
def test_bad_fixture_is_flagged(code):
    report = _lint_fixture(f"{code.lower()}_bad.py", code)
    assert report.parse_error is None
    assert report.diagnostics, f"{code}: bad fixture produced no findings"
    assert {d.code for d in report.diagnostics} == {code}
    for diag in report.diagnostics:
        assert diag.line > 0
        assert diag.message


@pytest.mark.parametrize("code", RULE_CODES)
def test_good_fixture_is_clean(code):
    report = _lint_fixture(f"{code.lower()}_good.py", code)
    assert report.parse_error is None
    assert report.diagnostics == [], (
        f"{code}: good fixture flagged: "
        + "; ".join(d.render() for d in report.diagnostics)
    )


def test_bad_fixtures_hit_every_listed_pattern():
    """Spot-check that the bad fixtures cover the documented patterns."""
    det01 = _lint_fixture("det01_bad.py", "DET01").diagnostics
    assert len(det01) >= 4  # import, global call, np legacy, unseeded ctor
    dur01 = _lint_fixture("dur01_bad.py", "DUR01").diagnostics
    assert len(dur01) == 2  # truncating open, rename without fsync


# ---------------------------------------------------------------------------
# Pragmas: justified suppressions work; malformed ones are LINT00.
# ---------------------------------------------------------------------------


def test_justified_pragma_suppresses_finding():
    source = _read_fixture("pragma_good.py")
    report = lint_source(
        source, "pragma_good.py", all_rules(), relpath="pragma_good.py",
        config=permissive_config(),
    )
    assert report.diagnostics == [], [d.render() for d in report.diagnostics]


def test_bare_pragma_is_lint00_and_does_not_suppress():
    source = _read_fixture("pragma_bad.py")
    report = lint_source(
        source, "pragma_bad.py", all_rules(), relpath="pragma_bad.py",
        config=permissive_config(),
    )
    codes = [d.code for d in report.diagnostics]
    # Two malformed pragmas -> two meta findings ...
    assert codes.count(META_CODE) == 2
    # ... and neither suppressed the underlying DET02 finding.
    assert codes.count("DET02") == 2


def test_pragma_inside_string_is_ignored():
    source = 'TEXT = "# reprolint: disable=DET02"\n'
    report = lint_source(
        source, "s.py", all_rules(), relpath="s.py", config=permissive_config()
    )
    assert report.diagnostics == []


def test_multi_code_pragma():
    source = (
        "import time\n"
        "def f(addresses):\n"
        "    return [time.time() for _ in set(addresses)]"
        "  # reprolint: disable=DET02,DET03 -- host-side diagnostic dump\n"
    )
    report = lint_source(
        source, "m.py", all_rules(), relpath="m.py", config=permissive_config()
    )
    assert report.diagnostics == [], [d.render() for d in report.diagnostics]


# ---------------------------------------------------------------------------
# Scoping: the shipped config sanctions exactly the documented files.
# ---------------------------------------------------------------------------


def test_default_scope_sanctions_benchmarking_and_log():
    config = default_config()
    scope = config.scope_for("DET02")
    assert not scope.matches("harness/benchmarking.py")
    assert not scope.matches("log.py")
    assert scope.matches("obs/trace.py")
    assert scope.matches("core/sou.py")
    assert scope.matches("anything/else.py")


def test_default_scope_limits_par01_to_parallel_workers():
    scope = default_config().scope_for("PAR01")
    assert scope.matches("harness/parallel.py")
    assert not scope.matches("harness/experiments.py")


def test_cost01_exempts_the_cost_model_itself():
    scope = default_config().scope_for("COST01")
    assert not scope.matches("model/costs.py")
    assert scope.matches("model/analytic.py")
    assert scope.matches("core/sou.py")


# ---------------------------------------------------------------------------
# The gate itself: the shipped tree is clean, and the CLI exit codes hold.
# ---------------------------------------------------------------------------


def test_shipped_tree_is_clean():
    reports = lint_project(
        [SRC_ROOT], all_rules(), config=default_config()
    ).reports
    diagnostics = collect_diagnostics(reports)
    errors = [r.parse_error for r in reports if r.parse_error]
    assert errors == []
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)
    assert len(reports) > 50  # sanity: the walk actually scanned the tree


def test_main_exit_zero_on_clean_tree(capsys):
    assert main([SRC_ROOT]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_main_exit_one_with_file_line_diagnostics(capsys):
    # DET02's default include is empty (matches everything), so the bad
    # wall-clock fixture trips even under the default scoping.
    path = os.path.join(FIXTURES, "det02_bad.py")
    assert main([path]) == 1
    captured = capsys.readouterr()
    assert "det02_bad.py:" in captured.out  # file:line:col diagnostics
    assert "DET02" in captured.out


def test_main_exit_two_on_syntax_error(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    assert main([str(bad)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_main_json_output(tmp_path, capsys):
    out_file = tmp_path / "findings.json"
    rc = main([os.path.join(FIXTURES, "det02_bad.py")], json_out=str(out_file))
    assert rc == 1
    import json

    payload = json.loads(out_file.read_text())
    assert payload["files_scanned"] == 1
    assert payload["errors"] == []
    assert all(f["code"] == "DET02" for f in payload["findings"])
    assert all({"path", "line", "col", "code", "message"} <= set(f)
               for f in payload["findings"])


def test_main_list_rules(capsys):
    assert main([], list_rules=True) == 0
    out = capsys.readouterr().out
    for code in RULE_CODES:
        assert code in out


def test_cli_subcommand_end_to_end():
    """`python -m repro lint` on the shipped tree exits 0 and writes
    nothing into the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    before = sorted(os.listdir(REPO_ROOT))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
    assert sorted(os.listdir(REPO_ROOT)) == before


# ---------------------------------------------------------------------------
# Ratchet + external gates (ruff / mypy run in CI; gated here on
# availability so the repo's own suite never needs them installed).
# ---------------------------------------------------------------------------


def _tomllib():
    try:
        import tomllib
    except ImportError:  # pragma: no cover - 3.9/3.10
        tomllib = pytest.importorskip("tomli")
    return tomllib


def test_mypy_ratchet_matches_pyproject_strict_override():
    with open(PYPROJECT, "rb") as handle:
        doc = _tomllib().load(handle)
    overrides = doc["tool"]["mypy"]["overrides"]
    strict = [
        o for o in overrides
        if o.get("ignore_errors") is False and isinstance(o["module"], list)
    ]
    assert len(strict) == 1, "expected exactly one strict override block"
    pyproject_modules = sorted(strict[0]["module"])
    ratchet_path = os.path.join(REPO_ROOT, "lint", "mypy_ratchet.txt")
    with open(ratchet_path, "r", encoding="utf-8") as handle:
        ratchet_modules = sorted(
            line.strip() for line in handle
            if line.strip() and not line.lstrip().startswith("#")
        )
    assert pyproject_modules == ratchet_modules
    # The strict modules must stay under the blanket-exempt package, or
    # the override ordering in pyproject stops meaning "ratchet".
    assert all(m.startswith("repro.") for m in ratchet_modules)


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_modules_clean():
    proc = subprocess.run(
        ["mypy", "-p", "repro"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
