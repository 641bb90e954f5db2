"""The reprolint rule engine: file walking, pragmas, rule dispatch.

``reprolint`` is an AST-based analyzer (stdlib :mod:`ast` only — no
runtime dependencies) that machine-checks the source-level invariants
the reproduction's determinism and durability guarantees rest on.  A
*rule* inspects one parsed module and yields
:class:`~repro.analysis.reprolint.diagnostics.Diagnostic` records; the
engine scopes rules to files (per :mod:`~repro.analysis.reprolint.config`),
honours per-line disable pragmas, and aggregates the findings.

Disable pragma grammar (a comment on the offending line)::

    # reprolint: disable=DET01 -- justification text

* ``disable=`` takes one code or a comma-separated list;
* the ``-- justification`` part is **mandatory** — a bare disable is
  itself reported as ``LINT00`` (the meta-rule), so every suppression
  in the tree documents *why* the contract does not apply;
* unknown codes in a pragma are reported as ``LINT00`` too.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.reprolint.config import LintConfig, default_config
from repro.analysis.reprolint.diagnostics import Diagnostic

#: Meta-rule code for malformed disable pragmas.
META_CODE = "LINT00"

#: Bumped whenever rule semantics change; SARIF reports it as the tool
#: version.
ENGINE_VERSION = "2.0"

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


class Rule:
    """Base class for one rule family.

    Subclasses set :attr:`code` and :attr:`name`, write a docstring
    describing the failing pattern, the contract it protects, and the
    escape hatch, and implement :meth:`check`.
    """

    code: str = ""
    name: str = ""

    def check(
        self, tree: ast.Module, path: str, source: str
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, path: str, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for interprocedural (whole-program) rule families.

    Project rules run in pass 2, over the
    :class:`~repro.analysis.reprolint.project.ProjectModel` assembled
    from every scanned file, and may emit diagnostics in *any* file.
    The engine applies scope filtering and disable pragmas to each
    emitted diagnostic exactly as for per-file rules.
    """

    def check(
        self, tree: ast.Module, path: str, source: str
    ) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(
        self, project: "object", config: LintConfig
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError


@dataclass
class Pragma:
    """One parsed ``# reprolint: disable=...`` comment."""

    line: int
    codes: Tuple[str, ...]
    justification: Optional[str]


@dataclass
class FileReport:
    """All findings for one file (after pragma filtering)."""

    path: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    parse_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics and self.parse_error is None


def parse_pragmas(source: str) -> List[Pragma]:
    """Extract disable pragmas from comment tokens (never from strings)."""
    pragmas: List[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            pragmas.append(
                Pragma(
                    line=token.start[0],
                    codes=codes,
                    justification=match.group("why"),
                )
            )
    except tokenize.TokenError:
        pass  # the ast.parse in _lint_module reports the syntax error
    return pragmas


def pragma_table(
    source: str, path: str, known_codes: Set[str]
) -> Tuple[Dict[int, Set[str]], List[Diagnostic]]:
    """Per-line disabled-code sets plus LINT00 meta-diagnostics."""
    disabled_at: Dict[int, Set[str]] = {}
    meta: List[Diagnostic] = []
    for pragma in parse_pragmas(source):
        if pragma.justification is None:
            meta.append(
                Diagnostic(
                    path=path, line=pragma.line, col=1, code=META_CODE,
                    message=(
                        "disable pragma without justification: write "
                        "'# reprolint: disable=CODE -- why the contract "
                        "does not apply here'"
                    ),
                )
            )
            continue
        unknown = [c for c in pragma.codes if c not in known_codes]
        if unknown:
            meta.append(
                Diagnostic(
                    path=path, line=pragma.line, col=1, code=META_CODE,
                    message=f"unknown rule code(s) in disable pragma: "
                            f"{', '.join(unknown)}",
                )
            )
        disabled_at.setdefault(pragma.line, set()).update(pragma.codes)
    return disabled_at, meta


def _lint_module(
    source: str,
    path: str,
    relpath: str,
    rules: Sequence[Rule],
    config: LintConfig,
) -> Tuple[FileReport, Optional[ast.Module], Dict[int, Set[str]]]:
    """One module's per-file pass: parse, pragma table, scoped rules.

    Returns the report plus the parsed tree and the per-line disabled
    codes, which the project pass reuses (``None`` and ``{}`` when the
    module does not parse).
    """
    report = FileReport(path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.parse_error = f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
        return report, None, {}

    known_codes = {rule.code for rule in rules} | {META_CODE}
    disabled_at, meta_diags = pragma_table(source, path, known_codes)
    report.diagnostics.extend(meta_diags)

    for rule in rules:
        if not config.scope_for(rule.code).matches(relpath):
            continue
        for diag in rule.check(tree, path, source):
            if rule.code in disabled_at.get(diag.line, ()):
                continue
            report.diagnostics.append(diag)
    return report, tree, disabled_at


def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    relpath: Optional[str] = None,
    config: Optional[LintConfig] = None,
) -> FileReport:
    """Run every in-scope per-file rule over one module's source text."""
    if config is None:
        config = default_config()
    if relpath is None:
        relpath = path.replace(os.sep, "/")
    report = _lint_module(source, path, relpath, rules, config)[0]
    report.diagnostics.sort()
    return report


def iter_python_files(paths: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """Yield ``(abspath, relpath)`` for every ``.py`` under ``paths``.

    ``relpath`` is relative to the scanned root (the argument itself for
    a directory), normalised to ``/`` separators — the string rule
    scopes match against.  Order is sorted, for deterministic output.
    """
    for root in paths:
        root = os.path.normpath(root)
        if os.path.isfile(root):
            yield root, os.path.basename(root)
            continue
        collected = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                collected.append((full, rel))
        yield from sorted(collected, key=lambda pair: pair[1])


def collect_diagnostics(reports: Iterable[FileReport]) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for report in reports:
        out.extend(report.diagnostics)
    return out


@dataclass
class ProjectLintResult:
    """Outcome of a two-pass (per-file + interprocedural) lint run."""

    reports: List[FileReport]
    files_scanned: int
    project: Optional[object] = None  # the ProjectModel of the run


def _root_packages(paths: Sequence[str]) -> List[str]:
    """Root package names the scanned relpaths live under."""
    packages: List[str] = []
    for root in paths:
        root = os.path.normpath(root)
        if os.path.isdir(root):
            name = os.path.basename(root)
            if name and name not in packages:
                packages.append(name)
    return packages


def lint_project(
    paths: Sequence[str],
    rules: Sequence[Rule],
    config: Optional[LintConfig] = None,
    packages: Optional[Sequence[str]] = None,
) -> ProjectLintResult:
    """Two-pass lint: per-file rules, then interprocedural project rules.

    Pass 1 runs :func:`lint_source`'s per-file pass over every Python
    file under ``paths``; pass 2 builds the project model from the
    parsed modules and runs the project rules over it.
    """
    from repro.analysis.reprolint.project import ProjectModel

    if config is None:
        config = default_config()

    reports: List[FileReport] = []
    reports_by_rel: Dict[str, FileReport] = {}
    tables: Dict[str, Dict[int, Set[str]]] = {}
    parsed: List[Tuple[str, str, ast.Module, str]] = []
    for full, rel in iter_python_files(paths):
        try:
            with open(full, "rb") as handle:
                source = handle.read().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report = FileReport(path=full)
            report.parse_error = f"{full}: unreadable: {exc}"
        else:
            report, tree, tables[rel] = _lint_module(
                source, full, rel, rules, config
            )
            if tree is not None:
                parsed.append((full, rel, tree, source))
        reports.append(report)
        reports_by_rel[rel] = report

    if packages is None:
        packages = _root_packages(paths)
    project = ProjectModel.build(parsed, packages=packages)
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        scope = config.scope_for(rule.code)
        for diag in rule.check_project(project, config):
            rel_of = project.relpath_of(diag.path)
            if rel_of is None or not scope.matches(rel_of):
                continue
            if diag.code in tables.get(rel_of, {}).get(diag.line, ()):
                continue
            reports_by_rel[rel_of].diagnostics.append(diag)

    for report in reports:
        report.diagnostics.sort()
    return ProjectLintResult(
        reports=reports, files_scanned=len(reports), project=project
    )
