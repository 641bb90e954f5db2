"""Every module under ``src/repro`` must be reached by code that is not a test.

A module is reached when a module under ``src/repro``, ``perfbench/``,
``examples/`` or ``benchmarks/`` imports it, or imports a name it
defines, and then uses that name in code.  A name imported through a
package ``__init__`` counts for the module that defines it.  An
``__init__`` that only re-exports a name (lists it in ``__all__``) does
not use it, and nothing under a ``tests`` directory counts, so a module
that only its own tests import is reported as dead.  Package
``__init__`` files and ``__main__`` need no importer.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
#: Importers besides the package itself.
IMPORTER_DIRS = ("perfbench", "examples", "benchmarks")


def module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def module_scope(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that bind module-level names, including guarded ones."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from module_scope(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                yield from module_scope(handler.body)


def imported_module(node: ast.ImportFrom, importer: str, is_package: bool) -> str:
    """The absolute module ``node`` imports from, resolving relative levels."""
    if not node.level:
        return node.module or ""
    package = importer.split(".")
    if not is_package:
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


class Scan:
    """The parsed package and the importers that may reach it."""

    def __init__(self, root: Path) -> None:
        src = root / "src"
        self.trees: Dict[str, ast.Module] = {}
        self.packages: Set[str] = set()
        for path in sorted((src / "repro").rglob("*.py")):
            name = module_name(path, src)
            self.trees[name] = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "__init__.py":
                self.packages.add(name)

    def defining_module(self, module: str, name: str, depth: int = 0) -> str:
        """The module that defines ``name`` as seen from ``module``.

        Follows ``from X import name`` re-exports, so a name imported
        from a package resolves to the submodule that defines it.
        """
        if f"{module}.{name}" in self.trees:
            return f"{module}.{name}"
        tree = self.trees.get(module)
        if tree is None or depth > 20:
            return module
        for stmt in module_scope(tree.body):
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if (alias.asname or alias.name) == name:
                        source = imported_module(
                            stmt, module, module in self.packages
                        )
                        return self.defining_module(source, alias.name, depth + 1)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname == name:
                        return alias.name
        return module

    def reached_by(self, tree: ast.Module, importer: Optional[str]) -> Set[str]:
        """Modules ``tree`` imports a used name from."""
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        reached: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (alias.asname or alias.name.split(".")[0]) in used:
                        reached.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level and importer is None:
                    continue
                source = imported_module(
                    node, importer or "", importer in self.packages
                )
                for alias in node.names:
                    if (alias.asname or alias.name) in used:
                        reached.add(self.defining_module(source, alias.name))
        reached.discard(importer)
        return reached

    def unreached(self, importers: List[Path]) -> List[str]:
        """Non-``__init__`` modules that neither the package nor
        ``importers`` reach."""
        reached: Set[str] = set()
        for name, tree in self.trees.items():
            reached |= self.reached_by(tree, name)
        for path in importers:
            reached |= self.reached_by(
                ast.parse(path.read_text(encoding="utf-8")), None
            )
        return sorted(
            name
            for name in self.trees
            if name not in self.packages
            and not name.endswith(".__main__")
            and name not in reached
        )


def importer_files(root: Path) -> List[Path]:
    """Every ``.py`` under the importer directories, outside ``tests``."""
    files = []
    for directory in IMPORTER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                files.append(path)
    return files


def test_every_module_is_reached():
    dead = Scan(ROOT).unreached(importer_files(ROOT))
    assert dead == [], (
        "modules that no code outside the tests reaches; delete them or "
        f"give them a caller: {dead}"
    )


def test_rule_on_a_small_package(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/sub/__init__.py": (
            "from .a import A\nfrom .b import B\nfrom .d import D\n"
            "__all__ = ['A', 'B', 'D']\n"
        ),
        "src/repro/sub/a.py": "class A: ...\n",
        "src/repro/sub/b.py": "class B: ...\n",
        "src/repro/sub/c.py": "from .a import A\nA()\n",
        "src/repro/sub/d.py": "class D: ...\n",
        "src/repro/sub/e.py": "E = 1\n",
        "src/repro/caller.py": "from repro.sub import B, e\nB()\n",
        "examples/run.py": "import repro.caller\nrepro.caller\n",
        "perfbench/tests/test_c.py": "from repro.sub import c\nc\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a: reached by c's relative import; b: through the package's
    # re-export; c: only by a test; d: only listed in __all__; e:
    # imported but never used.
    assert Scan(tmp_path).unreached(importer_files(tmp_path)) == [
        "repro.sub.c",
        "repro.sub.d",
        "repro.sub.e",
    ]
