"""Every module-level import and private name in ``src/bac`` is read
somewhere in its module.

No linter ships with the project, so this walks each module's syntax tree:
the names its top-level imports bind, and the private functions, classes and
constants it defines, against the names its code loads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bac"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom .rng import derive_seed, mix64\nmix64(os)\n") == [
        "line 2: derive_seed"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """Module-level functions, classes and constants named with one leading
    underscore (not dunders) that no code in the module loads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in loaded]


def test_scan_finds_an_unread_private_name():
    source = ("_LIMIT = 3\n__all__ = []\nclass _Kept: pass\n"
              "def _orphan(): return _LIMIT\ndef public(): return _Kept\n")
    assert unread_private_names(source) == ["line 4: _orphan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
