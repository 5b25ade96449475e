"""Every module-level import in ``src/bac`` is read somewhere in its module.

No linter ships with the project, so this walks each module's syntax tree:
the names its top-level imports bind, against the names its code loads.
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
