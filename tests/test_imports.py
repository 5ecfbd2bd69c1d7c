"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import rollingquant

MODULES = sorted(Path(rollingquant.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of source that nothing reads;
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from math import inf, pi\nprint(os.sep, pi)\n")
    assert unused_imports(source) == ["line 3: j", "line 4: inf"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
