"""No package module imports a name it never uses (no linter needed)."""

import ast
from pathlib import Path

import pytest

import pseudolearn

MODULES = sorted(Path(pseudolearn.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = next(
        (
            {e.value for e in node.value.elts}
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ),
        set(),
    )
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used | exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nfrom .errors import ConfigError, SchemaError\nraise SchemaError()"
    assert _unused_imports(source) == ["ConfigError (line 2)", "math (line 1)"]
    source = "import numpy.linalg\nfrom . import rng as r\n__all__ = ['r']\nnumpy.pi"
    assert _unused_imports(source) == []
