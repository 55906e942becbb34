"""Import hygiene: every name a package module imports is used in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kacforge"


def unused_imports(source):
    """Names bound by an import statement anywhere in ``source`` that no
    expression of it reads, in order of first import."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in
            sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def test_scanner_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "def f():\n    from e import g\n    return np.pi + d + g\n")
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
