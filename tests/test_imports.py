"""Every name a module of src/koszul imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "koszul"


def unused_imports(source: str) -> dict:
    """name bound by an import and never read -> the line of its import;
    __future__ imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport json, os.path\nfrom .a import b, c as d\nd(json)\n"
    assert unused_imports(source) == {"os": 2, "b": 3}


# __init__.py imports the package's public names so that users can import them from it
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert not unused_imports(path.read_text("utf-8")), path.name
