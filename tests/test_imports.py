"""Every name a module of src/koszul imports is used in that module, and
a cold import of the CLI loads no module it does not need."""

import ast
import subprocess
import sys
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


# what the record classes and the built-in algebra data once pulled in; a
# cold `import koszul.cli` needs none of it
UNNEEDED = ("dataclasses", "inspect", "ast", "importlib.resources")


def test_cold_cli_import_loads_no_unneeded_module():
    """A fresh interpreter without site (-S), so that no .pth file imports
    anything first, loads none of UNNEEDED on `import koszul.cli`, nor on
    reading a built-in algebra."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import koszul.cli; "
             "koszul.cli.builtin_algebra('su2'); "
             f"print(','.join(m for m in {UNNEEDED!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
