"""Every module-level def or class and every method under src/koszul is
named somewhere besides its own definition, in src/, tests/, scripts/ or
perfbench/: no helper outlives its last caller."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "scripts", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module) -> list:
    """Each module-level def or class and each method of such a class,
    dunders aside."""
    found = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            found.append(node)
            if isinstance(node, ast.ClassDef):
                found += [m for m in node.body if isinstance(m, DEFINITIONS)]
    return [node for node in found if not (node.name.startswith("__") and node.name.endswith("__"))]


def references(tree: ast.AST) -> Counter:
    """How often each name is read or called in tree, or spelled as a whole
    string constant, as getattr and monkeypatch.setattr take it; an import
    alone is no use."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def dead_definitions(sources: dict, defining: set) -> list:
    """(file, name, line) of every definition in the files named in
    ``defining`` whose name the sources ({file: source}) read nowhere but
    inside that definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    total = sum((references(tree) for tree in trees.values()), Counter())
    return [(path, node.name, node.lineno)
            for path in sorted(defining) for node in definitions(trees[path])
            if total[node.name] == references(node)[node.name]]


def test_dead_definitions_are_found():
    lib = ("def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "def looked_up():\n    pass\n"
           "class Box:\n    def __len__(self):\n        return 0\n"
           "    def opened(self):\n        return self.opened\n"
           "    def kept(self):\n        pass\n")
    user = "from lib import used, imported\nused()\ngetattr(lib, 'looked_up')\nBox().kept()\n"
    lib += "def imported():\n    pass\n"
    assert dead_definitions({"lib.py": lib, "user.py": user}, {"lib.py"}) == [
        ("lib.py", "recursive", 3), ("lib.py", "opened", 10), ("lib.py", "imported", 14)]


def test_every_definition_is_named_elsewhere():
    sources = {str(p.relative_to(ROOT)): p.read_text("utf-8")
               for folder in SEARCHED for p in sorted((ROOT / folder).rglob("*.py"))}
    defining = {path for path in sources if path.startswith("src/koszul/")}
    assert not dead_definitions(sources, defining)
