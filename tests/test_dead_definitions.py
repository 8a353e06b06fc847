"""Every module-level def or class and every method under src/koszul is
named somewhere besides its own definition, in src/, tests/, scripts/ or
perfbench/: no helper outlives its last caller.  Every defaulted
parameter of such a def or method is set by some call there: no option
outlives its last user."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "scripts", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


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


def calls(trees) -> dict:
    """name -> [(number of positional arguments, keyword names, whether *
    or ** arguments are passed)] of every call by that name, a plain or an
    attribute call."""
    found: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                found.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}, starred))
    return found


def defaulted_parameters(tree: ast.Module):
    """(name it is called by, def name, parameter, position in a call or
    None for keyword-only) of each defaulted parameter of a module-level
    def or of a method of a module-level class.  A method's position skips
    self or cls, and an __init__ is called by its class name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [(node.name, m) for m in node.body if isinstance(m, FUNCTIONS)]
        else:
            defs = [(None, node)] if isinstance(node, FUNCTIONS) else []
        for owner, fn in defs:
            args = fn.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            skip = 0 if owner is None or static else 1
            called = owner if fn.name == "__init__" else fn.name
            label = fn.name if owner is None else f"{owner}.{fn.name}"
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield called, label, positional[i].arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield called, label, arg.arg, None


def unset_parameters(sources: dict, defining: set) -> list:
    """(file, def, parameter) of every defaulted parameter in the files
    named in ``defining`` that no call in the sources sets: by keyword, by
    position, or through * or ** arguments."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    made = calls(trees.values())
    return [(path, label, param)
            for path in sorted(defining) for called, label, param, pos in defaulted_parameters(trees[path])
            if not any(starred or param in keywords or (pos is not None and n > pos)
                       for n, keywords, starred in made.get(called, ()))]


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


def project_sources() -> tuple:
    """({file: source} of every searched file, the files under src/koszul)."""
    sources = {str(p.relative_to(ROOT)): p.read_text("utf-8")
               for folder in SEARCHED for p in sorted((ROOT / folder).rglob("*.py"))}
    return sources, {path for path in sources if path.startswith("src/koszul/")}


def test_every_definition_is_named_elsewhere():
    assert not dead_definitions(*project_sources())


def test_unset_parameters_are_found():
    lib = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
           "def spread(x=0):\n    pass\n"
           "class Box:\n    def __init__(self, size=1, color=None):\n        pass\n"
           "    def open(self, wide=False):\n        pass\n"
           "    @staticmethod\n    def make(kind=None):\n        pass\n")
    user = "f(0, 5, c=1)\nspread(*[])\nBox(2)\nBox().open()\nBox.make(1)\n"
    assert unset_parameters({"lib.py": lib, "user.py": user}, {"lib.py"}) == [
        ("lib.py", "f", "d"), ("lib.py", "Box.__init__", "color"), ("lib.py", "Box.open", "wide")]


def test_every_defaulted_parameter_is_set_somewhere():
    assert not unset_parameters(*project_sources())
