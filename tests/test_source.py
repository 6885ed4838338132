"""The package keeps only what it uses: every top-level function and class
in ``src/frobcy``, and every method other than a dunder, is referenced by
name somewhere in ``src/frobcy``, and no module imports another module's
underscore name.  No module of ``src/frobcy`` or ``tests/`` imports a name
it does not use.  Code that only tests call lives under ``tests/`` (for
example ``horizontal.py``)."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "frobcy"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_every_top_level_definition_is_referenced_in_src():
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (method.name, f"{path.name} {node.name}")
                    for method in node.body
                    if isinstance(method, _FUNCTIONS)
                    and not method.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in referenced)
    assert unused == []


def _bound_names(node):
    """The names an import statement binds in its module."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def test_no_module_imports_a_name_it_does_not_use():
    # a name listed in ``__all__`` is a re-export, so it counts as used
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                imported.update(_bound_names(node))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.parent.name}/{path.name}: {name}"
                   for name in sorted(imported - used)]
    assert unused == []


def test_no_module_imports_a_private_name_from_another():
    # an underscore name is its module's own business: a decision that two
    # modules share belongs to a public name, or to one of them alone
    private = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("frobcy")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
