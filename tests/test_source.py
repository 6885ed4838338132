"""The package keeps only what it uses: every top-level function and class
in ``src/frobcy`` is referenced by name somewhere in ``src/frobcy``.  Code
that only tests call lives under ``tests/`` (for example ``horizontal.py``)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frobcy"


def test_every_top_level_definition_is_referenced_in_src():
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in referenced)
    assert unused == []
