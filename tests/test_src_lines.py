"""``tools/src_lines.py`` counts physical and code lines; these tests read
files, and run git only to see a revision it cannot read refused."""

from pathlib import Path

import pytest

from conftest import load_module

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = '''"""Module docstring,
on two lines."""

# a comment


def f(x):  # code with a comment
    """One-line docstring."""
    s = """a string that is
no docstring"""
    return s


class C:
    """Docstring."""; y = 1
'''


@pytest.fixture(scope="module")
def src_lines():
    return load_module(ROOT / "tools" / "src_lines.py")


def test_code_lines_skip_blanks_comments_and_docstrings(src_lines):
    # code: def f, s = """...""" over two lines, return, class C, and the
    # line whose docstring shares it with y = 1
    assert src_lines.count_lines(SAMPLE) == (15, 6)


def test_report_totals_and_changes(src_lines):
    now = src_lines.tree_counts(ROOT)
    assert "src/frobcy/catalog.py" in now and "tests/conftest.py" in now
    then = dict(now, **{"src/frobcy/catalog.py": (0, 0), "tests/gone.py": (4, 2)})
    lines = src_lines.report(now, then)
    total = {line.split()[0]: line.split()[2:] for line in lines
             if "(total)" in line}
    lines_now, code_now = now["src/frobcy/catalog.py"]
    assert total["src/frobcy"][2:] == [f"+{lines_now}", f"+{code_now}"]
    assert total["tests"][2:] == ["-4", "-2"]
    assert int(total["src/frobcy"][0]) == sum(
        n for name, (n, _c) in now.items() if name.startswith("src/"))


def test_unknown_revision_is_one_error_line(src_lines, capsys):
    # inside a git checkout git cannot read the revision, outside one it
    # finds no repository: either way one line, no traceback
    assert src_lines.main(["--against", "no-such-revision"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --against no-such-revision: ")
    assert err.count("\n") == 1
