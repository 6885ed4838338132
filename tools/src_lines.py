"""Physical and code lines of the package and its tests.

    python3 tools/src_lines.py                  # every file, then totals
    python3 tools/src_lines.py --against HEAD~1 # and the change against a revision

For each Python file under ``src/frobcy`` and ``tests`` it prints the
physical lines and the code lines, then the totals of each directory.  A
code line holds a token that is not a comment and not a docstring (a string
standing first in a module, class or function body, found with ``ast``);
blank lines, comment lines and docstring lines are not code.  With
``--against REV`` it also prints the change of both counts since the
revision, whose files are read with ``git show REV:path``; a file that
exists on one side only counts 0 lines on the other.  A revision that git
cannot read is one ``error:`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/frobcy", "tests")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> Tuple[int, int]:
    """(physical lines, code lines) of one Python source."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, _BODIES) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def tree_counts(root: Path) -> Dict[str, Tuple[int, int]]:
    """Path -> (physical, code) lines of every file of ``DIRS`` under ``root``."""
    return {path.relative_to(root).as_posix():
            count_lines(path.read_text("utf-8"))
            for d in DIRS for path in sorted((root / d).rglob("*.py"))}


def revision_counts(rev: str) -> Dict[str, Tuple[int, int]]:
    """The counts of ``tree_counts`` for the files of a git revision."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout

    names = git("ls-tree", "-r", "--name-only", rev, "--", *DIRS).split()
    return {name: count_lines(git("show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def report(now: Dict[str, Tuple[int, int]],
           then: Optional[Dict[str, Tuple[int, int]]] = None) -> List[str]:
    """The table: one line per file, then one total per directory."""
    head = f"{'file':<36} {'lines':>6} {'code':>6}"
    lines = [head + (f" {'Δlines':>7} {'Δcode':>6}" if then is not None else "")]

    def line(label: str, names: List[str]) -> str:
        cur = [sum(now.get(n, (0, 0))[i] for n in names) for i in (0, 1)]
        out = f"{label:<36} {cur[0]:>6} {cur[1]:>6}"
        if then is not None:
            old = [sum(then.get(n, (0, 0))[i] for n in names) for i in (0, 1)]
            out += f" {cur[0] - old[0]:>+7} {cur[1] - old[1]:>+6}"
        return out

    names = sorted(set(now) | set(then or {}))
    lines += [line(name, [name]) for name in names]
    lines += [line(f"{d} (total)", [n for n in names if n.startswith(d + "/")])
              for d in DIRS]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision to print the change against")
    args = parser.parse_args(argv)
    try:
        then = revision_counts(args.against) if args.against else None
    except subprocess.CalledProcessError as exc:
        said = exc.stderr.strip().splitlines()
        print(f"error: --against {args.against}: "
              f"{said[-1] if said else 'git failed'}", file=sys.stderr)
        return 1
    print("\n".join(report(tree_counts(ROOT), then)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
