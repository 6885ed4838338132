"""Golden outputs: the command line's bytes for the full table, two ``frob``
cells and ``catalog``, compared byte for byte with the files in
``tests/data``.  Marks, escalation, form labels, key order and formatting
are pinned here, not only the cells.

These files are the one place that pins the catalog's cells and CSV
fields, the two ``frob`` cells and the ``catalog`` listing; the per-module
suites do not restate them.  The three tables are built from the session's
``catalog_table`` rows (one uncached ``classify_operator`` call per
operator) through every emitter of ``cli.FORMATS``, the table that
``table --format`` reads, so Tier-1 computes the full table once.  A
change that moves an output on purpose regenerates its file in the same
commit, from the repository root:

    export PYTHONPATH=src
    python -m frobcy table --operator all --primes 3..17 --no-cache \\
        --format json > tests/data/full_table.json
    python -m frobcy table --operator all --primes 3..17 --no-cache \\
        --format csv > tests/data/full_table.csv
    python -m frobcy table --operator all --primes 3..17 --no-cache \\
        > tests/data/full_table.md
    python -m frobcy frob --operator 'A*d' --prime 5 --point 2 --no-cache \\
        > tests/data/frob_Ad_p5_z2.json
    python -m frobcy frob --operator 'A*a' --prime 7 --point 2 \\
        --precision 4 --no-cache > tests/data/frob_Aa_p7_z2_s4.json
    python -m frobcy catalog > tests/data/catalog.txt

``cli_usage.json`` holds, for each argument list in it, the exit code,
stdout and stderr of ``frobcy`` with ``COLUMNS=80``: the top-level and
per-command help, and the usage errors that argparse reports itself.  To
regenerate it, run each of its ``argv`` lists as
``COLUMNS=80 python -m frobcy ARGV...`` and store the three values.
"""

from __future__ import annotations

import json

import pytest

from frobcy import cli

from conftest import DATA, TABLE_PRIMES

SUFFIX = {"markdown": "md", "csv": "csv", "json": "json"}


@pytest.mark.parametrize("fmt", cli.FORMATS, ids=SUFFIX.get)
def test_full_table_matches_golden_file(fmt, catalog_table, capsys):
    groups = [(name, p, row) for name, rows in catalog_table["rows"].items()
              for p, row in zip(TABLE_PRIMES, rows)]
    assert not [g for g in groups if isinstance(g[2], Exception)]
    cli._emit(cli.FORMATS[fmt](groups))
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (DATA / f"full_table.{SUFFIX[fmt]}").read_bytes()


@pytest.mark.parametrize("argv, name", [
    ("frob --operator A*d --prime 5 --point 2 --no-cache", "frob_Ad_p5_z2.json"),
    # the worked example: r1 = 582 and rh = 1101 mod 7^4
    ("frob --operator A*a --prime 7 --point 2 --precision 4 --no-cache",
     "frob_Aa_p7_z2_s4.json"),
    ("catalog", "catalog.txt"),
])
def test_command_matches_golden_file(argv, name, capsys):
    assert cli.main(argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (DATA / name).read_bytes()


USAGE = json.loads((DATA / "cli_usage.json").read_text("utf-8"))


@pytest.mark.parametrize("case", USAGE, ids=[" ".join(c["argv"]) or "(none)"
                                             for c in USAGE])
def test_usage_matches_golden_file(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == \
        (case["exit"], case["stdout"], case["stderr"])
