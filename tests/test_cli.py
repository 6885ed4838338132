"""Command-line front end: argument handling, every subcommand, the row
cache (hit / miss / fault injection / key sensitivity / each point's own
outcome), and the two output determinism guarantees (cache vs no-cache,
serial vs worker pool).

Most invocations go through ``frobcy.cli.main(argv)`` in-process so exit
codes and streams are observable cheaply.  The import, start-up and exit
checks run ``python -c`` scripts through conftest's ``python_c``, and the
console-script tests run the command in a fresh process (the installed
``frobcy`` when one is on PATH, ``python -m frobcy`` otherwise).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import importlib
import importlib.util
import inspect
import pkgutil

import pytest
from hypothesis import given, seed, settings, strategies as st

import frobcy
from frobcy import FrobcyError, catalog, classify, cli, frobenius, wedge
from frobcy import series as series_module
from frobcy.catalog import CATALOG
from frobcy.classify import classify_operator
from frobcy.diffop import ThetaOperator
from frobcy.frobenius import LiftOutOfBound, frobenius_quartic

from conftest import (BAD_OPERATORS, checkout_env, classified, python_c,
                      refuse, self_dual_p, spy)


def md_cells(text: str, name: str, p: int) -> list:
    """The (a,b) cells of one emitted markdown table, in z order."""
    lines = text.splitlines()
    i = lines.index(f"## {name}, p = {p}")
    row = lines[i + 4]
    return [c.strip() for c in row.split("|")[2:-1]]


def run(argv, capsys):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- argument helpers -----------------------------------------------------------------


class TestParsePrimes:
    def test_range_syntax(self):
        assert cli._parse_primes("3..17") == [3, 5, 7, 11, 13, 17]

    def test_range_excludes_two(self):
        assert cli._parse_primes("2..7") == [3, 5, 7]

    def test_list_syntax(self):
        assert cli._parse_primes("3,5,7") == [3, 5, 7]
        assert cli._parse_primes("7") == [7]
        assert cli._parse_primes("3, 13") == [3, 13]

    # the failure table splits its argv on whitespace, so these two lists,
    # empty and blank, are run here
    @pytest.mark.parametrize("text", ["", " , "])
    def test_empty_list_rejected(self, text, capsys):
        assert run(["table", "--operator", "A*a", "--primes", text],
                   capsys) == (2, "", f"error: no primes in list "
                                      f"{text.strip()!r}\n")


class TestLoadOperator:
    def test_catalog_name(self):
        op = cli._load_operator("A*a")
        assert op.to_json() == CATALOG["A*a"].to_json()

    def test_json_file(self, tmp_path):
        path = tmp_path / "myop.json"
        path.write_text(CATALOG["C*a"].to_json(), encoding="utf-8")
        op = cli._load_operator(str(path))
        assert op == CATALOG["C*a"] and op.name == str(path)

    @pytest.mark.parametrize("name", ["A*a", "mine"])
    def test_zero_theta5_column_is_trimmed(self, name, tmp_path, capsys):
        # A*a's file with a zero theta^5 coefficient in every row and
        # theta_order 4: the same cells and the same exterior square, by the
        # exact route, whatever the file's name field
        data = json.loads(ThetaOperator(CATALOG["A*a"].coeffs,
                                        name=name).to_json())
        plain, padded = tmp_path / "plain.json", tmp_path / "padded.json"
        plain.write_text(json.dumps(data), encoding="utf-8")
        data["coeffs"] = [row + ["0"] for row in data["coeffs"]]
        padded.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(["table", "--operator", str(plain), "--operator",
                            str(padded), "--primes", "5,7", "--format", "json",
                            "--no-cache"], capsys)
        tables = json.loads(out)
        assert code == 0 and tables[str(padded)] == tables[str(plain)]
        wedges = [run(["wedge", "--operator", str(path)], capsys)
                  for path in (plain, padded)]
        coeffs = [json.loads(out)["coeffs"] for _, out, _ in wedges]
        assert [code for code, _, _ in wedges] == [0, 0]
        assert coeffs[0] == coeffs[1]


# -- row cache ------------------------------------------------------------------------


def row_key(op, p, precision=None) -> bytes:
    """The key of the row of ``op`` at p: its coefficient table, p, the
    explicit precision (None by default) and the package's digest."""
    digest = series_module._package_digest()
    return f"{op.coeffs}:{p}:{precision}:{digest}".encode("utf-8")


def row_path(cache_dir, op, p, precision=None) -> Path:
    """The file of a row: named by the sha256 of its key, in hex."""
    return Path(cache_dir) / hashlib.sha256(row_key(op, p, precision)).hexdigest()


def stored_cells(path) -> list:
    """The cells of the row file at ``path``, as the JSON lists it holds."""
    return json.loads(Path(path).read_bytes()[32:])


@pytest.fixture
def opened(monkeypatch):
    """The paths that the cache module opens, in order."""
    seen = []
    monkeypatch.setattr(series_module, "open",
                        lambda path, *a: seen.append(path) or open(path, *a),
                        raising=False)
    return seen


class TestCacheSeries:
    """The row cache of ``series``, read and written by ``classify_operator``:
    A*a's row at p = 5 unless a test names another."""

    def row(self, cache_dir, op=CATALOG["A*a"], p=5, precision=None):
        """The cells of the row, through the cache in ``cache_dir`` (None:
        uncached)."""
        got, = classify_operator(op, [p], cache_dir=cache_dir and str(cache_dir),
                                 precision=precision)
        return got

    def path(self, tmp_path) -> Path:
        return row_path(tmp_path, CATALOG["A*a"], 5)

    def test_miss_computes_and_writes(self, tmp_path):
        assert self.row(tmp_path) == self.row(None)
        assert os.listdir(tmp_path) == [self.path(tmp_path).name]

    def test_cache_file_schema(self, tmp_path):
        # the sha256 of key + body, then the row's cells as one JSON list of
        # PointClass fields each, with no form label (it is looked up on read)
        row = self.row(tmp_path)
        assert any(pc.form for pc in row)
        body = json.dumps([list(pc._replace(form=None)) for pc in row])
        key = row_key(CATALOG["A*a"], 5)
        assert self.path(tmp_path).read_bytes() == hashlib.sha256(
            key + body.encode()).digest() + body.encode()

    def test_hit_skips_recomputation(self, tmp_path, monkeypatch):
        row = self.row(tmp_path)
        monkeypatch.setattr(classify, "cache_series",
                            refuse("a cache hit must not fetch a series"))
        assert self.row(tmp_path) == row

    def test_key_changes_with_one_coefficient(self, tmp_path):
        self.row(tmp_path)
        data = json.loads(CATALOG["A*a"].to_json())
        data["coeffs"][1][0] = str(int(data["coeffs"][1][0]) + 1)
        path2 = row_path(tmp_path, ThetaOperator.from_json(json.dumps(data)), 5)
        assert path2 != self.path(tmp_path)
        assert not path2.exists()  # the seeded entry cannot be reused

    def test_key_changes_with_parameters(self, tmp_path):
        # another operator, p or precision names another file; the file of
        # one row copied under the name of another is refused by its digest,
        # and that row is computed afresh and rewritten
        op = CATALOG["A*a"]
        written = self.path(tmp_path)
        others = [(op, 5, 4), (op, 7, None), (CATALOG["B*a"], 5, None)]
        names = {row_path(tmp_path, *row).name for row in others}
        assert len(names | {written.name}) == 4
        self.row(tmp_path)
        for other, p, s in others:
            path = row_path(tmp_path, other, p, s)
            shutil.copyfile(written, path)
            assert self.row(tmp_path, other, p, s) == self.row(None, other, p, s)
            assert path.read_bytes() != written.read_bytes()

    def test_file_names_of_earlier_caches_stay(self, tmp_path, capsys, opened):
        # files of the earlier formats, a per-role series-*.json file and a
        # binary (F0, f0) row named by the sha256 of the coefficients, p, K
        # and the byte order, keep their names and bytes and are never
        # opened: the table, cold and then warm, equals an uncached one and
        # opens only the row file
        op = CATALOG["A*a"]
        argv = ["table", "--operator", "A*a", "--primes", "5",
                "--format", "json"]
        _, uncached, _ = run(argv + ["--no-cache"], capsys)
        binary = f"{op.coeffs}:5:3:{sys.byteorder}".encode("utf-8")
        earlier = {f"series-{'0' * 40}.json": b'{"role": "op"}\n',
                   hashlib.sha256(binary).hexdigest(): bytes(40)}
        for name, raw in earlier.items():
            (tmp_path / name).write_bytes(raw)
        for _ in ("cold", "warm"):
            assert run(argv + ["--cache-dir", str(tmp_path)],
                       capsys) == (0, uncached, "")
        row = str(self.path(tmp_path))
        assert opened == [row, row]
        assert sorted(os.listdir(tmp_path)) == sorted([*earlier, Path(row).name])
        for name, raw in earlier.items():
            assert (tmp_path / name).read_bytes() == raw

    def test_earlier_json_file_is_recomputed_and_overwritten(self, tmp_path,
                                                             monkeypatch):
        # a file of an earlier format under the row's name, a binary (F0, f0)
        # row or a per-role JSON file: a miss, computed once and replaced
        row = self.row(tmp_path)
        path = self.path(tmp_path)
        written = path.read_bytes()
        residues = b"".join(c.to_bytes(4, sys.byteorder) for c in range(250))
        earlier = (hashlib.sha256(residues).digest() + residues,
                   json.dumps({"role": "op", "p": 5, "K": 3,
                               "coeffs": ["1", "4"]}).encode("utf-8"))
        fetches = spy(monkeypatch, classify, "cache_series",
                      lambda op, targets: targets)
        for raw in earlier:
            path.write_bytes(raw)
            fetches.clear()
            assert self.row(tmp_path) == row
            assert fetches == [[(5, 3)]]
            assert os.listdir(tmp_path) == [path.name]
            assert path.read_bytes() == written

    def test_failed_write_keeps_the_result_and_leaves_no_file(
            self, tmp_path, monkeypatch):
        # a full disk at the rename: the temp file is removed, the store is
        # skipped, and the row is that of an uncached call
        def full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(series_module.os, "replace", full)
        assert self.row(tmp_path) == self.row(None)
        assert os.listdir(tmp_path) == []

    def test_failed_rename_and_cleanup_keep_the_result(self, tmp_path,
                                                       capsys, monkeypatch):
        # neither the rename nor the removal of the temp file succeeds: the
        # temp files stay, and the table equals an uncached one, with no
        # traceback
        def denied(*args):
            raise OSError(errno.EACCES, "Permission denied")

        argv = ["table", "--operator", "A*a", "--primes", "5,7",
                "--format", "json"]
        _, uncached, _ = run(argv + ["--no-cache"], capsys)
        monkeypatch.setattr(series_module.os, "replace", denied)
        monkeypatch.setattr(series_module.os, "unlink", denied)
        assert run(argv + ["--cache-dir", str(tmp_path)],
                   capsys) == (0, uncached, "")
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"{row_path(tmp_path, CATALOG['A*a'], p).name}.{os.getpid()}.tmp"
            for p in (5, 7))

    def test_stored_file_is_private(self, tmp_path):
        # the temp file is created with mode 0600, and the rename keeps it
        self.row(tmp_path)
        assert stat.S_IMODE(self.path(tmp_path).stat().st_mode) == 0o600

    def test_leftover_temp_file_skips_the_store(self, tmp_path):
        # a temp file of this pid left by an earlier process: the store is
        # skipped, the file is left as it was, and the row is still right
        leftover = Path(f"{self.path(tmp_path)}.{os.getpid()}.tmp")
        leftover.write_bytes(b"earlier")
        assert self.row(tmp_path) == self.row(None)
        assert os.listdir(tmp_path) == [leftover.name]
        assert leftover.read_bytes() == b"earlier"

    def test_unusable_directory_falls_back_to_compute(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        assert self.row(blocker / "sub") == self.row(None)
        assert os.listdir(tmp_path) == ["file"]

    def test_default_directory_from_environment(self, tmp_path, monkeypatch):
        default = argparse.Namespace(no_cache=False, cache_dir=None)
        monkeypatch.setenv("FROBCY_CACHE_DIR", str(tmp_path / "env"))
        assert cli._cache_dir(default) == str(tmp_path / "env")
        monkeypatch.delenv("FROBCY_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cli._cache_dir(default) == str(tmp_path / "xdg" / "frobcy")
        given = argparse.Namespace(no_cache=False, cache_dir=str(tmp_path / "c"))
        assert cli._cache_dir(given) == str(tmp_path / "c")
        assert cli._cache_dir(argparse.Namespace(no_cache=True,
                                                 cache_dir=None)) is None


@pytest.fixture(scope="module")
def aa_cache(tmp_path_factory):
    """A*a's row at p = 5 in a cache directory: the directory, the file's
    path and bytes, and the row's cells computed uncached."""
    op = CATALOG["A*a"]
    cache_dir = str(tmp_path_factory.mktemp("aa_cache"))
    classify_operator(op, [5], cache_dir=cache_dir)
    path = row_path(cache_dir, op, 5)
    fresh, = classify_operator(op, [5])
    return cache_dir, path, path.read_bytes(), fresh


@settings(max_examples=80, deadline=None)
@given(truncate=st.booleans(), data=st.data())
def test_damaged_cache_never_changes_a_result(aa_cache, truncate, data):
    # the row file truncated at any byte, or any one of its bytes changed:
    # the cells equal an uncached run, and the file is rewritten whole
    cache_dir, path, raw, fresh = aa_cache
    # digest bytes and body bytes equally often: a changed body byte keeps
    # the length, so only the digest catches it
    at = data.draw(st.one_of(st.integers(0, 31),
                             st.integers(32, len(raw) - 1)), label="at")
    if truncate:
        path.write_bytes(raw[:at])
    else:
        flip = data.draw(st.integers(1, 255), label="flip")
        path.write_bytes(raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:])
    assert classify_operator(CATALOG["A*a"], [5], cache_dir=cache_dir) == [fresh]
    assert path.read_bytes() == raw


def test_cold_table_writes_one_file_per_row(capsys, tmp_path):
    code, _, _ = run(["table", "--operator", "A*a", "--primes", "3,5",
                      "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == sorted(
        row_path(tmp_path, CATALOG["A*a"], p).name for p in (3, 5))


def test_warm_frob_opens_one_file_and_solves_nothing(capsys, tmp_path, opened,
                                                     monkeypatch):
    # a cold query with a cache directory classifies and stores its whole
    # row, one without classifies its own point alone; a warm query at any
    # point of the row opens the one file and prints the uncached cell
    def frob(z, *flags):
        return run(["frob", "--operator", "A*a", "--prime", "7", "--point",
                    str(z), *flags], capsys)

    cache = ["--cache-dir", str(tmp_path)]
    points = spy(monkeypatch, classify, "unit_roots",
                 lambda f0, F0, z0, p, s: z0)
    uncached = [frob(z, "--no-cache") for z in range(1, 7)]
    assert points == [1, 2, 3, 4, 5, 6]
    del points[:]
    assert frob(1, *cache) == uncached[0]
    assert points == [1, 2, 3, 4, 5, 6]
    del opened[:], points[:]
    monkeypatch.setattr(catalog, "solve_series",
                        refuse("a warm query must not solve a series"))
    assert [frob(z, *cache) for z in range(1, 7)] == uncached
    assert points == []
    assert opened == [str(row_path(tmp_path, CATALOG["A*a"], 7))] * 6


def test_every_spec_of_one_operator_shares_its_rows(capsys, tmp_path,
                                                     monkeypatch):
    # a row's key holds the coefficient table, not the name: D*g's file named
    # three ways and by its catalog name reads the one row the first stored
    path = tmp_path / "dg.json"
    path.write_text(CATALOG["D*g"].to_json(), encoding="utf-8")
    cache = tmp_path / "cache"
    monkeypatch.chdir(tmp_path)
    def cell(spec):
        code, out, err = run(["frob", "--operator", spec, "--prime", "7",
                              "--point", "2", "--cache-dir", str(cache)], capsys)
        assert (code, err) == (0, "")
        assert os.listdir(cache) == [row_path(cache, CATALOG["D*g"], 7).name]
        return {k: v for k, v in json.loads(out).items() if k != "operator"}

    first = cell("dg.json")
    monkeypatch.setattr(catalog, "solve_series",
                        refuse("a stored row must not be solved again"))
    for spec in ["./dg.json", str(path), "D*g"]:
        assert cell(spec) == first


# Queries whose rows hold points that raise or escalate, with what each
# printed before rows were cached: (operator, p, z, --precision, exit code,
# the sha256 of stdout or the stderr line).  The adjoint square's table row
# at p = 5 fails, and its cell at z = 1 prints.
FROB_CASES = [
    ("A*d", 5, 1, 3, 0,
     "a5caf6a268551445f569886a36e6afd219cd77446ae4b468eebd914e732146ad"),
    ("A*d", 5, 2, 3, 1, "error: 2 admissible pairs (a, b) fit the residues "
                        "mod p^s at p = 5, s = 3\n"),
    ("A*d", 5, 2, None, 0,
     "57775e7d34d0ca6cde231b949d7d3adff509fa8afed01314f491b5c9d026c573"),
    ("data/aa_pullback.json", 7, 1, None, 0,
     "2707149d33a9c08b6094a474b486983bc7eb6a40efe68e0eac2812aa3128ea56"),
    ("data/aa_pullback.json", 7, 3, None, 1, "error: (a, b) = (-186, 750) "
     "lies outside the box |a| <= 93, |b| <= 394 at p = 7\n"),
    ("data/adjoint_square_a.json", 5, 1, None, 0,
     "d7472e4702a2641befc56889c184e5e9b31a6c53d8e601cb6d196fec5519887c"),
]


def test_each_point_keeps_its_outcome(capsys, tmp_path, monkeypatch):
    # uncached, cold and warm, in one cache directory in turn, each query
    # prints what it printed before rows were cached, and a row file holds
    # a cell for exactly the points whose uncached query prints one
    monkeypatch.chdir(Path(__file__).parent)

    def frob(spec, p, z, s, *flags):
        precision = [] if s is None else ["--precision", str(s)]
        return run(["frob", "--operator", spec, "--prime", str(p), "--point",
                    str(z), *precision, *flags], capsys)

    cache = ["--cache-dir", str(tmp_path)]
    for spec, p, z, s, code, want in FROB_CASES:
        got = [frob(spec, p, z, s, *flags)
               for flags in (["--no-cache"], cache, cache)]
        assert got == [got[0]] * 3
        if code:
            assert got[0] == (code, "", want)
        else:
            assert got[0][::2] == (0, "")
            assert hashlib.sha256(got[0][1].encode()).hexdigest() == want
    for spec, p, s in {case[:2] + case[3:4] for case in FROB_CASES}:
        settled = {z for z in range(1, p)
                   if frob(spec, p, z, s, "--no-cache")[0] == 0}
        path = row_path(tmp_path, cli._load_operator(spec), p, s)
        assert {cell[0] for cell in stored_cells(path)} == settled


def test_warm_rows_take_the_labels_of_the_forms_directory(tmp_path, capsys,
                                                          monkeypatch):
    # a row file holds no form label: a warm run under another
    # $FROBCY_FORMS_DIR prints the labels of an uncached run under it
    forms = tmp_path / "forms"
    forms.mkdir()
    (forms / "twists.json").write_text(json.dumps(
        {"label": "t", "ap": {"5": 2, "7": -24, "13": -22}}), encoding="utf-8")
    argv = ["table", "--operator", "A*a", "--primes", "5,7,13",
            "--format", "csv"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    plain = run(argv + cache, capsys)
    monkeypatch.setenv(classify.FORMS_DIR_ENV, str(forms))
    labelled = run(argv + ["--no-cache"], capsys)
    assert labelled != plain and ",t\n" in labelled[1]
    monkeypatch.setattr(classify, "cache_series",
                        refuse("a warm run must not fetch a series"))
    assert run(argv + cache, capsys) == labelled
    monkeypatch.delenv(classify.FORMS_DIR_ENV)
    assert run(argv + cache, capsys) == plain


def test_changed_package_digest_makes_every_row_a_miss(tmp_path, capsys,
                                                       monkeypatch):
    argv = ["table", "--operator", "A*a", "--operator", "B*a", "--primes",
            "3,5", "--format", "json", "--cache-dir", str(tmp_path)]
    cold = run(argv, capsys)
    stored = set(os.listdir(tmp_path))
    monkeypatch.setattr(series_module, "_package_digest", lambda: "0" * 64)
    fetches = spy(monkeypatch, classify, "cache_series",
                  lambda op, targets: targets)
    assert run(argv, capsys) == cold
    assert fetches == [[(3, 4), (5, 3)]] * 2
    assert len(stored) == 4 and stored < set(os.listdir(tmp_path))


def test_package_digest_is_taken_once_and_only_with_a_cache(tmp_path, capsys):
    # the sha256, by relative name, of the sha256 of every source and data
    # file of the package (never __pycache__), taken once per process by
    # the first run that uses a cache directory
    root = Path(series_module.__file__).parent
    digest = hashlib.sha256()
    for path in sorted([*root.glob("*.py"), *root.glob("data/*.json")]):
        digest.update(path.relative_to(root).as_posix().encode()
                      + hashlib.sha256(path.read_bytes()).digest())
    frob = ["frob", "--operator", "A*a", "--prime", "5", "--point", "2"]
    info = series_module._package_digest.cache_info
    assert run(frob + ["--no-cache"], capsys)[0] == 0
    assert info().currsize == 0
    for _ in ("cold", "warm"):
        assert run(frob + ["--cache-dir", str(tmp_path)], capsys)[0] == 0
    assert (info().misses, info().hits) == (1, 1)
    assert series_module._package_digest() == digest.hexdigest()


# -- table subcommand -----------------------------------------------------------------


class TestCmdTable:
    def test_csv_format_matches_library(self, capsys):
        code, out, _ = run(["table", "--operator", "A*a", "--operator", "C*a",
                            "--primes", "3,5", "--format", "csv", "--no-cache"],
                           capsys)
        assert code == 0
        assert out == cli._csv_tables([
            (name, p, row) for name in ("A*a", "C*a")
            for p, row in classified(CATALOG[name], (3, 5)).items()])
        header = out.splitlines()[0]
        assert header == "operator,p,z,status,a,b,alpha,beta,chi,ap,form"

    def test_operator_file_route(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(CATALOG["A*a"].to_json(), encoding="utf-8")
        code, out, _ = run(["table", "--operator", str(path),
                            "--primes", "3", "--no-cache"], capsys)
        assert code == 0
        assert md_cells(out, str(path), 3) == ["-", "-"]

    def test_product_file_takes_the_stored_square(self, capsys, tmp_path,
                                                  monkeypatch, corrected_tables):
        # a file holding D*g's coefficients is recognised as D*g: its square
        # is the stored one, so nothing is built
        monkeypatch.setattr(catalog, "wedge_square", refuse(
            "a catalog product's square must not be built"))
        path = tmp_path / "dg.json"
        path.write_text(CATALOG["D*g"].to_json(), encoding="utf-8")
        code, out, _ = run(["table", "--operator", str(path), "--primes",
                            "3,5,7", "--format", "json", "--no-cache"], capsys)
        assert code == 0
        assert json.loads(out)[str(path)] == {
            str(p): corrected_tables["D*g"][str(p)] for p in (3, 5, 7)}

    def test_undefined_cells_count_as_computed(self, capsys):
        code, _, err = run(["table", "--operator", "A*a", "--primes", "3",
                            "--no-cache"], capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("fmt", ["markdown", "json", "csv"])
    def test_repeated_operator_is_one_row(self, fmt, capsys):
        # a name given twice is swept once, in its first position
        def table(*names):
            argv = ["table", "--primes", "3", "--format", fmt, "--no-cache"]
            for name in names:
                argv += ["--operator", name]
            return run(argv, capsys)

        assert table("A*a", "A*a") == table("A*a")
        assert table("C*a", "A*a", "C*a", "A*a") == table("C*a", "A*a")

    def test_all_expands_in_place_among_other_names(self, capsys):
        # each "all" stands for the catalog where it is given, and a name
        # met again is dropped, so each operator is one row at its first place
        def table(*names):
            argv = ["table", "--primes", "3", "--format", "json", "--no-cache"]
            for name in names:
                argv += ["--operator", name]
            code, out, err = run(argv, capsys)
            assert code == 0 and err == ""
            return json.loads(out)

        mixed = table("B*a", "all", "A*a", "all")
        assert list(mixed) == ["B*a"] + [n for n in CATALOG if n != "B*a"]
        assert mixed == table("all")

    @pytest.mark.parametrize("fmt", ["markdown", "json", "csv"])
    def test_repeated_prime_is_one_row(self, fmt, capsys):
        # a prime listed twice is swept once, in its first position
        def table(primes):
            return run(["table", "--operator", "A*a", "--primes", primes,
                        "--format", fmt, "--no-cache"], capsys)

        assert table("3,3") == table("3")
        assert table("5,3,5,3") == table("5,3")

    def test_jobs_output_identical_to_serial(self, capsys):
        argv = ["table", "--operator", "A*a", "--operator", "C*a",
                "--primes", "3,5", "--format", "csv", "--no-cache"]
        _, serial, _ = run(argv, capsys)
        _, pooled, _ = run(argv + ["--jobs", "3"], capsys)
        assert pooled == serial

    def test_cache_and_nocache_output_identical(self, capsys, tmp_path):
        # into a cache directory that does not exist yet, then out of it
        argv = ["table", "--operator", "A*a", "--operator", "C*a",
                "--primes", "3,5", "--format", "csv"]
        cache = ["--cache-dir", str(tmp_path / "cache")]
        code, cold, err = run(argv + cache, capsys)
        assert code == 0 and err == "" and cold.startswith("operator,")
        assert run(argv + cache, capsys) == (0, cold, "")
        assert run(argv + ["--no-cache"], capsys) == (0, cold, "")


# -- one exterior square per operator ----------------------------------------------


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the worker pool by an in-process one that records its size
    and the tasks it maps."""
    import concurrent.futures

    class InlinePool:
        sizes, tasks = [], []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.tasks.extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return InlinePool


class TestWedgeMemo:
    """No memo of exterior squares: ``catalog.exterior_square`` loads or
    builds one on every call, and a round of rows makes one call."""

    @pytest.fixture
    def closing_checks(self, monkeypatch):
        """The operators that ``check_wedge`` checks, after a build or a
        load, and the operators that ``exterior_square`` builds."""
        return {"checked": spy(monkeypatch, wedge, "check_cy5", lambda q: q),
                "built": spy(monkeypatch, catalog, "wedge_square",
                             lambda op: op.name)}

    @pytest.mark.parametrize("cached", [True, False])
    def test_cold_table_builds_one_wedge(self, cached, capsys, tmp_path,
                                         closing_checks, corrected_tables):
        # an operator file that is no catalog product builds its exterior
        # square, once for its one round: A*b at 2z, whose cell at z is A*b's
        # at 2z mod p
        path = tmp_path / "mine.json"
        scaled = [[c * 2**i for c in row]
                  for i, row in enumerate(CATALOG["A*b"].coeffs)]
        path.write_text(ThetaOperator(scaled, name="mine").to_json(),
                        encoding="utf-8")
        flags = ["--cache-dir", str(tmp_path / "cache")] if cached \
            else ["--no-cache"]
        code, out, _ = run(["table", "--operator", str(path), "--primes",
                            "3,5,7", "--format", "json", *flags], capsys)
        assert code == 0
        assert closing_checks["built"] == [str(path)]
        assert len(closing_checks["checked"]) == 1
        assert json.loads(out)[str(path)] == {
            str(p): {str(z): corrected_tables["A*b"][str(p)][str(2 * z % p)]
                     for z in range(1, p)} for p in (3, 5, 7)}

    @pytest.mark.parametrize("cached", [True, False])
    def test_cold_table_loads_one_stored_wedge(self, cached, capsys, tmp_path,
                                               closing_checks, corrected_tables):
        # a catalog product loads its stored exterior square, checked once
        flags = ["--cache-dir", str(tmp_path)] if cached else ["--no-cache"]
        code, out, _ = run(["table", "--operator", "A*b", "--primes", "3,5,7",
                            "--format", "json", *flags], capsys)
        assert code == 0
        assert closing_checks["built"] == []
        assert [q.name for q in closing_checks["checked"]] == ["wedge(A*b)"]
        assert json.loads(out)["A*b"] == {
            str(p): corrected_tables["A*b"][str(p)] for p in (3, 5, 7)}

    def test_warm_cache_builds_no_wedge(self, capsys, tmp_path, monkeypatch):
        # smooth, fiber and undefined cells of A*a at p = 7
        frobs = [["frob", "--operator", "A*a", "--prime", "7", "--point", z]
                 for z in ("1", "3", "6")]
        table = ["table", "--operator", "A*a", "--primes", "5,7",
                 "--format", "json"]
        cache = ["--cache-dir", str(tmp_path)]
        cold = [run(argv + cache, capsys) for argv in [table]] + \
               [run(argv + ["--no-cache"], capsys) for argv in frobs]
        assert [code for code, _, _ in cold] == [0] * 4
        for module, name in ((wedge, "wedge_square"), (catalog, "wedge_square"),
                             (catalog, "exterior_square")):
            monkeypatch.setattr(module, name, refuse(
                "a warm cache must not build or load a wedge"))
        warm = [run(argv + cache, capsys) for argv in [table] + frobs]
        assert warm == cold


# -- one task and one exact series run per operator and role ------------------------


class TestOneRunPerRole:
    TWO = ["table", "--operator", "A*a", "--operator", "A*b", "--format", "json"]

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every series run, as (operator order, [(p, K, N), ...]).

        Both roles solve through ``catalog.operator_series``: a wedge in one
        run of its own (order 5), a catalog operator's own series in one run
        of its second-order right factor (order 2)."""
        return spy(monkeypatch, catalog, "solve_series",
                   lambda op, N, **kwargs: (op.theta_order, list(
                       kwargs.get("targets", [(None, None, N)]))))

    def test_one_task_per_operator(self, inline_pool, capsys):
        code, _, _ = run(self.TWO + ["--primes", "3,5,7", "--jobs", "8",
                                     "--no-cache"], capsys)
        assert code == 0
        assert inline_pool.tasks == [CATALOG["A*a"], CATALOG["A*b"]]

    def test_two_runs_per_operator_cold_none_warm(self, runs, capsys, tmp_path,
                                                  corrected_tables):
        argv = self.TWO + ["--primes", "3,5,7", "--cache-dir", str(tmp_path)]
        code, cold, _ = run(argv, capsys)
        assert code == 0
        # per operator the wedge (order 5) first, then its own series (the
        # right factor, order 2), each one run for p = 3, 5, 7 at their
        # starting s = 4, 3, 3
        assert [order for order, _t in runs] == [5, 2, 5, 2]
        assert all(t == [(3, 4, 80), (5, 3, 124), (7, 3, 342)] for _o, t in runs)
        assert len(os.listdir(tmp_path)) == 6  # one file per row
        for name in ("A*a", "A*b"):
            assert json.loads(cold)[name] == {
                str(p): corrected_tables[name][str(p)] for p in (3, 5, 7)}
        del runs[:]
        code, warm, _ = run(argv, capsys)
        assert code == 0 and warm == cold and runs == []

    def test_partly_warm_cache_runs_only_the_missing_prime(self, runs, capsys,
                                                           tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        run(self.TWO + ["--primes", "3,5"] + cache, capsys)
        del runs[:]
        code, out, _ = run(self.TWO + ["--primes", "3,5,7"] + cache, capsys)
        assert code == 0
        assert runs == [(5, [(7, 3, 342)]), (2, [(7, 3, 342)])] * 2
        _, uncached, _ = run(self.TWO + ["--primes", "3,5,7", "--no-cache"],
                             capsys)
        assert out == uncached

    def test_table_wide_runs_each_right_factor_once(self, runs, capsys,
                                                    monkeypatch):
        # the table_wide sweep: 12 operators whose right factors interleave
        monkeypatch.setattr(catalog, "wedge_square", refuse(
            "a catalog product must not build its wedge"))
        names = [name for left in "ABCD" for name in
                 (f"{left}*a", f"{left}*b", f"{left}*c")]
        argv = ["table", "--primes", "3,5,7", "--format", "json", "--no-cache"]
        for name in names:
            argv += ["--operator", name]
        code, _, _ = run(argv, capsys)
        assert code == 0
        # a wedge run per operator, a right-factor run per right factor
        assert [order for order, _t in runs] == [5, 2] * 3 + [5] * 9
        assert all(t == [(3, 4, 80), (5, 3, 124), (7, 3, 342)] for _o, t in runs)

    def test_failed_wedge_stores_nothing_and_runs_no_series(self, runs, capsys,
                                                            bad_operators):
        # an operator file whose exterior square has no order-5 relation is
        # refused at load: no series runs, and the cache directory stays empty
        cache, path = bad_operators["cache"], bad_operators["not_self_dual"]
        code, _, err = run(["table", "--operator", path, "--primes", "3,5",
                            "--cache-dir", cache], capsys)
        assert code == 2 and err == f"error: operator {path} is not self-dual\n"
        assert runs == [] and not os.path.exists(cache)

    def test_escalation_goes_through_the_cache(self, runs, capsys, tmp_path):
        # A*d at p = 5 starts at s = 3, where z = 2 fits two pairs: that cell
        # escalates to s = 4, and the row, both rounds, is one file
        cache = ["--cache-dir", str(tmp_path)]
        table = ["table", "--operator", "A*d", "--primes", "5",
                 "--format", "json"] + cache
        code, cold, _ = run(table, capsys)
        assert code == 0 and json.loads(cold)["A*d"]["5"]["2"] == "(-8,-82)*"
        assert runs == [(5, [(5, 3, 124)]), (2, [(5, 3, 124)]),
                        (5, [(5, 4, 624)]), (2, [(5, 4, 624)])]
        path = row_path(tmp_path, CATALOG["A*d"], 5)
        assert os.listdir(tmp_path) == [path.name]
        del runs[:]
        code, warm, _ = run(table, capsys)
        assert code == 0 and warm == cold and runs == []
        code, out, _ = run(["frob", "--operator", "A*d", "--prime", "5",
                            "--point", "2"] + cache, capsys)
        got = json.loads(out)
        assert code == 0 and runs == []
        assert got["cell"] == "(-8,-82)*" and got["precision"] == 4
        assert got["certificate"]["escalated"] is True


# -- frob subcommand ------------------------------------------------------------------


class TestCmdFrob:
    def frob(self, capsys, *extra):
        code, out, err = run(["frob", "--no-cache", *extra], capsys)
        return code, (json.loads(out) if code == 0 else None), err

    def test_singular_cell(self, capsys):
        code, got, _ = self.frob(capsys, "--operator", "A*a",
                                 "--prime", "7", "--point", "3")
        assert code == 0
        assert got["status"] == "singular"
        assert (got["a"], got["b"]) == (32, -94)
        assert (got["chi"], got["ap"], got["form"]) == (-1, 24, "8/1")
        assert got["cell"] == "(32,-94)*"
        assert got["quartic"] == frobenius_quartic(32, -94, 7)
        assert got["precision"] == 3
        assert got["certificate"] == {"fiber": True, "candidates": 1,
                                      "escalated": False}
        assert got["r1"]["prime"] == 7 and got["r1"]["residue"] % 7 != 0

    def test_reducible_cell(self, capsys):
        code, got, _ = self.frob(capsys, "--operator", "A*a",
                                 "--prime", "7", "--point", "5")
        assert code == 0
        assert got["status"] == "reducible"
        assert (got["a"], got["b"]) == (10, 50)
        assert (got["alpha"], got["beta"]) == (24, -14)
        assert got["cell"] == "(10,50)'"

    def test_smooth_cell(self, capsys):
        code, got, _ = self.frob(capsys, "--operator", "A*a",
                                 "--prime", "7", "--point", "1")
        assert code == 0
        assert got["status"] == "smooth"
        assert (got["a"], got["b"]) == (2, -46)
        assert got["alpha"] is None and got["chi"] is None
        assert got["certificate"] == {"fiber": False, "candidates": 1,
                                      "escalated": False}

    def test_undefined_cell(self, capsys):
        code, got, _ = self.frob(capsys, "--operator", "A*a",
                                 "--prime", "7", "--point", "6")
        assert code == 0
        assert got["status"] == "undefined"
        assert got["a"] is None and got["cell"] == "-"
        assert got["certificate"] == {"fiber": False, "candidates": 0,
                                      "escalated": False}

    def test_inconsistent_cell(self, capsys, monkeypatch):
        # an in-box pair that fits no admissible shape: "!", and no candidate
        monkeypatch.setattr(classify, "assemble_frobenius",
                            lambda r1, rh, p, s, **kwargs: (0, 294, None))
        code, got, _ = self.frob(capsys, "--operator", "A*a", "--prime", "7",
                                 "--point", "1", "--precision", "4")
        assert code == 0
        assert got["status"] == "inconsistent" and got["cell"] == "(0,294)!"
        assert got["certificate"] == {"fiber": False, "candidates": 0,
                                      "escalated": False}

    def test_point_reduced_mod_p(self, capsys):
        _, base, _ = self.frob(capsys, "--operator", "A*a",
                               "--prime", "7", "--point", "3")
        _, shifted, _ = self.frob(capsys, "--operator", "A*a",
                                  "--prime", "7", "--point", "10")
        assert shifted == base

    def test_explicit_precision(self, capsys):
        code, got, _ = self.frob(capsys, "--operator", "A*a", "--prime", "3",
                                 "--point", "1", "--precision", "5")
        assert code == 0
        assert got["precision"] == 5 and got["status"] == "undefined"

    @pytest.mark.parametrize("name, p", [("A*a", 7), ("A*d", 5)])
    def test_certified_precision_prints_the_default_cell(self, name, p, capsys):
        # --precision s at the s a default query settles a cell prints the
        # same JSON, apart from whether the cell escalated to s
        escalated = []
        for z in range(1, p):
            query = ("--operator", name, "--prime", str(p), "--point", str(z))
            code, want, _ = self.frob(capsys, *query)
            assert code == 0
            code, got, _ = self.frob(capsys, *query,
                                     "--precision", str(want["precision"]))
            assert code == 0
            escalated.append(want["certificate"].pop("escalated"))
            assert got["certificate"].pop("escalated") is False
            assert got == want, z
        assert any(escalated) == (name == "A*d")

    def test_padic_precision_loss_exits_one(self, capsys, monkeypatch):
        # a FrobcyError raised inside the cell pipeline
        def lossy(f0, F0, z0, p, s):
            raise LiftOutOfBound("synthetic lift out of its bound")

        monkeypatch.setattr(classify, "unit_roots", lossy)
        assert run(["frob", "--operator", "A*a", "--prime", "7", "--point",
                    "2", "--no-cache"], capsys) == (
            1, "", "error: synthetic lift out of its bound\n")


# -- wedge / catalog subcommands ------------------------------------------------------


class TestCmdWedge:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_stored_square_prints_as_the_built_one(self, name, wedge_of,
                                                   monkeypatch, capsys):
        # a catalog name prints its stored square, with the built one's bytes
        monkeypatch.setattr(catalog, "wedge_square", refuse(
            "a catalog name must not build its wedge"))
        code, out, _ = run(["wedge", "--operator", name], capsys)
        assert code == 0 and out == wedge_of(name).to_json() + "\n"


class TestCmdCatalog:
    def test_list_emits_interchange_json(self, capsys):
        code, out, _ = run(["catalog", "--list"], capsys)
        assert code == 0
        entries = json.loads(out)
        assert {e["name"] for e in entries} == set(CATALOG)
        mine = next(e for e in entries if e["name"] == "A*a")
        assert json.dumps(mine) == json.dumps(
            json.loads(CATALOG["A*a"].to_json()))


class TestCatalogRootsOnDemand:
    def test_import_runs_no_root_search(self):
        # the import searches no roots; the listing, one per operator
        script = (
            "import contextlib, io\n"
            "import frobcy.polyrat as polyrat\n"
            "calls = []\n"
            "real = polyrat.rational_roots\n"
            "polyrat.rational_roots = lambda poly: calls.append(poly) or real(poly)\n"
            "import frobcy.cli\n"
            "imported = len(calls)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    frobcy.cli.main(['catalog'])\n"
            "print(imported, len(calls))\n")
        assert python_c(script) == ["0", "24"]

    def test_computing_commands_load_no_fractions(self, tmp_path):
        # only the catalog listing needs Fraction, so a frob query or a table
        # row starts without fractions and the decimal module it imports
        script = (
            "import contextlib, io, sys\n"
            "import frobcy.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    frob = frobcy.cli.main(['frob', '--operator', 'A*a', '--prime',\n"
            "                            '5', '--point', '2', '--cache-dir',\n"
            "                            sys.argv[1]])\n"
            "    table = frobcy.cli.main(['table', '--operator', 'A*a',\n"
            "                             '--primes', '3', '--no-cache'])\n"
            "print(frob, table, *sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
        assert python_c(script, str(tmp_path)) == ["0", "0"]


# -- congruence subcommand ------------------------------------------------------------


class TestCmdCongruence:
    def test_sequence_sweep_ok(self, capsys):
        code, out, _ = run(["congruence", "--sequence", "c", "--prime", "5",
                            "--nmax", "50", "--smax", "2"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["ok"] is True
        assert [r["power"] for r in got["reports"]] == [1, 2]
        assert all(r["failures"] == [] for r in got["reports"])

    def test_catalog_operator_route(self, capsys):
        code, out, _ = run(["congruence", "--sequence", "A*a", "--prime", "3",
                            "--nmax", "40", "--smax", "1"], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_corrupted_terms_fail_with_exit_one(self, capsys, monkeypatch):
        def corrupted(name, targets):
            series, = catalog.sequence_residues(name, targets)
            series = list(series)  # the memo's list stays as it is
            series[25] += 1
            return [series]

        monkeypatch.setattr(cli, "sequence_residues", corrupted)
        code, out, _ = run(["congruence", "--sequence", "c", "--prime", "5",
                            "--nmax", "50", "--smax", "1"], capsys)
        assert code == 1
        got = json.loads(out)
        assert got["ok"] is False
        assert any(f["n"] == 25 for f in got["reports"][0]["failures"])

    @pytest.mark.parametrize("argv, sha256", [
        (["c", "--prime", "5", "--nmax", "50", "--smax", "2"],
         "c5a9bb308c02965e11222c9fcb4462c0eb7e5ffaf4b9796b65b9b25e0fd1f999"),
        (["A*a", "--prime", "3", "--nmax", "40", "--smax", "1"],
         "5d4008dfbf8d32ec1dcbdb09ade26169efd269565f843b91333fa004eff4075f"),
    ])
    def test_output_bytes_are_unchanged(self, capsys, argv, sha256):
        code, out, _ = run(["congruence", "--sequence"] + argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_report_that_compares_nothing_says_so(self, capsys):
        # D*g at p = 5: c(floor(n/5)) == 0 (mod 5) for every n >= 5, so no
        # ratio is compared at any s; ok (no failure) and exit 0 stand
        code, out, _ = run(["congruence", "--sequence", "D*g", "--prime", "5",
                            "--nmax", "200", "--smax", "3"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["ok"] is True
        for s, report in enumerate(got["reports"], 1):
            assert report["checked"] == 0 and report["ok"] is True
            assert report["summary"] == (
                f"p=5 s={s} n<=200: 0 ratios checked, nothing to compare "
                f"since no two n with a unit denominator share a class mod "
                f"5^{s} = {5**s}, 196 skipped (non-unit denominator)")


# -- legendre subcommand --------------------------------------------------------------


class TestCmdLegendre:
    def test_ordinary_point(self, capsys):
        code, out, _ = run(["legendre", "--prime", "7", "--point", "3"],
                           capsys)
        assert code == 0
        got = json.loads(out)
        assert got["status"] == "ordinary"
        assert got["pi"] == {"prime": 7, "precision": 2, "residue": 39}
        assert got["ap"] == 4
        assert got["zeta_numerator"] == [1, -4, 7]

    def test_supersingular_point(self, capsys):
        code, out, _ = run(["legendre", "--prime", "3", "--point", "2"],
                           capsys)
        assert code == 0
        got = json.loads(out)
        assert got["status"] == "supersingular"
        assert got["pi"] is None and got["ap"] is None

    def test_trace_beyond_the_hasse_bound_exits_one(self, capsys,
                                                     monkeypatch):
        # a ratio of eps = -1 makes pi = 1 and a_p = 8 > 2 sqrt(7)
        monkeypatch.setattr(frobenius, "dwork_ratio", lambda *args: -1)
        code, out, err = run(["legendre", "--prime", "7", "--point", "2"],
                             capsys)
        assert (code, out) == (1, "")
        assert err == "error: |a_p| = 8 exceeds 2 sqrt(p) at p = 7\n"


# -- errors: one base, one line, one exit code ---------------------------------------


def test_every_exception_class_derives_from_frobcy_error():
    defined = []
    for info in pkgutil.iter_modules(frobcy.__path__):
        module = importlib.import_module(f"frobcy.{info.name}")
        defined += [cls for _n, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__]
    names = {cls.__name__ for cls in defined}
    assert {"LiftOutOfBound", "Uncertified", "UnexpectedOrder"} <= names
    assert [c for c in defined if not issubclass(c, FrobcyError)] == []


@pytest.fixture
def bad_operators(tmp_path):
    """The files of ``BAD_OPERATORS`` under their keys: four that are no
    self-dual fourth-order MUM operator, four with theta as a right factor
    (one of them unnamed) and one whose exterior square has a non-integral
    series.  Then one more of that last kind, unnamed, one that is no JSON
    object, one without coeffs, three whose coeffs or a row of them is a
    string or an object, three whose name is not a string, three with a
    coefficient and two with an aesz that is a JSON number but not an
    integer, a self-dual operator theta^4 - c z (2 theta + 1)^4 with c of
    4000 digits, whose exterior square has coefficients of about 8000, a
    form fixture directory with such an a_p, a directory path that does not
    exist, an empty cache directory, and a file whose coeffs are nested
    past the interpreter's recursion limit."""
    paths = {}

    def write(key, text):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text, encoding="utf-8")

    for key, op in BAD_OPERATORS.items():
        write(key, op.to_json())
    data = json.loads(BAD_OPERATORS["order2"].to_json())
    del data["coeffs"]
    write("no_coeffs", json.dumps(data))
    # coeffs whose rows are strings, read digit by digit if let through, or
    # objects, read by their keys
    for key, table in (("coeffs_strings", ["001", "123"]),
                       ("coeffs_object", {"01": 0}),
                       ("row_object", [[0, 0, 1], {"01": 0}])):
        write(key, json.dumps({"theta_order": 2, "coeffs": table}))
    write("not_object", '[[0, 0, 1]]')
    for key, number in (("aesz_float", "1.5"), ("aesz_bool", "true")):
        data = json.loads(CATALOG["A*a"].to_json())
        data["aesz"] = "@"
        write(key, json.dumps(data).replace('"@"', number))
    data = json.loads(BAD_OPERATORS["wedge_not_integral"].to_json())
    del data["name"]
    write("wedge_unnamed", json.dumps(data))
    for key, name in (("name_int", 5), ("name_null", None),
                      ("name_list", ["x"])):
        data = json.loads(CATALOG["A*a"].to_json())
        data["name"] = name
        write(key, json.dumps(data))
    # A*a with its z theta^0 coefficient a JSON number that is not an integer
    for key, number in (("coeff_inf", "1e400"), ("coeff_float", "1.5"),
                        ("coeff_bool", "true")):
        data = json.loads(CATALOG["A*a"].to_json())
        data["coeffs"][1][0] = "@"
        write(key, json.dumps(data).replace('"@"', number))
    c = int("7" * 4000)
    write("huge_coefficient", json.dumps({
        "theta_order": 4, "coeffs": [[0, 0, 0, 0, 1],
                                     [str(-c * k) for k in (1, 8, 24, 32, 16)]],
    }))
    # a form fixture directory whose one fixture has a_7 = 1e400
    paths["forms"] = tmp_path / "forms"
    paths["forms"].mkdir()
    (paths["forms"] / "inf_ap.json").write_text(
        '{"label": "q", "ap": {"7": 1e400}}', encoding="utf-8")
    paths["missing_dir"] = tmp_path / "missing_dir"
    paths["cache"] = tmp_path / "cache"
    # as text: json.dumps cannot write it
    write("deeply_nested",
          '{"theta_order": 4, "coeffs": ' + "[" * 5000 + "]" * 5000 + "}")
    return {key: str(path) for key, path in paths.items()}


# The one table of command-line failures.  A row is a command line, split on
# whitespace after any leading NAME=value words (each sets an environment
# variable) with {key} a path of ``bad_operators``; its exit code; and its
# one stderr line, whole, with each path named by its {key}
@pytest.mark.parametrize("argv, code, message", [
    # an operator that is no catalog name and no file
    ("table --operator Z*z --primes 3", 2,
     "error: unknown operator 'Z*z': not a catalog name and not a file\n"),
    ("wedge --operator nope", 2,
     "error: unknown operator 'nope': not a catalog name and not a file\n"),
    # primes that are not odd primes, listed or as a range without one
    ("table --operator A*a --primes 9", 2, "error: 9 is not an odd prime\n"),
    ("table --operator A*a --primes 2", 2, "error: 2 is not an odd prime\n"),
    ("table --operator A*a --primes 8..10", 2,
     "error: no odd primes in range '8..10'\n"),
    ("frob --operator A*a --prime 9 --point 1", 2,
     "error: 9 is not an odd prime\n"),
    ("legendre --prime 15 --point 3", 2, "error: 15 is not an odd prime\n"),
    ("frob --operator A*a --prime 7 --point 14", 2,
     "error: the point must be nonzero mod p\n"),
    ("legendre --prime 7 --point 1", 2,
     "error: the fiber at s0 = 1 is degenerate\n"),
    ("frob --operator A*a --prime 7 --point 2 --precision 0 --no-cache", 2,
     "error: --precision must be >= 1, not 0\n"),
    # two digits at p = 7 leave five admissible pairs; an explicit precision
    # is never raised behind the user's back
    ("frob --operator A*a --prime 7 --point 2 --precision 2 --no-cache", 1,
     "error: 5 admissible pairs (a, b) fit the residues mod p^s at p = 7, "
     "s = 2\n"),
    # an operator without an order-5 exterior square is refused at load
    ("frob --operator {order2} --prime 7 --point 2 --no-cache", 2,
     "error: operator {order2} is not fourth-order MUM\n"),
    ("table --operator {order2} --primes 7 --no-cache --format csv", 2,
     "error: operator {order2} is not fourth-order MUM\n"),
    ("wedge --operator {order2}", 2,
     "error: operator {order2} is not fourth-order MUM\n"),
    ("frob --operator {not_self_dual} --prime 7 --point 2 --no-cache", 2,
     "error: operator {not_self_dual} is not self-dual\n"),
    ("table --operator {not_self_dual} --primes 7 --no-cache --format csv", 2,
     "error: operator {not_self_dual} is not self-dual\n"),
    ("wedge --operator {not_self_dual}", 2,
     "error: operator {not_self_dual} is not self-dual\n"),
    # theta as a right factor: the series is 1, so no cell can be right; a
    # file is named by its path, named or not
    ("frob --operator {theta_factor} --prime 7 --point 2 --no-cache", 2,
     "error: theta is a right factor of operator {theta_factor}, so its "
     "series is the constant 1\n"),
    ("table --operator {theta_factor} --primes 7 --no-cache", 2,
     "error: theta is a right factor of operator {theta_factor}, so its "
     "series is the constant 1\n"),
    ("table --operator {theta_unnamed} --primes 7 --no-cache", 2,
     "error: theta is a right factor of operator {theta_unnamed}, so its "
     "series is the constant 1\n"),
    ("frob --operator {theta_unnamed} --prime 7 --point 2 --no-cache", 2,
     "error: theta is a right factor of operator {theta_unnamed}, so its "
     "series is the constant 1\n"),
    ("table --operator {wedge_unnamed} --primes 7 --no-cache", 1,
     "error: {wedge_unnamed} p=7: NonIntegralSolution: coefficient c_2 is not "
     "an integer (operator wedge({wedge_unnamed}))\n"),
    ("frob --operator {not_mum} --prime 7 --point 2 --no-cache", 2,
     "error: operator {not_mum} is not fourth-order MUM\n"),
    ("table --operator {not_mum} --primes 7 --no-cache", 2,
     "error: operator {not_mum} is not fourth-order MUM\n"),
    ("wedge --operator {not_mum}", 2,
     "error: operator {not_mum} is not fourth-order MUM\n"),
    ("frob --operator {wedge_not_integral} --prime 7 --point 2 --no-cache", 1,
     "error: coefficient c_2 is not an integer (operator "
     "wedge({wedge_not_integral}))\n"),
    ("table --operator {wedge_not_integral} --primes 7 --no-cache", 1,
     "error: {wedge_not_integral} p=7: NonIntegralSolution: coefficient c_2 "
     "is not an integer (operator wedge({wedge_not_integral}))\n"),
    ("frob --operator {no_coeffs} --prime 7 --point 2 --no-cache", 2,
     "error: operator file '{no_coeffs}' has no field 'coeffs'\n"),
    ("table --operator {no_coeffs} --primes 7 --no-cache", 2,
     "error: operator file '{no_coeffs}' has no field 'coeffs'\n"),
    ("table --operator {name_int} --primes 7 --no-cache --format csv", 2,
     "error: operator file '{name_int}': name must be a string, not 5\n"),
    ("table --operator {name_null} --primes 7 --no-cache --format csv", 2,
     "error: operator file '{name_null}': name must be a string, not None\n"),
    ("frob --operator {name_list} --prime 7 --point 2 --no-cache", 2,
     "error: operator file '{name_list}': name must be a string, not "
     "['x']\n"),
    ("frob --operator {order2} --prime 7 --point 2 --precision 3 --no-cache",
     2, "error: operator {order2} is not fourth-order MUM\n"),
    ("frob --operator {order2} --prime 7 --point 2 --precision 3 "
     "--cache-dir {cache}", 2, "error: operator {order2} is not fourth-order "
     "MUM\n"),
    ("frob --operator {not_mum} --prime 7 --point 2 --precision 3 --no-cache",
     2, "error: operator {not_mum} is not fourth-order MUM\n"),
    ("frob --operator {not_mum} --prime 7 --point 2 --precision 3 "
     "--cache-dir {cache}", 2, "error: operator {not_mum} is not fourth-order "
     "MUM\n"),
    ("frob --operator {wedge_not_integral} --prime 7 --point 2 --precision 3 "
     "--no-cache", 1, "error: coefficient c_2 is not an integer (operator "
     "wedge({wedge_not_integral}))\n"),
    ("frob --operator {wedge_not_integral} --prime 7 --point 2 --precision 3 "
     "--cache-dir {cache}", 1, "error: coefficient c_2 is not an integer "
     "(operator wedge({wedge_not_integral}))\n"),
    ("congruence --sequence zz --prime 5", 2,
     "error: unknown sequence 'zz'\n"),
    ("table --operator A*a --primes 3 --jobs 0", 2,
     "error: --jobs must be >= 1, not 0\n"),
    ("table --operator A*a --primes , --no-cache", 2,
     "error: no primes in list ','\n"),
    ("table --operator A*a --primes , --no-cache --format json", 2,
     "error: no primes in list ','\n"),
    ("congruence --sequence a --prime 5 --smax 0", 2,
     "error: --smax must be >= 1, not 0\n"),
    # the congruence ceilings, checked before the sequence is looked up
    ("congruence --sequence a --prime 5 --smax 10", 2,
     "error: --smax must be <= 9, not 10\n"),
    ("congruence --sequence zz --prime 5 --nmax 1000000000", 2,
     "error: --nmax must be <= 50000, not 1000000000\n"),
    # a prime above --nmax would compare nothing at any s
    ("congruence --sequence c --prime 2003 --nmax 2000 --smax 1", 2,
     "error: --prime 2003 is above --nmax 2000, so no two n <= 2000 share a "
     "class mod p\n"),
    ("frob --operator {coeff_inf} --prime 7 --point 2 --no-cache", 2,
     "error: operator file '{coeff_inf}': not an integer: inf\n"),
    ("table --operator {coeff_inf} --primes 7 --no-cache", 2,
     "error: operator file '{coeff_inf}': not an integer: inf\n"),
    ("table --operator {coeff_float} --primes 7 --no-cache --format csv", 2,
     "error: operator file '{coeff_float}': not an integer: 1.5\n"),
    ("wedge --operator {coeff_bool}", 2,
     "error: operator file '{coeff_bool}': not an integer: True\n"),
    ("frob --operator {coeffs_strings} --prime 7 --point 2 --no-cache", 2,
     "error: operator file '{coeffs_strings}': coeffs must be a list of lists "
     "of integers\n"),
    ("table --operator {coeffs_object} --primes 7 --no-cache", 2,
     "error: operator file '{coeffs_object}': coeffs must be a list of lists "
     "of integers\n"),
    ("table --operator {row_object} --primes 7 --no-cache --format csv", 2,
     "error: operator file '{row_object}': coeffs must be a list of lists of "
     "integers\n"),
    ("frob --operator {aesz_float} --prime 7 --point 2 --no-cache", 2,
     "error: operator file '{aesz_float}': not an integer: 1.5\n"),
    ("wedge --operator {aesz_bool}", 2,
     "error: operator file '{aesz_bool}': not an integer: True\n"),
    # admitted, but its square's coefficients are too long to print
    ("wedge --operator {huge_coefficient}", 1,
     "error: operator wedge({huge_coefficient}) has a coefficient too long "
     "to write in decimal\n"),
    ("frob --operator {not_object} --prime 7 --point 2 --no-cache", 2,
     "error: operator file '{not_object}': an operator file holds one JSON "
     "object\n"),
    ("frob --operator A*a --prime 5 --point 2 --precision 5", 2,
     "error: --precision must be <= 4 at p = 5, not 5\n"),
    # the first number the prime check cannot decide
    ("frob --operator A*a --prime 3317044064679887385961981 --point 2 "
     "--no-cache", 2, "error: 3317044064679887385961981 is beyond the prime "
     "check, which decides n < 3317044064679887385961981\n"),
    ("table --operator A*a --primes 3317044064679887385961979..3317044064679887"
     "385961981 --no-cache", 2, "error: 3317044064679887385961981 is beyond "
     "the prime check, which decides n < 3317044064679887385961981\n"),
    # the prime ceilings of the series-backed commands, checked before any
    # work: a range's end before its primes are enumerated
    ("table --operator A*a --primes 3..1000000000 --no-cache", 2,
     "error: 1000000000 is above the prime ceiling 61\n"),
    ("table --operator A*a --primes 5,67 --no-cache --format csv", 2,
     "error: 67 is above the prime ceiling 61\n"),
    # primes that are no numbers, in a list and at a range's end
    ("table --operator A*a --primes abc", 2,
     "error: not a prime range or list: 'abc'\n"),
    ("table --operator A*a --primes 3..x", 2,
     "error: not a prime range or list: '3..x'\n"),
    ("frob --operator A*a --prime 101 --point 2 --no-cache", 2,
     "error: 101 is above the prime ceiling 61\n"),
    ("legendre --prime 8000017 --point 2", 2,
     "error: 8000017 is above the prime ceiling 8000009\n"),
    ("legendre --prime 2305843009213693951 --point 2", 2,
     "error: 2305843009213693951 is above the prime ceiling 8000009\n"),
    # a leading NAME=value word sets an environment variable for the run;
    # the fixtures are read before any row, whatever its cells
    ("FROBCY_FORMS_DIR={forms} frob --operator A*a --prime 7 --point 4 "
     "--no-cache", 2,
     "error: form fixture '{forms}/inf_ap.json': not an integer: inf\n"),
    ("FROBCY_FORMS_DIR={forms} frob --operator A*a --prime 7 --point 2 "
     "--no-cache", 2,
     "error: form fixture '{forms}/inf_ap.json': not an integer: inf\n"),
    ("FROBCY_FORMS_DIR={forms} table --operator A*a --primes 5,7 --no-cache",
     2, "error: form fixture '{forms}/inf_ap.json': not an integer: inf\n"),
    ("FROBCY_FORMS_DIR={forms} table --operator A*a --operator B*b --primes 5 "
     "--no-cache --jobs 2", 2,
     "error: form fixture '{forms}/inf_ap.json': not an integer: inf\n"),
    ("FROBCY_FORMS_DIR={forms} table --no-cache --operator B*b --primes 5,7 "
     "--format csv", 2,
     "error: form fixture '{forms}/inf_ap.json': not an integer: inf\n"),
    # an operator file nested past the recursion limit is one usage error
    ("table --operator {deeply_nested} --primes 7 --no-cache", 2,
     "error: operator file '{deeply_nested}': maximum recursion depth "
     "exceeded while decoding a JSON array from a unicode string\n"),
    ("frob --operator {deeply_nested} --prime 7 --point 2 --no-cache", 2,
     "error: operator file '{deeply_nested}': maximum recursion depth "
     "exceeded while decoding a JSON array from a unicode string\n"),
    ("wedge --operator {deeply_nested}", 2,
     "error: operator file '{deeply_nested}': maximum recursion depth "
     "exceeded while decoding a JSON array from a unicode string\n"),
    # a path that is no directory, missing or a regular file
    ("FROBCY_FORMS_DIR={missing_dir} frob --operator A*a --prime 7 --point 4 "
     "--no-cache", 2,
     "error: FROBCY_FORMS_DIR '{missing_dir}' is not a directory\n"),
    ("FROBCY_FORMS_DIR={order2} frob --operator A*a --prime 7 --point 4 "
     "--no-cache", 2, "error: FROBCY_FORMS_DIR '{order2}' is not a directory\n"),
])
def test_failure_is_one_line_with_its_exit_code(argv, code, message,
                                                bad_operators, capsys,
                                                monkeypatch):
    words = argv.format(**bad_operators).split()
    while "=" in words[0]:
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    started = time.perf_counter()
    got, out, err = run(words, capsys)
    if "prime ceiling" in message:  # refused before any work
        assert time.perf_counter() - started < 1.0
    assert (got, out) == (code, "")
    assert err == message.format(**bad_operators)


def test_classify_is_an_unknown_command(capsys):
    # argparse's usage error takes two lines, so the table cannot hold it;
    # the classify command is gone, and table --format csv prints its bytes
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--operator", "A*a", "--primes", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'classify'" in capsys.readouterr().err


@pytest.mark.parametrize("fixture, message", [
    ("{bad", "form fixture"),
    (json.dumps({"label": "q", "weight": 4}), "has no field 'ap'"),
    (json.dumps({"label": None, "ap": {"7": -24}}), "field 'label'"),
    (json.dumps({"label": 5, "ap": {"7": -24}}), "field 'label'"),
    (json.dumps({"label": "", "ap": {"7": -24}}), "field 'label'"),
    (json.dumps({"label": "x", "ap": {"9": -24}}), "field 'ap' has key 9"),
    (json.dumps({"label": "x", "ap": {"7": -24, "2": 1}}),
     "field 'ap' has key 2"),
    (json.dumps({"label": "x", "ap": {"3317044064679887385961981": 1}}),
     "3317044064679887385961981 is beyond the prime check"),
    pytest.param('{"label": "x", "ap": ' + "[" * 5000 + "]" * 5000 + "}",
                 "maximum recursion depth exceeded", id="nested_ap"),
])
def test_malformed_form_fixture_names_the_file(fixture, message, tmp_path,
                                               monkeypatch, capsys):
    # A*a at p = 7, z = 4 is a singular fiber whose a_p misses the built-in
    # forms, so the fixture directory is read
    (tmp_path / "broken.json").write_text(fixture, encoding="utf-8")
    monkeypatch.setenv(classify.FORMS_DIR_ENV, str(tmp_path))
    code, _, err = run("frob --operator A*a --prime 7 --point 4 --no-cache"
                       .split(), capsys)
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: ") and "broken.json" in err and message in err
    code, out, err = run("table --operator A*a --primes 7 --no-cache".split(),
                         capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: form fixture") and "broken.json" in err


# check_operator's refusal of each file of BAD_OPERATORS that has no usable
# exterior square or series, for the file at {path}
REFUSALS = {
    "order2": "operator {path} is not fourth-order MUM",
    "not_mum": "operator {path} is not fourth-order MUM",
    "p0_not_monic": "operator {path} has P_0 = 49 theta^4, not theta^4",
    "not_self_dual": "operator {path} is not self-dual",
    **{key: "theta is a right factor of operator {path}, so its series is "
            "the constant 1"
       for key in ("theta_factor", "theta_factor_self_dual", "theta4",
                   "theta_unnamed")},
}

REFUSING_COMMANDS = pytest.mark.parametrize("command", [
    "table --operator {path} --primes 5,7,11 --no-cache --format json",
    "frob --operator {path} --prime 7 --point 3 --no-cache",
    # refused before the first row of the operator listed before it
    "table --operator D*g --operator {path} --primes 29 --no-cache "
    "--format json --jobs 1",
    "table --operator D*g --operator {path} --primes 29 --no-cache "
    "--format json --jobs 2",
    "wedge --operator {path}"],
    ids=["table", "frob", "table_second", "table_second_jobs2", "wedge"])


def assert_refused_at_load(key, command, bad_operators, capsys, monkeypatch):
    """``command`` on the file of ``key`` exits 2 with empty stdout and one
    line naming the file and what it lacks, before any series or exterior
    square."""
    fetched = refuse("a series or an exterior square was fetched")
    monkeypatch.setattr(classify, "cache_series", fetched)
    monkeypatch.setattr(cli, "exterior_square", fetched)
    path = bad_operators[key]
    code, out, err = run(command.format(path=path).split(), capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {REFUSALS[key].format(path=path)}\n"


@pytest.mark.parametrize("key", ["order2", "not_mum", "p0_not_monic",
                                 "not_self_dual", "theta_factor",
                                 "theta_unnamed"])
@REFUSING_COMMANDS
def test_unusable_operator_is_refused_at_load(key, command, bad_operators,
                                              capsys, monkeypatch):
    assert_refused_at_load(key, command, bad_operators, capsys, monkeypatch)


@pytest.mark.parametrize("key", ["theta_factor_self_dual", "theta4"])
@REFUSING_COMMANDS
def test_theta_right_factor_is_refused_before_any_series(key, command,
                                                         bad_operators, capsys,
                                                         monkeypatch):
    # L = M theta has L 1 = 0, so f0 = 1 and r1 = 1 exactly.  Unrefused,
    # the self-dual one gets 20 certified cells at p = 5, 7, 11, all wrong,
    # and theta^4 fails its rows with a LiftOutOfBound that blames the lift
    assert_refused_at_load(key, command, bad_operators, capsys, monkeypatch)


@pytest.mark.parametrize("factor", ["a", "d"])
def test_right_factor_of_order_two_prints_no_cell(factor, capsys):
    # L2+ L2 for the catalog right factor a or d (tests/data): fourth-order,
    # MUM and self-dual, but its series is L2's, of rank 2, so no cell of it
    # means anything.  Its rows fail today; a refusal at load must keep
    # every line of this test true.
    path = str(Path(__file__).parent / "data" / f"adjoint_square_{factor}.json")
    code, out, err = run(["table", "--operator", path, "--primes", "5,7",
                          "--no-cache", "--format", "json"], capsys)
    assert code != 0
    assert not any(json.loads(out or "{}").values())
    lines = err.splitlines()
    assert lines and all(line.startswith("error: ") for line in lines)
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["wedge_not_integral"])
def test_failed_rows_cross_a_pool_as_exceptions(key, bad_operators, capsys):
    # a worker returns each failed row as its exception, pickled, and the
    # parent writes its line: a pool prints what a serial run prints
    argv = ["table", "--operator", bad_operators[key], "--operator", "A*a",
            "--primes", "3,5", "--no-cache", "--format", "json"]
    serial = run(argv + ["--jobs", "1"], capsys)
    assert serial[0] == 1 and serial[2].count("\n") == 2
    assert run(argv + ["--jobs", "2"], capsys) == serial


def test_named_file_is_reported_by_its_spec(bad_operators, capsys):
    # A*a with one coefficient changed, saved under the name "A*a": its
    # failed rows and its exterior square read its path, not A*a
    path = bad_operators["wedge_not_integral"]
    code, out, err = run(["table", "--operator", "B*c", "--operator", path,
                          "--primes", "3..7", "--no-cache"], capsys)
    assert code == 1 and [line for line in out.splitlines()
                          if line.startswith("## ")] == \
        [f"## B*c, p = {p}" for p in (3, 5, 7)]
    assert err == "".join(f"error: {path} p={p}: NonIntegralSolution: "
                          f"coefficient c_2 is not an integer (operator "
                          f"wedge({path}))\n" for p in (3, 5, 7))


def test_operator_file_rows_carry_its_spec_in_every_output(bad_operators,
                                                           tmp_path, capsys):
    # A*a with row i times 3^i, saved under the name "A*a": its cells are
    # A*a's at 3 z0, and its rows and the failed rows of a file with a
    # non-integral exterior square read the path given to --operator in
    # every format, serial or pooled
    op = CATALOG["A*a"]
    aa3 = str(tmp_path / "aa3.json")
    Path(aa3).write_text(ThetaOperator(
        [[c * 3**i for c in row] for i, row in enumerate(op.coeffs)],
        name="A*a").to_json(), encoding="utf-8")
    wni = bad_operators["wedge_not_integral"]
    argv = ["table", "--operator", "A*a", "--operator", aa3, "--operator",
            wni, "--primes", "5,7", "--no-cache", "--format"]
    errors = "".join(f"error: {wni} p={p}: NonIntegralSolution: coefficient "
                     f"c_2 is not an integer (operator wedge({wni}))\n"
                     for p in (5, 7))
    outs = {}
    for fmt in cli.FORMATS:
        serial = run(argv + [fmt, "--jobs", "1"], capsys)
        assert serial[0] == 1 and serial[2] == errors
        assert run(argv + [fmt, "--jobs", "2"], capsys) == serial
        outs[fmt] = serial[1]
    csv_rows = [line.split(",") for line in outs["csv"].splitlines()[1:]]
    assert [(row[0], row[1]) for row in csv_rows] == \
        [(name, str(p)) for name in ("A*a", aa3) for p in (5, 7)
         for _z in range(1, p)]
    assert [f"## {name}, p = {p}" for name in ("A*a", aa3) for p in (5, 7)] \
        == [line for line in outs["markdown"].splitlines()
            if line.startswith("## ")]
    tables = json.loads(outs["json"])
    assert list(tables) == ["A*a", aa3]
    for p in (5, 7):
        assert tables[aa3][str(p)] == {str(z): tables["A*a"][str(p)][
            str(3 * z % p)] for z in range(1, p)}
    code, out, _ = run(["frob", "--operator", aa3, "--prime", "5", "--point",
                        "2", "--no-cache"], capsys)
    assert code == 0 and json.loads(out)["operator"] == aa3


def test_row_failure_among_succeeding_rows(monkeypatch, capsys):
    # a failure inside one row's cells fails that row alone, in every
    # format: the rows of the same operator at p = 3 and 5 print as they do
    # without p = 7, and p = 7 alone prints nothing
    def table(primes, fmt):
        return run(["table", "--operator", "A*a", "--primes", primes,
                    "--no-cache", "--format", fmt], capsys)

    clean = {fmt: table("3,5", fmt) for fmt in cli.FORMATS}
    assert all(code == 0 and err == "" for code, _, err in clean.values())
    real = classify.assemble_frobenius

    def lossy(r1, rh, p, s, **kwargs):
        if p == 7:
            raise LiftOutOfBound("synthetic lift out of its bound")
        return real(r1, rh, p, s, **kwargs)

    monkeypatch.setattr(classify, "assemble_frobenius", lossy)
    failed = "error: A*a p=7: LiftOutOfBound: synthetic lift out of its bound\n"
    for fmt in cli.FORMATS:
        assert table("3,5,7", fmt) == (1, clean[fmt][1], failed)
        assert table("7", fmt) == (1, "", failed)
    assert json.loads(clean["json"][1]) == {"A*a": {
        "3": {"1": "-", "2": "-"},
        "5": {"1": "(6,-6)'", "2": "(28,38)*", "3": "-", "4": "(32,62)*"}}}


def test_form_fixtures_are_read_once(tmp_path, monkeypatch, capsys):
    # A*a at p = 5, 7 and 13 has three split cells whose a_p misses the
    # built-in forms; the one fixture stores all three
    fixture = tmp_path / "twists.json"
    fixture.write_text(json.dumps(
        {"label": "t", "ap": {"5": 2, "7": -24, "13": -22}}), encoding="utf-8")
    monkeypatch.setenv(classify.FORMS_DIR_ENV, str(tmp_path))
    reads = spy(monkeypatch, classify, "read_input",
                lambda path, *args, **kwargs: path)
    labels, match = [], classify.match_singular_ap

    def recorded_match(p, ap):
        labels.append(match(p, ap))
        return labels[-1]

    monkeypatch.setattr(classify, "match_singular_ap", recorded_match)
    code, _, _ = run(["table", "--operator", "A*a", "--primes", "5,7,13",
                      "--no-cache"], capsys)
    assert code == 0
    assert labels == ["t", "8/1", "8/1", "t", "8/1", "t"]
    assert reads.count(fixture) == 1


# A JSON value of every kind a hand-edited file might hold in place of an
# integer, a list or an object
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.sampled_from(["1e3", "+5"]),
    st.text(max_size=4), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.just(10**30), st.integers(max_value=-1))


@st.composite
def one_value_replaced(draw, doc):
    """A copy of the JSON document ``doc`` with one field, row or cell (a
    value at any depth) replaced by a drawn JSON value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] \
                and draw(st.booleans()):
            node = node[key]
        else:
            node[key] = draw(JSON_VALUES)
            return doc


def run_quietly(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One directory for the files of the generated cases."""
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_malformed_operator_file_fails_in_one_line(data, fuzz_dir):
    # the A*a entry of ``catalog --list``
    entry = json.loads(CATALOG["A*a"].to_json())
    path = fuzz_dir / "op.json"
    path.write_text(json.dumps(data.draw(one_value_replaced(entry))),
                    encoding="utf-8")
    code, _, err = run_quietly(["frob", "--operator", str(path), "--prime",
                                "5", "--point", "2", "--no-cache"])
    assert code in (0, 1, 2) and "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_malformed_form_fixture_is_a_usage_error(data, fuzz_dir):
    # a new directory per case, since each is read once per process
    forms = Path(tempfile.mkdtemp(dir=fuzz_dir))
    fixture = {"label": "q", "weight": 4, "ap": {"7": -24, "11": 5}}
    (forms / "form.json").write_text(
        json.dumps(data.draw(one_value_replaced(fixture))), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(classify.FORMS_DIR_ENV, str(forms))
        code, _, err = run_quietly(["frob", "--operator", "A*a", "--prime",
                                    "7", "--point", "4", "--no-cache"])
    assert code in (0, 2) and "Traceback" not in err
    if code:
        assert err.startswith("error: form fixture") and err.count("\n") == 1


@seed(14)
@settings(max_examples=120, deadline=None)
@given(P=self_dual_p())
def test_fuzzed_self_dual_operator_file(P, fuzz_dir):
    # theta^4 - z P(theta): each row and the one frob query succeed or fail
    # in one line, and P(0) = 0 (theta a right factor) is refused
    op = ThetaOperator([[0, 0, 0, 0, 1], [-c for c in P]], name="fuzz")
    path = str(fuzz_dir / "self_dual.json")
    Path(path).write_text(op.to_json(), encoding="utf-8")
    table = ["table", "--operator", path, "--primes", "5,7", "--format",
             "json"]
    code, out, err = run_quietly(table + ["--no-cache"])
    assert code in (0, 1, 2) and "Traceback" not in err
    lines = err.splitlines()
    assert all(line.startswith("error: ") for line in lines)
    if code == 2:
        assert out == "" and len(lines) == 1
    else:
        # a table whose rows all failed prints nothing
        rows = json.loads(out)[path] if out else {}
        failed = [p for p in (5, 7) if str(p) not in rows]
        assert code == (1 if failed else 0)
        assert [line.split(":")[1] for line in lines] == \
            [f" {path} p={p}" for p in failed]
    if P[0] == 0:
        assert code == 2 and out == ""
    cached = run_quietly(table + ["--cache-dir", str(fuzz_dir / "cache")])
    assert cached[:2] == (code, out)
    code, out, err = run_quietly(["frob", "--operator", path, "--prime", "7",
                                  "--point", "2", "--no-cache"])
    assert code in (0, 1, 2) and "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if P[0] == 0:
        assert code == 2


def test_pool_never_has_more_workers_than_tasks(inline_pool, capsys):
    code, _, _ = run(["table", "--operator", "A*a", "--operator", "A*b",
                      "--primes", "3,5", "--jobs", "8", "--no-cache"], capsys)
    assert code == 0 and inline_pool.sizes == [2]


# -- start-up: one subparser, no OpenSSL -----------------------------------------------


class TestStartUp:
    def test_import_loads_no_openssl_hashlib(self):
        # hashlib loads OpenSSL's libcrypto; the cache hashes with _sha256,
        # or with _sha2 from CPython 3.12 on
        if not any(map(importlib.util.find_spec, ("_sha256", "_sha2"))):
            pytest.skip("no built-in sha256 module")
        script = ("import sys\n"
                  "import frobcy.cli\n"
                  "print(*sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        assert python_c(script) == []

    def test_sha2_is_tried_before_hashlib(self):
        # CPython 3.12 renamed _sha256 to _sha2: with _sha256 missing, the
        # cache hashes with a stub _sha2 and hashlib stays unloaded
        script = ("import sys, types\n"
                  "sys.modules['_sha256'] = None\n"
                  "stub = types.ModuleType('_sha2')\n"
                  "stub.sha256 = lambda data=b'': None\n"
                  "sys.modules['_sha2'] = stub\n"
                  "import frobcy.cli, frobcy.series\n"
                  "print(frobcy.series.sha256 is stub.sha256)\n"
                  "print(*sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        assert python_c(script) == ["True"]

    def test_sha256_is_sha256(self):
        # the FIPS 180-2 test vector of "abc"
        assert series_module.sha256(b"abc").hexdigest() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    @pytest.fixture
    def added(self, monkeypatch):
        """The names of the subparsers that ``cli.main`` builds."""
        return spy(monkeypatch, argparse._SubParsersAction, "add_parser",
                   lambda action, name, **kwargs: name)

    def test_a_command_builds_its_subparser_alone(self, added, capsys, tmp_path):
        code, _, _ = run(["frob", "--operator", "A*a", "--prime", "5",
                          "--point", "2", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert added == ["frob"]

    @pytest.mark.parametrize("argv", [["--help"], [], ["nope"]],
                             ids=["help", "none", "unknown"])
    def test_help_builds_every_subparser(self, added, capsys, argv):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert added == list(cli.COMMANDS)

    def test_left_over_arguments_build_every_subparser(self, added, capsys):
        with pytest.raises(SystemExit):
            cli.main(["wedge", "--operator", "A*a", "--bogus"])
        assert added == ["wedge", *cli.COMMANDS]
        assert "{table,frob,wedge,congruence,legendre,catalog}" in \
            capsys.readouterr().err


# -- exit: the heap frozen for the interpreter's teardown ---------------------------


class TestExitFreeze:
    def test_import_registers_no_hook(self):
        assert python_c(
            "import atexit\n"
            "before = atexit._ncallbacks()\n"
            "import frobcy.cli\n"
            "print(atexit._ncallbacks() - before)\n") == ["0"]

    def test_main_registers_one_freeze_at_exit(self):
        # two runs leave one hook, so the exit functions freeze once; the
        # heap is frozen only when they run
        assert python_c(
            "import atexit, contextlib, gc, os\n"
            "import frobcy.cli\n"
            "real, calls = gc.freeze, []\n"
            "gc.freeze = lambda: calls.append(1) or real()\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "    codes = [frobcy.cli.main(['catalog']) for _ in range(2)]\n"
            "print(*codes, gc.get_freeze_count())\n"
            "atexit._run_exitfuncs()\n"
            "print(len(calls), gc.get_freeze_count() > 0)\n") == [
                "0", "0", "0", "1", "True"]


# -- console entry point --------------------------------------------------------------


def run_frobcy(args):
    """Run the ``frobcy`` command in a fresh process on the checkout under test.

    The installed console script is used when one is on PATH, else
    ``python -m frobcy``; either way the child imports the same ``frobcy``
    package as this process."""
    exe = shutil.which("frobcy")
    cmd = [exe] if exe else [sys.executable, "-m", "frobcy"]
    return subprocess.run(cmd + args, capture_output=True, text=True,
                          env=checkout_env(), timeout=120)


class TestConsoleScript:
    def test_script_maps_to_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        meta = tomllib.loads(pyproject.read_text("utf-8"))
        assert meta["project"]["scripts"]["frobcy"] == "frobcy.cli:main"

    def test_help_lists_subcommands(self):
        done = run_frobcy(["--help"])
        assert done.returncode == 0
        for name in ("table", "frob", "wedge", "congruence", "legendre",
                     "catalog"):
            assert name in done.stdout
        assert "classify" not in done.stdout

    def test_table_end_to_end(self):
        done = run_frobcy(["table", "--operator", "A*a", "--primes", "7",
                           "--no-cache"])
        assert done.returncode == 0
        assert md_cells(done.stdout, "A*a", 7) == [
            "(2,-46)", "(-8,2)", "(32,-94)*", "(80,290)*", "(10,50)'", "-"]

    def test_readme_command_lines_parse(self):
        # every `frobcy ...` line of the README's sh blocks, parsed, not run
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text("utf-8"),
                            re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("frobcy ")]
        assert lines
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")

    def test_missing_subcommand_is_usage_error(self):
        done = run_frobcy([])
        assert done.returncode == 2

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_1_without_traceback(self, unbuffered):
        # `frobcy catalog | head -1` closes the pipe while frobcy still writes;
        # closing the read end before the child starts makes that reliable.
        # Unbuffered, the failing write is a print inside the subcommand;
        # buffered, it is the flush when the subcommand returns
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "frobcy", "catalog"],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120,
                                  env=checkout_env(PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) <= 1
