"""Shared fixtures, helpers and oracles, and the acceptance-criteria report.

``checkout_env`` and ``python_c`` start a fresh interpreter on the checkout
under test, ``load_module`` runs a script of the repository as a module, and
``refuse`` and ``spy`` stand in for a package function that a test forbids or
watches.  The oracles (Horner's rule, the Legendre trace by its character
sum, the closed forms of the catalog sequences and others) share no code
with the package.

The terminal summary prints one PASS/FAIL line per numbered criterion in
``test_acceptance.py`` so the verdict is readable at a glance, then the wall
time of each test file (setup, call and teardown of its tests, so a
session fixture counts where it is first built), slowest first.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import strategies as st

import frobcy
from frobcy.catalog import CATALOG, SECOND_ORDER
from frobcy.classify import classify_operator
from frobcy.diffop import NonIntegralSolution, ThetaOperator, solve_series
from frobcy.polyrat import poly_mul
from frobcy.wedge import wedge_square

ACCEPTANCE_OPERATORS = ("A*a", "B*a", "C*c", "D*g")
TABLE_PRIMES = (3, 5, 7, 11, 13, 17)


@pytest.fixture(scope="session")
def appendix_tables():
    """The embedded golden tables: {operator: {prime: {z: cell}}}."""
    text = resources.files("frobcy").joinpath("data/appendix_tables.json") \
                                    .read_text("utf-8")
    return json.loads(text)["tables"]


@pytest.fixture(scope="session")
def appendix_errata():
    """Recorded corrections to the stored tables: a list of per-cell entries
    with the stored cell, the recomputed cell, and the defect kind."""
    text = resources.files("frobcy").joinpath("data/appendix_errata.json") \
                                    .read_text("utf-8")
    return json.loads(text)["entries"]


@pytest.fixture(scope="session")
def corrected_tables(appendix_tables, appendix_errata):
    """The stored tables with every recorded correction applied — what a
    fresh computation of all cells must reproduce exactly."""
    tables = json.loads(json.dumps(appendix_tables))  # deep copy
    for e in appendix_errata:
        tables[e["operator"]][str(e["p"])][str(e["z"])] = e["corrected"]
    return tables


def package_memos() -> list:
    """Every per-process memo of the package: each attribute with a
    ``cache_clear`` on a loaded ``frobcy.*`` module."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and key.split(".")[0] == "frobcy"]
    return [value for m in modules for value in vars(m).values()
            if callable(getattr(value, "cache_clear", None))]


def checkout_env(**extra) -> dict:
    """This process's environment and ``extra``, with the ``frobcy`` under
    test first on PYTHONPATH: the environment of every child a test starts."""
    src = str(Path(frobcy.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def python_c(script: str, *args: str) -> list:
    """The words that ``python -c script args`` prints in a fresh interpreter
    on the checkout under test, which must exit 0."""
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=checkout_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def load_module(path: Path):
    """The module that the Python file at ``path`` defines, run afresh."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def refuse(reason: str):
    """A stand-in for a function that must not be called: any call fails the
    test with ``reason``."""
    def refused(*args, **kwargs):
        raise AssertionError(reason)
    return refused


def spy(monkeypatch, owner, name: str, record) -> list:
    """Patch ``owner.name`` so that each call appends ``record(*args,
    **kwargs)`` to the list returned, then runs as before."""
    seen, real = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return seen


@pytest.fixture(autouse=True)
def fresh_catalog_memos():
    """Every test starts with empty per-process memos of the package (the
    catalog's factor runs and stored exterior squares, the stored forms, and
    any memo added later), so a test that counts series runs, wedge loads or
    fixture reads does not depend on the tests before it, and a test that
    patches a run leaves no result of it behind."""
    for memo in package_memos():
        memo.cache_clear()
    yield
    for memo in package_memos():
        memo.cache_clear()


@pytest.fixture(scope="session")
def catalog_table():
    """The full table, computed once per session: ``rows`` maps each catalog
    name to the list that one uncached ``classify_operator`` call over
    TABLE_PRIMES returned, in catalog order, ``runs`` holds the operator
    name of every ``solve_series`` run that ``catalog`` made for them, in
    order, counted from empty package memos, and ``seconds`` the wall time
    of the calls."""
    from frobcy import catalog as catalog_module

    for memo in package_memos():
        memo.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        runs = spy(mp, catalog_module, "solve_series",
                   lambda op, *args, **kwargs: op.name)
        t0 = time.monotonic()
        rows = {name: classify_operator(op, TABLE_PRIMES)
                for name, op in CATALOG.items()}
        seconds = time.monotonic() - t0
    for memo in package_memos():
        memo.cache_clear()
    return {"rows": rows, "runs": runs, "seconds": seconds}


@pytest.fixture(scope="session")
def wedge_of():
    """Exterior squares by catalog name, built by ``wedge_square`` once per
    test session: ``wedge_of(name)`` keeps its own memo, so each catalog
    operator's order-5 companion is computed once and reused everywhere."""
    return lru_cache(maxsize=None)(lambda name: wedge_square(CATALOG[name]))


@pytest.fixture(scope="session")
def acceptance_tables(catalog_table):
    """The classification rows of the four acceptance operators at every
    table prime, by (name, p), from the session's full table: the shared
    input of criteria 2 and 4."""
    return {(name, p): row for name in ACCEPTANCE_OPERATORS
            for p, row in zip(TABLE_PRIMES, catalog_table["rows"][name])}


# operators that a command must refuse or whose rows must fail, written to
# files by test_cli's ``bad_operators`` fixture under their keys
BAD_OPERATORS = {
    "order2": ThetaOperator([[0, 0, 1], [-4, -16, -16]], name="leg16"),
    # theta^4 - z (theta+1)^3
    "not_self_dual": ThetaOperator([[0, 0, 0, 0, 1], [-1, -3, -3, -1]],
                                   name="nsd"),
    "not_mum": ThetaOperator([[0, 0, 0, 1, 1], [-1]], name="nmum"),
    # 49 theta^4 - z (2 theta+1)^4: self-dual, but its P_0 is not monic, as
    # when an apparent singularity (7 - k z)^2 is cleared into integer form
    "p0_not_monic": ThetaOperator(
        [[0, 0, 0, 0, 49], [-1, -8, -24, -32, -16]], name="p0_49"),
    # theta^4 - z theta (theta+1)^3, not self-dual either
    "theta_factor": ThetaOperator([[0, 0, 0, 0, 1], [0, -1, -3, -3, -1]],
                                  name="tf"),
    # theta^4 - 16 z theta (theta+1) (2 theta+1)^2: self-dual, with an
    # order-5 exterior square and integral series, yet L 1 = 0
    "theta_factor_self_dual": ThetaOperator(
        [[0, 0, 0, 0, 1], [0, -16, -80, -128, -64]], name="tfsd"),
    "theta4": ThetaOperator([[0, 0, 0, 0, 1]], name="theta4"),
    "theta_unnamed": ThetaOperator(
        [[0, 0, 0, 0, 1], [0, -16, -80, -128, -64]]),
    # A*a with its z theta^0 coefficient raised by 1, under A*a's name: its
    # exterior square has a non-integral series
    "wedge_not_integral": ThetaOperator(
        [[c + ((i, j) == (1, 0)) for j, c in enumerate(row)]
         for i, row in enumerate(CATALOG["A*a"].coeffs)],
        name="A*a", aesz=CATALOG["A*a"].aesz),
}


@st.composite
def self_dual_p(draw):
    """The coefficients of a P(theta) with P(theta) = P(-theta-1), in one of
    two shapes: a constant times two pairs (d theta + a)(d theta + d - a),
    or alpha (theta^2+theta)^2 + beta (theta^2+theta) + gamma."""
    if draw(st.booleans()):
        poly = [draw(st.integers(-4, 4))]
        for _ in range(2):
            d = draw(st.integers(1, 4))
            a = draw(st.integers(0, d))
            # a factor d or d^2 makes the series of some pairs integral, so
            # that some tables are emitted
            k = draw(st.sampled_from((1, d, d * d)))
            poly = poly_mul(poly, poly_mul([k * a, k * d], [d - a, d]))
        return poly
    alpha, beta, gamma = (draw(st.integers(-16, 16)) for _ in range(3))
    return [gamma, beta, alpha + beta, 2 * alpha, alpha]


def classified(op, primes, **kwargs):
    """{p: cells} from one ``classify_operator`` call over ``primes``,
    raising the exception of the first row that failed."""
    rows = classify_operator(op, primes, **kwargs)
    for row in rows:
        if isinstance(row, Exception):
            raise row
    return dict(zip(primes, rows))


# -- test-only oracles ---------------------------------------------------------------


def horner_mod(coeffs, x, modulus):
    """c_0 + c_1 x + ... + c_N x^N mod ``modulus`` by Horner's rule, at any
    point: the reference for the (p-1)-fold that ``dwork_ratio`` sums."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def hadamard_product(xs, ys):
    """Coefficientwise products x_0 y_0 .. x_N y_N of two sequences of equal
    length."""
    assert len(xs) == len(ys), (len(xs), len(ys))
    return [x * y for x, y in zip(xs, ys)]


def legendre_trace(p: int, s0: int) -> int:
    """a_p = -sum_x chi(x (x-1) (x-s0)) of the Legendre curve at s0 over F_p,
    chi the quadratic character, by the character sum."""
    e = (p - 1) // 2
    total = 0
    for x in range(p):
        v = x * (x - 1) * (x - s0) % p
        if v:
            total += 1 if pow(v, e, p) == 1 else -1
    return -total


def quintic_wedge_coefficients(N):
    """A_0 .. A_N of the auxiliary quintic sequence

        A_n = sum_k (5k)!/k!^5 * (5(n-k))!/(n-k)!^5
                    * (1 + k(-5 H_k + 5 H_{n-k} + 5 H_{5k} - 5 H_{5(n-k)})),

    with integrality certified term by term (NonIntegralSolution on failure).
    """
    top = 5 * N
    H = [Fraction(0)] * (top + 1)
    for i in range(1, top + 1):
        H[i] = H[i - 1] + Fraction(1, i)
    fact = [factorial(5 * k) // factorial(k) ** 5 for k in range(N + 1)]
    out = []
    for n in range(N + 1):
        acc = Fraction(0)
        for k in range(n + 1):
            weight = 1 + k * (-5 * H[k] + 5 * H[n - k] + 5 * H[5 * k]
                              - 5 * H[5 * (n - k)])
            acc += fact[k] * fact[n - k] * weight
        if acc.denominator != 1:
            raise NonIntegralSolution(f"A_{n} = {acc} is not an integer")
        out.append(acc.numerator)
    return out


# -- closed forms of the catalog sequences (independent of the recurrences) ---------


def _central_terms(a: int, b: int, q: int, scale: int, N: int):
    """u_0 .. u_N of u_n = scale^n sum_k (x)_k/k! ((y)_(n-k)/(n-k)!)^2, i.e.
    scale^n sum_k (-1)^k binom(-x, k) binom(-y, n-k)^2, with x = a/q and
    y = b/q, on integers only.

    The columns A_k = (a/q)_k q^(2k)/k! and B_m = (b/q)_m q^(2m)/m! are
    integers, so u_n = scale^n sum_k A_k q^(2k) B_(n-k)^2 / q^(4n); every
    division is checked to be exact.
    """
    def column(c):
        out = [1]
        for k in range(1, N + 1):
            v, rem = divmod(out[-1] * (c + (k - 1) * q) * q, k)
            if rem:
                raise NonIntegralSolution(f"column ({c}/{q})_{k} is not integral")
            out.append(v)
        return out

    A = [x * q ** (2 * k) for k, x in enumerate(column(a))]
    B2 = [x * x for x in column(b)]
    out = []
    for n in range(N + 1):
        acc = 0
        for k in range(n + 1):
            acc += A[k] * B2[n - k]
        u, rem = divmod(scale**n * acc, q ** (4 * n))
        if rem:
            raise NonIntegralSolution(f"u_{n} of ({a}/{q}, {b}/{q}) is not an integer")
        out.append(u)
    return out


_CENTRAL_PARAMS = {"e": (1, 1, 2, 16), "h": (2, 1, 3, 27),
                   "i": (3, 1, 4, 64), "j": (5, 1, 6, 432)}

_CLOSED_FORMS = {
    "A": lambda n: comb(2 * n, n) ** 2,
    "B": lambda n: factorial(3 * n) // factorial(n) ** 3,
    "C": lambda n: factorial(4 * n) // (factorial(2 * n) * factorial(n) ** 2),
    "D": lambda n: factorial(6 * n) // (factorial(3 * n) * factorial(2 * n)
                                        * factorial(n)),
    "a": lambda n: sum(comb(n, k) ** 3 for k in range(n + 1)),
    "b": lambda n: sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1)),
    "c": lambda n: sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1)),
    "d": lambda n: sum(comb(n, k) * comb(2 * k, k) * comb(2 * (n - k), n - k)
                       for k in range(n + 1)),
    "f": lambda n: sum((-1) ** k * 3 ** (n - 3 * k) * comb(n, 3 * k)
                       * factorial(3 * k) // factorial(k) ** 3
                       for k in range(n // 3 + 1)),
    "g": lambda n: sum(8 ** (n - i) * (-1) ** i * comb(n, i) * comb(i, j) ** 3
                       for i in range(n + 1) for j in range(i + 1)),
}


def sequence_term(name: str, n: int) -> int:
    """n-th term of a catalog sequence by its closed binomial-sum form."""
    if name in _CENTRAL_PARAMS:
        return _central_terms(*_CENTRAL_PARAMS[name], n)[n]
    return _CLOSED_FORMS[name](n)


def sequence_terms(name: str, N: int):
    """Terms 0..N by the closed form.

    Subexpressions that do not depend on the outer index (g's inner cube sum,
    the central binomials of c and d, f's column (3k)!/k!^3 and powers of 3,
    the columns of e, h, i, j) are computed once and shared, and each row's
    binomials binom(n, k), binom(n + k, k) and g's binom(i, j) are stepped
    along k or j by exact integer ratios; the formulas themselves are
    evaluated literally.
    """
    if name in ("a", "b", "c"):
        central = [comb(2 * k, k) for k in range(N + 1)]
        out = []
        for n in range(N + 1):
            bnk = bnkk = 1  # binom(n, k), binom(n + k, k)
            acc = 0
            for k in range(n + 1):
                if k:
                    bnk = bnk * (n - k + 1) // k
                    bnkk = bnkk * (n + k) // k
                if name == "a":
                    acc += bnk**3
                else:
                    acc += bnk * bnk * (bnkk if name == "b" else central[k])
            out.append(acc)
        return out
    if name == "f":
        # (3k)!/k!^3 and the powers of 3, shared by every row
        column = [factorial(3 * k) // factorial(k) ** 3 for k in range(N // 3 + 1)]
        pow3 = [3**m for m in range(N + 1)]
        return [sum((-1) ** k * pow3[n - 3 * k] * comb(n, 3 * k) * column[k]
                    for k in range(n // 3 + 1)) for n in range(N + 1)]
    if name == "g":
        inner = []
        for i in range(N + 1):
            bij = acc = 1  # binom(i, j), stepped along j
            for j in range(1, i + 1):
                bij = bij * (i - j + 1) // j
                acc += bij**3
            inner.append(acc)
        pow8 = [8 ** m for m in range(N + 1)]
        out = []
        for n in range(N + 1):
            bni = 1
            acc = 0
            for i in range(n + 1):
                if i:
                    bni = bni * (n - i + 1) // i
                term = pow8[n - i] * bni * inner[i]
                acc += -term if i & 1 else term
            out.append(acc)
        return out
    if name == "d":
        central = [comb(2 * k, k) for k in range(N + 1)]
        out = []
        for n in range(N + 1):
            bnk = 1
            acc = 0
            for k in range(n + 1):
                if k:
                    bnk = bnk * (n - k + 1) // k
                acc += bnk * central[k] * central[n - k]
            out.append(acc)
        return out
    if name in _CENTRAL_PARAMS:
        return _central_terms(*_CENTRAL_PARAMS[name], N)
    return [sequence_term(name, n) for n in range(N + 1)]



def recurrence_terms(name: str, N: int) -> list:
    """Terms 0..N of a second-order sequence by its operator's recurrence."""
    return solve_series(SECOND_ORDER[name], N)

# -- acceptance summary -------------------------------------------------------------

_CRITERIA = {
    1: "worked example: intermediates and quartic at A*a, p=7, z=2",
    2: "table reproduction: A*a, B*a, C*c, D*g for p = 3 .. 17",
    3: "series fixtures: first f0/F0 coefficients and the printed wedge",
    4: "Weil property at every smooth and reducible cell",
    5: "eta-product matching at the two anchor singular points",
    6: "reducible split (6,-6) -> (20,-14) at p = 5",
    7: "Legendre unit roots equal brute-force traces, p = 5 .. 13",
    8: "ratio congruences for sequences a-j, p = 3 .. 13, n <= 2000",
    9: "operator solutions equal coefficientwise factor products",
    10: "horizontal sections to order 60, with negative controls",
    11: "order-4 and order-5 algebraic conditions on all 24 + wedges",
    12: "quintic auxiliary sequence integral through A_50",
}

_outcomes: dict = {}
_file_seconds: dict = {}


def pytest_runtest_logreport(report):
    path = report.nodeid.split("::", 1)[0]
    _file_seconds[path] = _file_seconds.get(path, 0.0) + report.duration
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call" or (report.when == "setup" and report.failed):
        _outcomes[n] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    write = terminalreporter.write_line
    if _outcomes:
        terminalreporter.write_sep("=", "acceptance criteria")
        for n in sorted(_outcomes):
            word = "PASS" if _outcomes[n] == "passed" else "FAIL"
            write(f"criterion {n:2d}: {word} — {_CRITERIA[n]}")
    if _file_seconds:
        terminalreporter.write_sep("=", "wall time by test file")
        for path, seconds in sorted(_file_seconds.items(),
                                    key=lambda kv: -kv[1]):
            write(f"{seconds:6.1f} s  {path}")
        write(f"{sum(_file_seconds.values()):6.1f} s  all files")
