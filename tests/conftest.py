"""Shared fixtures and the acceptance-criteria report.

The terminal summary prints one PASS/FAIL line per numbered criterion in
``test_acceptance.py`` so the verdict is readable at a glance.
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction
from importlib import resources
from math import factorial

import pytest

from frobcy.catalog import get_entry
from frobcy.classify import classify_operator
from frobcy.diffop import NonIntegralSolution
from frobcy.wedge import wedge_square

ACCEPTANCE_OPERATORS = ("A*a", "B*a", "C*c", "D*g")
ACCEPTANCE_PRIMES = (3, 5, 7, 11, 13, 17)


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


@pytest.fixture(scope="session")
def wedge_of():
    """Exterior squares by catalog name: ``wedge_of(name)`` reads the
    per-process memo of ``wedge_square``, so each catalog operator's order-5
    companion is computed once and reused everywhere."""
    return lambda name: wedge_square(get_entry(name).operator)


@pytest.fixture(scope="session")
def acceptance_tables(acceptance_timings):
    """Computed classification rows for the four acceptance operators at all
    table primes — the expensive shared input of criteria 2 and 4."""
    t0 = time.monotonic()
    out = {}
    for name in ACCEPTANCE_OPERATORS:
        op = get_entry(name).operator
        for p in ACCEPTANCE_PRIMES:
            out[name, p] = classify_operator(op, p)
    acceptance_timings["tables"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="session")
def acceptance_timings():
    """Wall-clock seconds of the shared expensive computations, for the
    criteria that state a runtime budget."""
    return {}


# -- test-only oracles ---------------------------------------------------------------


class LengthMismatch(ValueError):
    """An input sequence is shorter than the requested output length."""


def hadamard_product(xs, ys, N=None):
    """Coefficientwise products x_0 y_0 .. x_N y_N.

    When ``N`` is omitted the full common length is used, which then requires
    the inputs to have equal length.
    """
    if N is None:
        if len(xs) != len(ys):
            raise LengthMismatch(
                f"lengths {len(xs)} and {len(ys)} differ and no N was given")
        N = len(xs) - 1
    if len(xs) < N + 1 or len(ys) < N + 1:
        raise LengthMismatch(
            f"need {N + 1} terms, have {len(xs)} and {len(ys)}")
    return [xs[n] * ys[n] for n in range(N + 1)]


def quintic_wedge_coefficients(N):
    """A_0 .. A_N of the auxiliary quintic sequence

        A_n = sum_k (5k)!/k!^5 * (5(n-k))!/(n-k)!^5
                    * (1 + k(-5 H_k + 5 H_{n-k} + 5 H_{5k} - 5 H_{5(n-k)})),

    with integrality certified term by term (NonIntegralSolution on failure).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    top = max(5 * N, N)
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


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call" or (report.when == "setup" and report.failed):
        _outcomes[n] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in sorted(_outcomes):
        word = "PASS" if _outcomes[n] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d}: {word} — {_CRITERIA[n]}")
