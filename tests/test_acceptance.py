"""Twelve numbered end-to-end checks over the whole pipeline.

Each test is one acceptance criterion; the terminal summary (see conftest)
prints a PASS/FAIL line per criterion.  Everything here goes through public
API only.  Each criterion holds its facts, and the per-module suites do not
repeat them: they test the derivations, edge cases and properties behind
them.
"""

from __future__ import annotations

import json
import time

from frobcy.catalog import CATALOG
from frobcy.classify import (BUILTIN_FORMS, classify_ab, eta_expansion,
                             match_singular_ap)
from frobcy.congruence import OutsideUnitDisk, check_dwork_congruence
from frobcy.diffop import check_cy5, is_self_dual, solve_series
from frobcy.frobenius import (assemble_frobenius, frobenius_quartic,
                              legendre_frobenius, legendre_precision,
                              unit_roots, weil_verify)
from frobcy.padic import balanced_residue, teichmueller_residue

from conftest import (ACCEPTANCE_OPERATORS, TABLE_PRIMES, classified,
                      hadamard_product, horner_mod, legendre_trace,
                      quintic_wedge_coefficients, recurrence_terms,
                      sequence_terms)
from horizontal import verify_horizontal_u4, verify_horizontal_u5


def test_criterion_1(wedge_of):
    """One full pipeline pass at a smooth point reproduces every intermediate
    value and the final quartic, in under ten seconds."""
    t0 = time.monotonic()
    p, z0, s = 7, 2, 4
    mod = p**s
    op = CATALOG["A*a"]
    f0, = solve_series(op, p**s - 1, targets=[(p, s, p**s - 1)])
    F0, = solve_series(wedge_of("A*a"), p**s - 1, targets=[(p, s, p**s - 1)])

    zhat = teichmueller_residue(z0, p, mod)
    zp = pow(zhat, p, mod)
    f_top = horner_mod(f0, zhat, mod)
    f_bot = horner_mod(f0[: p ** (s - 1)], zp, mod)
    assert (f_top, f_bot) == (1709, 1814)
    assert f_top * pow(f_bot, -1, mod) % mod == 582

    F_top = horner_mod(F0, zhat, mod)
    F_bot = horner_mod(F0[: p ** (s - 1)], zp, mod)
    assert (F_top, F_bot) == (51, 1387)
    assert F_top * pow(F_bot, -1, mod) % mod == 1101

    r1, rhat = unit_roots(f0, F0, z0, p, s)
    assert (r1, rhat) == (582, 1101)

    a, b, split = assemble_frobenius(r1, rhat, p, s, at_singular_fiber=False)
    assert (a, b, split) == (-8, 2, None)
    assert frobenius_quartic(a, b, p) == [1, -8, 2 * 7, -8 * 7**3, 7**6]
    assert time.monotonic() - t0 < 10


def test_criterion_2(acceptance_tables, catalog_table, appendix_tables,
                     appendix_errata, corrected_tables):
    """The four reference operators reproduce their stored tables cell for
    cell at every prime, with every deviation from the raw stored text being
    a recorded erratum; the full table of all 24 operators, which holds
    them, takes under ten minutes."""
    recorded = {(e["operator"], str(e["p"]), str(e["z"])): e
                for e in appendix_errata}
    for name in ACCEPTANCE_OPERATORS:
        for p in TABLE_PRIMES:
            got = {str(r.z0): r.cell() for r in acceptance_tables[name, p]}
            assert got == corrected_tables[name][str(p)], (name, p)
            for z, cell in got.items():
                stored = appendix_tables[name][str(p)][z]
                if cell != stored:
                    e = recorded[name, str(p), z]
                    assert (e["stored"], e["corrected"]) == (stored, cell)
    assert catalog_table["seconds"] < 600


def test_criterion_3(wedge_of):
    """The two power-series heads and the full exterior-square operator match
    their printed values coefficient for coefficient."""
    f0 = solve_series(CATALOG["A*a"], 5)
    assert f0 == [1, 8, 360, 22400, 1695400, 143011008]
    F0 = solve_series(wedge_of("A*a"), 5)
    assert F0 == [1, 44, 3652, 337712, 33909700, 3567877424]

    rows = json.loads(wedge_of("A*a").to_json())["coeffs"]
    assert [[int(c) for c in row] for row in rows] == [
        [0, 0, 0, 0, 0, 1],
        [-44, -260, -628, -792, -560, -224],
        [-6512, 400, 44160, 71040, 42240, 8448],
        [4177920, 13180928, 16588800, 10567680, 3440640, 458752],
        [100663296, 285212672, 310378496, 163577856, 41943040, 4194304],
    ]


def test_criterion_4(acceptance_tables):
    """Every smooth and reducible cell of the criterion-2 tables passes the
    root-modulus check, decided exactly in integers."""
    checked = 0
    for (name, p), rows in acceptance_tables.items():
        for r in rows:
            if r.status in ("smooth", "reducible"):
                assert weil_verify(r.a, r.b, p), (name, p, r.z0)
                checked += 1
    assert checked > 50


def test_criterion_5():
    """At the two anchor split points the extracted a_p equals the eta-product
    coefficient exactly, and the stored-form lookup returns the right label."""
    eta8 = eta_expansion(BUILTIN_FORMS["8/1"], 7)
    eta9 = eta_expansion(BUILTIN_FORMS["9/1"], 7)
    assert BUILTIN_FORMS["8/1"] == ((2, 4), (4, 4))
    assert BUILTIN_FORMS["9/1"] == ((3, 8),)

    # first anchor: reduction of -1/16, at p = 5 (z = 4) and p = 7 (z = 3)
    aa = classified(CATALOG["A*a"], (5, 7))
    cell5 = aa[5][3]
    assert (cell5.status, cell5.ap) == ("singular", -2)
    assert cell5.ap == eta8[5] == -2
    assert cell5.form == match_singular_ap(5, -2) == "8/1"
    cell7 = aa[7][2]
    assert (cell7.status, cell7.ap) == ("singular", 24)
    assert cell7.ap == eta8[7] == 24
    assert cell7.form == "8/1"

    # second anchor: reduction of 1/216, at p = 7 (z = 6)
    cell = classified(CATALOG["B*d"], (7,))[7][5]
    assert (cell.status, cell.ap) == ("singular", 20)
    assert cell.ap == eta9[7] == 20
    assert cell.form == match_singular_ap(7, 20) == "9/1"


def test_criterion_6():
    """The marked reducible pair at p = 5 splits over the integers through a
    perfect-square discriminant."""
    a, b, p = 6, -6, 5
    disc = a * a - 4 * (b * p - 2 * p**3)
    assert disc == 1156 and 34 * 34 == disc
    pc = classify_ab(a, b, p, False, None)
    assert (pc.status, pc.alpha, pc.beta) == ("reducible", 20, -14)


def test_criterion_7():
    """At every nonsingular parameter with a unit series value, the p-adic
    unit root and the a_p returned with it reproduce the brute-force affine
    point count of the elliptic double cover, for p in {5, 7, 11, 13}, in
    under thirty seconds; every other parameter has a supersingular fiber."""
    t0 = time.monotonic()
    checked_ordinary = 0
    for p in (5, 7, 11, 13):
        for s0 in range(2, p):
            brute = legendre_trace(p, s0)
            try:
                root, ap = legendre_frobenius(p, s0)
            except OutsideUnitDisk:
                assert brute % p == 0, (p, s0)  # supersingular fiber
                continue
            ps = p ** legendre_precision(p)
            # the a_p returned and the one that the unit root gives back
            assert ap == balanced_residue(root + p * pow(root, -1, ps), ps) \
                == brute, (p, s0)
            checked_ordinary += 1
    assert checked_ordinary > 20
    assert time.monotonic() - t0 < 30


# (sequence, p, s) whose reports compare no ratio though p^s <= 2000: at
# p = 3 every c(floor(n/3)) with n >= 3 is divisible by 3, so the unit
# denominators sit at n < 3, each in a class of its own
COMPARES_NOTHING = {(name, 3, s) for name in "cfghj" for s in (1, 2, 3)}


def test_criterion_8():
    """All ten second-order sequences satisfy the ratio congruences to the
    third power for p up to 13 and n up to 2000, and a corrupted sequence
    fails with a located counterexample.  Every report with p^s <= 2000
    compares at least one ratio, except the 15 of c, f, g, h and j at p = 3
    for s = 1, 2 and 3, which compare none."""
    assert len(COMPARES_NOTHING) == 15
    for name in "abcdefghij":
        coeffs = recurrence_terms(name, 2000)
        for p in (3, 5, 7, 11, 13):
            for s in (1, 2, 3):
                report = check_dwork_congruence(coeffs, p, s, 2000)
                assert report["ok"], (name, p, s, report["failures"][:1])
                if p**s <= 2000:
                    assert (report["checked"] > 0) == \
                        ((name, p, s) not in COMPARES_NOTHING), (name, p, s)

    corrupted = list(recurrence_terms("c", 2000))
    corrupted[25] += 1
    report = check_dwork_congruence(corrupted, 5, 1, 2000)
    assert not report["ok"]
    assert any(f["n"] == 25 for f in report["failures"])


def test_criterion_9():
    """Each catalog operator's recurrence solution equals the coefficientwise
    product of its two factor sequences through n = 500."""
    N = 500
    heads: dict = {}
    for name, op in CATALOG.items():
        left, right = name.split("*")
        for factor in (left, right):
            if factor not in heads:
                heads[factor] = sequence_terms(factor, N)
        product = hadamard_product(heads[left], heads[right])
        assert solve_series(op, N) == product, name


def test_criterion_10(wedge_of):
    """The twisted sections of both operators are horizontal through series
    order 60, and the sign-flipped controls are not."""
    for name in ("A*a", "B*a", "C*a"):
        op = CATALOG[name]
        assert verify_horizontal_u4(op, 60), name
        assert not verify_horizontal_u4(op, 60, flip_sign=True), name
        q = wedge_of(name)
        assert verify_horizontal_u5(q, 60), name
        assert not verify_horizontal_u5(q, 60, zero_b1=True), name


def test_criterion_11(wedge_of):
    """The order-4 self-duality identity holds for all 24 catalog operators
    and the order-5 identity for all 24 exterior squares."""
    for name in CATALOG:
        assert is_self_dual(CATALOG[name]), name
        assert check_cy5(wedge_of(name)), name


def test_criterion_12():
    """The auxiliary quintic sequence is integral through A_50."""
    values = quintic_wedge_coefficients(50)
    assert len(values) == 51
    assert all(isinstance(v, int) for v in values)
    assert values[:2] == [1, 1010]
