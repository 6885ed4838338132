"""Tests for quartic classification, eta-product expansion, and form matching.

Live rows are classified from freshly computed series and compared against
frozen cells; the frozen values were cross-checked against the embedded
reference tables (see data/appendix_errata.json for the handful of cells
where those tables deviate from their own annotation rules).
"""

from __future__ import annotations

import csv
import json
import pickle
import time
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcy import UsageError
from frobcy.catalog import CATALOG
from frobcy.cli import CSV_COLUMNS, _csv_tables
from frobcy.classify import (
    BUILTIN_FORMS,
    FORMS_DIR_ENV,
    PointClass,
    classify_ab,
    classify_operator,
    eta_expansion,
    match_singular_ap,
)
from frobcy.diffop import ThetaOperator
from frobcy.frobenius import (Uncertified, box_precision, decode_frobenius,
                              weil_verify)

from conftest import TABLE_PRIMES as PRIMES, classified

# q-expansions of the two built-in eta products, through q^7.
ETA_8_1_HEAD = [0, 1, 0, -4, 0, -2, 0, 24]
ETA_9_1_HEAD = [0, 1, 0, 0, -8, 0, 0, 20]

# Classified rows of A*a, frozen from the golden tables.
AA_P7_CELLS = ["(2,-46)", "(-8,2)", "(32,-94)*", "(80,290)*", "(10,50)'", "-"]
AA_P5_CELLS = ["(6,-6)'", "(28,38)*", "-", "(32,62)*"]


def eta_product_direct(factors, N):
    """Independent oracle: expand prod_(m,e) prod_n (1 - q^(m n))^e by naive
    polynomial multiplication, then shift by the leading q-power."""
    shift = sum(m * e for m, e in factors) // 24
    body = [1] + [0] * N
    for m, e in factors:
        for n in range(1, N // m + 1):
            for _ in range(e):
                nxt = body[:]
                for i in range(N + 1 - m * n):
                    nxt[i + m * n] -= body[i]
                body = nxt
    out = [0] * (N + 1)
    for i, c in enumerate(body):
        if shift + i <= N:
            out[shift + i] = c
    return out


@pytest.fixture(scope="module")
def rows(catalog_table):
    """The session table's rows by (operator, p)."""
    return {(name, p): row for name, table in catalog_table["rows"].items()
            for p, row in zip(PRIMES, table)}


class TestEtaProducts:
    def test_builtin_weights(self):
        # eta(q^m)^e has weight e/2
        for factors in BUILTIN_FORMS.values():
            assert sum(e for _m, e in factors) == 2 * 4

    def test_builtin_leading_powers_are_integral(self):
        # the leading power is q^(sum m e / 24), here q itself
        for factors in BUILTIN_FORMS.values():
            assert sum(m * e for m, e in factors) == 24
            assert eta_expansion(factors, 1) == [0, 1]

    def test_eight_one_head(self):
        assert eta_expansion(BUILTIN_FORMS["8/1"], 7) == ETA_8_1_HEAD

    def test_nine_one_head(self):
        assert eta_expansion(BUILTIN_FORMS["9/1"], 7) == ETA_9_1_HEAD

    def test_delta_gives_ramanujan_tau(self):
        # eta(q)^24 = sum tau(n) q^n, tau known independently of any expansion
        assert eta_expansion(((1, 24),), 7) == [0, 1, -24, 252, -1472, 4830,
                                                -6048, -16744]

    def test_empty_product_is_one(self):
        assert eta_expansion((), 5) == [1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("label", ["8/1", "9/1"])
    def test_expand_matches_direct_product_oracle(self, label):
        factors = BUILTIN_FORMS[label]
        assert eta_expansion(factors, 60) == eta_product_direct(factors, 60)

    def test_truncation_below_leading_power(self):
        assert eta_expansion(BUILTIN_FORMS["8/1"], 0) == [0]

    def test_coefficient_accessor(self):
        assert eta_expansion(BUILTIN_FORMS["8/1"], 7)[7] == 24
        assert eta_expansion(BUILTIN_FORMS["9/1"], 4)[4] == -8

    @pytest.mark.parametrize("label", ["8/1", "9/1"])
    def test_hecke_multiplicativity_to_100(self, label):
        c = eta_expansion(BUILTIN_FORMS[label], 100)
        assert c[1] == 1
        for m in range(2, 51):
            for n in range(2, 100 // m + 1):
                if gcd(m, n) == 1:
                    assert c[m * n] == c[m] * c[n], (m, n)

    def test_fractional_leading_power_rejected(self):
        with pytest.raises(ValueError):
            eta_expansion(((1, 2),), 5)


class TestSplitHelpers:
    """A pair's shape is its decoder tag: a split pair carries (chi, a_p), a
    Weil-shape pair None, and ``classify_ab`` reads the reducible factors
    off a Weil-shape pair."""

    def test_reducible_anchor(self):
        # disc = 36 - 4(-280) = 1156 = 34^2
        assert decode_frobenius(6, -6, 5, 4, True) == [(6, -6, None)]
        pc = classify_ab(6, -6, 5, False, None)
        assert (pc.status, pc.alpha, pc.beta) == ("reducible", 20, -14)

    def test_reducible_rejects_nonsquare_discriminant(self):
        # disc = 4 + 4032 = 4036, not a square: a Weil-shape pair, smooth
        assert weil_verify(2, -46, 7)
        assert classify_ab(2, -46, 7, False, None).status == "smooth"

    def test_reducible_rejects_factor_out_of_bound(self):
        # disc = 1764 = 42^2 but beta = -30 exceeds 2 p^(3/2): no Weil
        # shape, so no candidate off the fiber and no reducible cell
        assert decode_frobenius(-18, -22, 5, 4) == []
        assert classify_ab(-18, -22, 5, False, None).status == "inconsistent"

    def test_singular_anchor_negative_chi(self):
        assert decode_frobenius(32, 62, 5, 4, True) == [(32, 62, (-1, -2))]

    def test_singular_anchor_positive_chi(self):
        assert decode_frobenius(-31, 56, 5, 4, True) == [(-31, 56, (1, 1))]

    def test_singular_rejects_smooth_pair(self):
        assert decode_frobenius(2, -46, 7, 3, True) == [(2, -46, None)]

    def test_singular_identity_can_hold_off_fiber(self):
        # The split identity is a property of (a, b, p) alone; whether the
        # decoder lists the split pair is decided by the fiber flag.
        assert decode_frobenius(-18, -22, 5, 4, True) == \
            [(-18, -22, (1, -12))]
        assert decode_frobenius(-18, -22, 5, 4, False) == []

    @given(st.sampled_from(PRIMES), st.integers(-600, 600),
           st.integers(-600, 600), st.data())
    @settings(max_examples=150, deadline=None)
    def test_split_outputs_satisfy_their_identities(self, p, a, b, data):
        s = data.draw(st.integers(2, box_precision(p, True)))
        for x, y, split in decode_frobenius(a, b, p, s, True):
            assert (x - a) % p**s == 0 and (y - b) % p**s == 0
            if split is not None:
                chi, ap = split
                assert chi in (1, -1)
                assert ap == -x - chi * (p + p * p)
                assert y * p == 2 * p**3 + chi * (p + p * p) * ap
                assert ap * ap <= 4 * p**3
                assert not weil_verify(x, y, p)
                continue
            assert weil_verify(x, y, p)
            pc = classify_ab(x, y, p, True, split)
            if pc.status == "reducible":
                assert pc.alpha + pc.beta == x
                assert pc.alpha * pc.beta == y * p - 2 * p**3
                assert pc.alpha**2 <= 4 * p**3 and pc.beta**2 <= 4 * p**3
            else:
                assert pc.status == "smooth"

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reducible_round_trip(self, data):
        # alpha a multiple of p so that b is integral; both factors in bounds
        p = data.draw(st.sampled_from(PRIMES))
        r = data.draw(st.integers(-isqrt(4 * p), isqrt(4 * p)))
        alpha = p * r
        beta = data.draw(st.integers(-isqrt(4 * p**3), isqrt(4 * p**3)))
        a, b = alpha + beta, r * beta + 2 * p * p
        assert decode_frobenius(a, b, p, box_precision(p)) == [(a, b, None)]
        pc = classify_ab(a, b, p, False, None)
        assert pc.status == "reducible"
        assert {pc.alpha, pc.beta} == {alpha, beta} and pc.alpha >= pc.beta

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_singular_round_trip(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        chi = data.draw(st.sampled_from((1, -1)))
        ap = data.draw(st.integers(-isqrt(4 * p**3), isqrt(4 * p**3)))
        a = -ap - chi * (p + p * p)
        b = 2 * p * p + chi * (1 + p) * ap
        assert decode_frobenius(a, b, p, box_precision(p, True), True) == \
            [(a, b, (chi, ap))]


class TestClassifyAb:
    def test_reducible_fields(self):
        pc = classify_ab(6, -6, 5, at_singular_fiber=False, split=None)
        assert pc.status == "reducible"
        assert (pc.alpha, pc.beta) == (20, -14)
        assert pc.cell() == "(6,-6)'"
        assert pc.chi is None and pc.ap is None

    def test_singular_fields(self):
        pc = classify_ab(32, 62, 5, at_singular_fiber=True, split=(-1, -2))
        assert pc.status == "singular"
        assert (pc.chi, pc.ap) == (-1, -2)
        assert pc.form == "8/1"
        assert pc.cell() == "(32,62)*"

    def test_smooth_fields(self):
        pc = classify_ab(-8, 2, 7, at_singular_fiber=False, split=None)
        assert pc.status == "smooth"
        assert pc.cell() == "(-8,2)"
        assert pc.alpha is None and pc.chi is None and pc.form is None

    def test_split_pair_off_fiber_is_inconsistent(self):
        # (32,62) satisfies the chi-split identity, but away from a vanishing
        # symbol the decoder never tags it, and untagged it is neither
        # reducible nor smooth: the implied factor p + p^2 breaks the
        # modulus pairing, so it fails weil_verify.
        pc = classify_ab(32, 62, 5, at_singular_fiber=False, split=None)
        assert pc.status == "inconsistent"
        assert pc.cell() == "(32,62)!"

    def test_second_split_pair_off_fiber_is_inconsistent(self):
        pc = classify_ab(-18, -22, 5, at_singular_fiber=False, split=None)
        assert pc.status == "inconsistent"
        assert pc.cell() == "(-18,-22)!"

    def test_unsplittable_pair_at_fiber_is_inconsistent(self):
        # No split tag, and it fails the modulus check: reported, not passed
        # off as smooth.
        pc = classify_ab(11, -16, 5, at_singular_fiber=True, split=None)
        assert pc.status == "inconsistent"
        assert pc.cell() == "(11,-16)!"

    def test_form_lookup_failure_leaves_form_none(self):
        pc = classify_ab(19, -16, 5, at_singular_fiber=True, split=(-1, 11))
        assert pc.status == "singular"
        assert (pc.chi, pc.ap) == (-1, 11)
        assert pc.form is None

    def test_fields_cannot_be_assigned(self):
        # a record is built once: a changed cell is a new record
        pc = classify_ab(32, 62, 5, at_singular_fiber=True, split=(-1, -2))
        with pytest.raises(AttributeError):
            pc.status = "smooth"
        assert pc._replace(z0=4).z0 == 4 and pc.z0 == 0

    def test_record_survives_pickle_and_keeps_its_repr(self):
        pc = classify_ab(32, 62, 5, at_singular_fiber=True, split=(-1, -2))
        assert pickle.loads(pickle.dumps(pc)) == pc
        assert repr(pc) == (
            "PointClass(z0=0, status='singular', at_singular_fiber=True, "
            "a=32, b=62, alpha=None, beta=None, chi=-1, ap=-2, form='8/1', "
            "escalated=False, s=None, r1=None, rh=None)")


class TestMatchSingularAp:
    def test_builtin_anchors(self):
        assert match_singular_ap(5, -2) == "8/1"
        assert match_singular_ap(7, 24) == "8/1"
        assert match_singular_ap(7, 20) == "9/1"

    def test_no_match_returns_none(self):
        assert match_singular_ap(7, -24) is None

    def test_external_fixture_directory(self, tmp_path, monkeypatch):
        # a fixture matches at each prime it stores, and only there
        (tmp_path / "form.json").write_text(json.dumps(
            {"label": "64/5", "weight": 4, "ap": {"11": 7777, "13": 5}}))
        monkeypatch.setenv(FORMS_DIR_ENV, str(tmp_path))
        assert match_singular_ap(11, 7777) == "64/5"
        assert match_singular_ap(13, 5) == "64/5"
        assert match_singular_ap(11, 5) is None

    def test_environment_variable_directory(self, tmp_path, monkeypatch):
        (tmp_path / "form.json").write_text(json.dumps(
            {"label": "27/2", "weight": 4, "ap": {"13": -4321}}))
        monkeypatch.setenv(FORMS_DIR_ENV, str(tmp_path))
        assert match_singular_ap(13, -4321) == "27/2"

    def test_builtins_take_precedence(self, tmp_path, monkeypatch):
        (tmp_path / "shadow.json").write_text(json.dumps(
            {"label": "shadow", "weight": 4, "ap": {"5": -2}}))
        monkeypatch.setenv(FORMS_DIR_ENV, str(tmp_path))
        assert match_singular_ap(5, -2) == "8/1"

    def test_fixture_files_scanned_in_sorted_order(self, tmp_path, monkeypatch):
        (tmp_path / "zz.json").write_text(json.dumps(
            {"label": "second", "weight": 4, "ap": {"13": 99}}))
        (tmp_path / "aa.json").write_text(json.dumps(
            {"label": "first", "weight": 4, "ap": {"13": 99}}))
        monkeypatch.setenv(FORMS_DIR_ENV, str(tmp_path))
        assert match_singular_ap(13, 99) == "first"

    def test_fixture_keyed_by_a_large_prime_loads_at_once(self, tmp_path,
                                                          monkeypatch):
        # the fixtures are read before any row: a slow check of the key
        # 2^61 - 1 would stall every table, classify and frob
        (tmp_path / "big.json").write_text(json.dumps(
            {"label": "big", "ap": {"2305843009213693951": 1, "13": 77}}))
        monkeypatch.setenv(FORMS_DIR_ENV, str(tmp_path))
        t0 = time.perf_counter()
        assert match_singular_ap(13, 77) == "big"
        assert time.perf_counter() - t0 < 5

    def test_missing_directory_is_a_usage_error(self, tmp_path, monkeypatch):
        # a mistyped path must not drop every fixture label without a word
        monkeypatch.setenv(FORMS_DIR_ENV, str(tmp_path / "missing"))
        with pytest.raises(UsageError, match="missing' is not a directory"):
            match_singular_ap(5, 123)

    @pytest.mark.parametrize("value", ["", "empty"])
    def test_empty_value_or_directory_matches_nothing(self, value, tmp_path,
                                                      monkeypatch):
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv(FORMS_DIR_ENV,
                           str(tmp_path / value) if value else "")
        assert match_singular_ap(5, 123) is None


class TestClassifyOperatorRows:
    def test_frozen_row_p7(self, rows):
        assert [r.cell() for r in rows["A*a", 7]] == AA_P7_CELLS

    def test_p7_statuses_and_fibers(self, rows):
        assert [r.status for r in rows["A*a", 7]] == [
            "smooth", "smooth", "singular", "singular", "reducible",
            "undefined"]
        assert [r.at_singular_fiber for r in rows["A*a", 7]] == [
            False, False, True, True, False, False]

    def test_p7_singular_details(self, rows):
        z3, z4 = rows["A*a", 7][2], rows["A*a", 7][3]
        assert (z3.chi, z3.ap, z3.form) == (-1, 24, "8/1")
        assert (z4.chi, z4.ap, z4.form) == (-1, -24, None)

    def test_p7_reducible_details(self, rows):
        z5 = rows["A*a", 7][4]
        assert (z5.alpha, z5.beta) == (24, -14)

    def test_p7_metadata(self, rows):
        assert [r.z0 for r in rows["A*a", 7]] == [1, 2, 3, 4, 5, 6]

    def test_p3_all_undefined(self, rows):
        assert [r.cell() for r in rows["A*a", 3]] == ["-", "-"]
        assert all(r.a is None and r.b is None for r in rows["A*a", 3])

    def test_p5_row(self, rows):
        assert [r.cell() for r in rows["A*a", 5]] == AA_P5_CELLS
        z2, z4 = rows["A*a", 5][1], rows["A*a", 5][3]
        assert (z2.chi, z2.ap, z2.form) == (-1, 2, None)
        assert (z4.chi, z4.ap, z4.form) == (-1, -2, "8/1")

    def test_classification_stable_at_higher_precision(self, rows):
        again, = classify_operator(CATALOG["A*a"], [5], precision=5)
        assert [r.s for r in again] == [5] * 4
        assert [r.cell() for r in again] == [r.cell() for r in rows["A*a", 5]]
        assert [r.status for r in again] == [r.status for r in rows["A*a", 5]]

    def test_escalation_from_one_digit_low(self):
        # At s = 3, where the row starts, the residues of A*d at p = 5,
        # z = 2 fit two admissible pairs, (-8, 43) and (-8, -82); that cell
        # alone escalates to s = 4.
        row = classified(CATALOG["A*d"], (5,))[5]
        z2 = row[1]
        assert [r.s for r in row] == [3, 4, 3, 3]
        assert z2.cell() == "(-8,-82)*" and z2.escalated
        assert [r.escalated for r in row if r.z0 != 2] == [False] * 3

    def test_fixed_precision_never_escalates(self):
        # at a given precision a cell it does not settle is its row's error
        op = CATALOG["A*d"]
        low, = classify_operator(op, [5], points=[2], precision=3)
        assert isinstance(low, Uncertified)
        (cell,), = classify_operator(op, [5], points=[2], precision=4)
        assert cell.cell() == "(-8,-82)*" and not cell.escalated

    def test_points_classified_as_in_their_row(self, rows):
        # a frob query is the row restricted to its point: same cell, same
        # precision and unit roots, in the order asked
        row = rows["A*a", 7]
        some = classified(CATALOG["A*a"], (7,), points=[5, 3, 6])[7]
        assert some == [row[4], row[2], row[5]]
        assert [r.s for r in some] == [3, 3, 3]
        assert 0 <= some[0].r1 < 7**3 and some[2].r1 is None

    def test_row_with_positive_chi(self, rows):
        assert [r.cell() for r in rows["B*c", 5]] == [
            "(-9,-4)", "(-27,32)*", "-", "(-3,32)"]
        z2 = rows["B*c", 5][1]
        assert (z2.chi, z2.ap, z2.form) == (1, -3, None)

    def test_undefined_cell_at_singular_fiber(self, rows):
        # The residue of one series vanishes at this fiber, so the point is
        # classified undefined even though the leading symbol vanishes here.
        z3 = rows["B*c", 5][2]
        assert z3.status == "undefined"
        assert z3.at_singular_fiber is True

    def test_row_whose_source_lost_its_markers(self, rows):
        # The embedded table prints this row bare; the classification below
        # restores the markers its own legend prescribes (see the errata).
        assert [r.cell() for r in rows["B*a", 5]] == [
            "(-18,-22)*", "-", "(3,-22)", "(6,41)"]
        z1 = rows["B*a", 5][0]
        assert (z1.chi, z1.ap, z1.form) == (1, -12, None)

    def test_singular_ap_outside_builtin_forms(self, rows):
        z2 = rows["D*c", 5][1]
        assert z2.status == "singular"
        assert z2.ap == 11 and z2.form is None
        assert match_singular_ap(5, z2.ap) is None


def test_full_catalog_reproduces_corrected_tables(corrected_tables,
                                                  catalog_table):
    """All 24 operators at p = 3 .. 17 (1200 cells) equal the stored tables
    with every erratum applied; the one catalog cell that escalates from
    its row's start is A*d at p = 5, z = 2, settled at s = 4.

    The rows come from one uncached ``classify_operator`` call per operator
    (the session's ``catalog_table``, which the golden outputs of
    ``test_golden.py`` share): per role one batch for all six primes, and
    one more per role for the escalated cell.  A wedge batch is one run of
    the operator's exterior square; an own-series batch is one run of its
    right factor, shared by the operators with that right factor and those
    targets."""
    cells, escalated = 0, {}
    for name, rows in catalog_table["rows"].items():
        for p, row in zip(PRIMES, rows):
            assert not isinstance(row, Exception), (name, p, row)
            assert {str(r.z0): r.cell() for r in row} == \
                corrected_tables[name][str(p)], (name, p)
            escalated.update(((name, p, r.z0), r.s) for r in row if r.escalated)
            cells += len(row)
    assert cells == 1200
    assert escalated == {("A*d", 5, 2): 4}
    runs = catalog_table["runs"]
    wedges = [name for name in runs if name.startswith("wedge(")]
    assert sorted(wedges) == sorted([f"wedge({name})" for name in CATALOG]
                                    + ["wedge(A*d)"])
    # each right factor once, and d again for A*d's escalated cell
    assert [name for name in runs if name not in wedges] == list("abcddfg")


@pytest.mark.parametrize("name, k", [("A*a", 3), ("C*d", -2), ("D*g", 5),
                                     ("B*f", 3)])
def test_rescaling_moves_each_cell_to_k_z0(name, k):
    """z -> k z: the operator with row i times k^i has, at (p, z0), the cell
    and form label of the original at (p, k z0 mod p), for p not dividing k.
    It is not a catalog product, so its series and its exterior square take
    the exact runs, and the relation checks them against the catalog route
    and the stored squares."""
    op = CATALOG[name]
    scaled = ThetaOperator([[c * k**i for c in row]
                            for i, row in enumerate(op.coeffs)],
                           name=f"{name}(z->{k}z)")
    primes = [p for p in (5, 7, 11) if k % p]
    original, rescaled = classified(op, primes), classified(scaled, primes)
    for p in primes:
        at = {r.z0: (r.cell(), r.form) for r in original[p]}
        assert [(r.cell(), r.form) for r in rescaled[p]] == \
            [at[k * r.z0 % p] for r in rescaled[p]], (name, k, p)


def results_to_csv(rows):
    """The CSV that ``table --format csv`` prints for the cells ``rows``."""
    return _csv_tables([("", 0, rows)])


class TestResultsToCsv:
    def test_header_and_shape(self, rows):
        text = results_to_csv(rows["A*a", 7])
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows["A*a", 7])
        assert text.endswith("\n")

    def test_singular_line(self, rows):
        assert _csv_tables([("A*a", 7, rows["A*a", 7])]).splitlines()[3] == \
            "A*a,7,3,singular,32,-94,,,-1,24,8/1"

    def test_undefined_line_has_empty_fields(self, rows):
        assert _csv_tables([("A*a", 7, rows["A*a", 7])]).splitlines()[6] == \
            "A*a,7,6,undefined,,,,,,,"

    def test_fields_with_commas_and_quotes_are_quoted(self):
        rows = [PointClass(z0=3, status="singular", at_singular_fiber=True,
                           a=32, b=-94, chi=-1, ap=24, form='a"b')]
        text = _csv_tables([("x,y", 7, rows)])
        parsed = list(csv.reader(text.splitlines()))
        assert [len(fields) for fields in parsed] == [11, 11]
        assert parsed[1] == ["x,y", "7", "3", "singular", "32", "-94", "",
                             "", "-1", "24", 'a"b']
