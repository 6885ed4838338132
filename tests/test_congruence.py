"""Ratio congruences for coefficient sequences and the truncation-ratio
evaluation of unit roots."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from frobcy import congruence
from frobcy.catalog import CATALOG, exterior_square
from frobcy.congruence import (OutsideUnitDisk, check_dwork_congruence,
                               dwork_ratio)
from frobcy.diffop import ThetaOperator, solve_series

from conftest import horner_mod, recurrence_terms


@pytest.fixture(scope="module")
def apery():
    return recurrence_terms("b", 2000)


@pytest.fixture(scope="module")
def f0_mod7():
    op = CATALOG["A*a"]
    return solve_series(op, 7**4 - 1, targets=[(7, 4, 7**4 - 1)])[0]


@pytest.fixture(scope="module")
def F0_mod7(wedge_of):
    return solve_series(wedge_of("A*a"), 7**4 - 1, targets=[(7, 4, 7**4 - 1)])[0]


# -- congruence sweeps -------------------------------------------------------------


class TestCheckDworkCongruence:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_apery_passes_at_5(self, apery, s):
        report = check_dwork_congruence(apery, 5, s, 2000)
        assert report["ok"]
        assert report["failures"] == []
        assert report["checked"] > 0

    def test_binomial_square_passes_at_3(self):
        coeffs = recurrence_terms("A", 2000)
        for s in (1, 2, 3):
            report = check_dwork_congruence(coeffs, 3, s, 2000)
            assert report["ok"]

    def test_corrupted_sequence_fails_with_a_counterexample(self, apery):
        corrupted = [c * (n + 1) for n, c in enumerate(apery)]
        report = check_dwork_congruence(corrupted, 5, 2, 2000)
        assert not report["ok"]
        failure = report["failures"][0]
        n, got, expected = failure["n"], failure["got"], failure["expected"]
        # the recorded counterexample really is a violated class equality
        ps = 25
        baseline = n % ps
        num = corrupted[baseline] * pow(corrupted[baseline // 5], -1, ps)
        assert expected == num % ps
        assert got == corrupted[n] * pow(corrupted[n // 5], -1, ps) % ps
        assert got != expected

    def test_skips_indices_with_non_unit_denominator(self):
        # binom(6,3)^2 = 400 == 0 (mod 5), so ratios at n = 15..19 have a
        # non-unit denominator at p = 5 and must be skipped, not failed
        coeffs = recurrence_terms("A", 30)
        report = check_dwork_congruence(coeffs, 5, 1, 30)
        assert report["ok"]
        assert set(range(15, 20)) <= set(report["skipped"])

    def test_range_capped_by_available_coefficients(self, apery):
        report = check_dwork_congruence(apery[:101], 5, 1, 2000)
        assert report["n_max"] == 100

    def test_invalid_power_rejected(self, apery):
        with pytest.raises(ValueError):
            check_dwork_congruence(apery, 5, 0, 100)

    def test_report_summary_mentions_the_verdict(self, apery):
        good = check_dwork_congruence(apery, 5, 1, 500)["summary"]
        assert "ok" in good
        bad = check_dwork_congruence(
            [c * (n + 1) for n, c in enumerate(apery[:200])], 5, 1, 2000)
        assert "FAILURES" in bad["summary"]

    def test_summary_says_when_nothing_was_compared(self, apery):
        # 13^3 = 2197 > 2000 puts every n <= 2000 in a class of its own
        report = check_dwork_congruence(apery, 13, 3, 2000)
        assert report["checked"] == 0 and report["ok"]
        assert report["summary"] == ("p=13 s=3 n<=2000: 0 ratios checked, "
                                     "nothing to compare since 13^3 = 2197 "
                                     "> n_max")

    def test_summary_says_when_no_unit_denominators_share_a_class(self):
        # c(n) == 0 (mod 5) for n >= 1 leaves a unit denominator only at
        # n < 5, one per class mod 5^s: nothing is compared though
        # 5^s <= n_max, and the summary must not read "ok"
        coeffs = [1] + [5] * 200
        for s in (1, 2, 3):
            report = check_dwork_congruence(coeffs, 5, s, 200)
            assert report["checked"] == 0 and report["ok"]
            assert len(report["skipped"]) == 196
            assert report["summary"] == (
                f"p=5 s={s} n<=200: 0 ratios checked, nothing to compare "
                f"since no two n with a unit denominator share a class mod "
                f"5^{s} = {5**s}, 196 skipped (non-unit denominator)")

    def test_ok_is_equivalent_to_no_failures(self, apery):
        good = check_dwork_congruence(apery, 5, 1, 200)
        bad = check_dwork_congruence(
            [c * (n + 1) for n, c in enumerate(apery[:200])], 5, 1, 200)
        for report in (good, bad):
            assert report["ok"] == (report["failures"] == [])
        assert good["ok"] and not bad["ok"]

    def test_catalog_wedge_series_pass(self):
        # the method's hypothesis for the other series of every cell: each
        # product's exterior square, from one integral batch per operator
        primes, checked, failed = (5, 7, 11, 13), 0, []
        for name, op in CATALOG.items():
            runs = solve_series(exterior_square(op), 700, integral=True,
                                targets=[(p, 2, 700) for p in primes])
            for p, series in zip(primes, runs):
                for s in (1, 2):
                    report = check_dwork_congruence(series, p, s, 700)
                    checked += report["checked"]
                    if not report["ok"]:
                        failed.append((name, p, s))
        assert failed == []
        assert checked == 101502  # a sweep that compares nothing fails


# -- truncation ratios -------------------------------------------------------------


class TestDworkRatio:
    def test_worked_example_for_f0(self, f0_mod7):
        assert dwork_ratio(f0_mod7, 2, 7, 4) == 582   # mod 7^4 = 2401

    def test_worked_example_for_the_wedge_solution(self, F0_mod7):
        assert dwork_ratio(F0_mod7, 2, 7, 4) == 1101

    def test_constant_series_has_ratio_one(self):
        ones = solve_series(ThetaOperator([[0, 1]]), 7**3 - 1)
        for z0 in range(1, 7):
            assert dwork_ratio(ones, z0, 7, 3) == 1

    def test_agreement_across_precision_levels(self, f0_mod7):
        # the level-s ratio is the level-(s+1) ratio reduced mod p^s
        for z0 in range(1, 7):
            low = dwork_ratio(f0_mod7, z0, 7, 3)
            high = dwork_ratio(f0_mod7, z0, 7, 4)
            assert high % 343 == low

    def test_outside_unit_disk_at_the_undefined_point(self, F0_mod7):
        # the wedge truncation vanishes mod 7 at z0 = 6: the one "-" cell
        with pytest.raises(OutsideUnitDisk):
            dwork_ratio(F0_mod7, 6, 7, 4)

    def test_denominator_guard_on_a_series_that_breaks_dwork(self):
        # c_3 = 2 but c_0 c_1 = 0 (mod 3): the probe c_0 + c_1 + c_2 = 1 is
        # a unit, while the denominator c_0 + ... + c_8 = 3 is not
        series = [1, 0, 0, 2] + [0] * 23
        assert not check_dwork_congruence(series, 3, 1, 26)["ok"]
        with pytest.raises(OutsideUnitDisk,
                           match="denominator truncation vanishes mod 3"):
            dwork_ratio(series, 1, 3, 3)

    def test_f0_is_ordinary_everywhere_at_7(self, f0_mod7):
        values = [dwork_ratio(f0_mod7, z0, 7, 4) for z0 in range(1, 7)]
        assert values == [1650, 582, 710, 1691, 1691, 654]

    def test_rejects_invalid_precision(self, f0_mod7):
        with pytest.raises(ValueError):
            dwork_ratio(f0_mod7, 2, 7, 0)

    def test_rejects_out_of_range_point(self, f0_mod7):
        for z0 in (0, 7, -1):
            with pytest.raises(ValueError):
                dwork_ratio(f0_mod7, z0, 7, 4)

    def test_rejects_insufficient_certified_digits(self, f0_mod7):
        with pytest.raises(ValueError):
            dwork_ratio(f0_mod7, 2, 7, 5)

    def test_fold_takes_no_power_per_class(self, monkeypatch):
        # Horner's rule over the classes: at p = 101, s = 1 one power per
        # class of each truncation would be 300 calls; only the inverse of
        # the denominator is left
        calls = []
        monkeypatch.setattr(congruence, "pow",
                            lambda *args: calls.append(args) or pow(*args),
                            raising=False)
        ones = [1] * 101
        assert dwork_ratio(ones, 3, 101, 1) == horner_ratio(ones, 3, 101, 1)
        assert len(calls) == 1

    def test_rejects_short_series(self):
        op = CATALOG["A*a"]
        short, = solve_series(op, 300, targets=[(7, 4, 300)])
        with pytest.raises(ValueError):
            dwork_ratio(short, 2, 7, 4)


def horner_ratio(coeffs, z0, p, s):
    """The truncation ratio of ``dwork_ratio`` by Horner's rule, at a lift
    found as the fixed point of x -> x^p; None where the probe mod p or the
    denominator is not a unit."""
    ps = p**s
    if horner_mod(coeffs[:p], z0, p) == 0:
        return None
    alpha = z0
    while pow(alpha, p, ps) != alpha:
        alpha = pow(alpha, p, ps)
    den = horner_mod(coeffs[: p ** (s - 1)], alpha, ps)
    if den % p == 0:
        return None
    return horner_mod(coeffs[:ps], alpha, ps) * pow(den, -1, ps) % ps


def ratios_or_outside(series, p, s):
    """dwork_ratio at every z0 in 1..p-1, None where it raises OutsideUnitDisk."""
    out = []
    for z0 in range(1, p):
        try:
            out.append(dwork_ratio(series, z0, p, s))
        except OutsideUnitDisk:
            out.append(None)
    return out


@st.composite
def residue_series(draw):
    # c_0 = 1 and p^s - 1 residues mod p^s, the shape of a cached target
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    s = draw(st.integers(1, 4 if p == 3 else 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ps = p**s
    return [1] + [rng.randrange(ps) for _ in range(ps - 1)], p, s


@settings(max_examples=60, deadline=None)
@given(residue_series())
def test_fold_equals_horner_on_residue_series(drawn):
    coeffs, p, s = drawn
    assert ratios_or_outside(coeffs, p, s) == [
        horner_ratio(coeffs, z0, p, s) for z0 in range(1, p)]


def test_fold_equals_horner_on_an_exact_series():
    exact = solve_series(CATALOG["A*a"], 7**3 - 1)
    assert exact[:6] == [1, 8, 360, 22400, 1695400, 143011008]  # not reduced
    for p, s in ((3, 5), (5, 3), (7, 3)):
        assert ratios_or_outside(exact, p, s) == [
            horner_ratio(exact, z0, p, s) for z0 in range(1, p)]
