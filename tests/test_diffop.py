"""Theta-form operators: structure checks, series solving, monic conversion."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from frobcy import diffop
from frobcy.catalog import CATALOG, exterior_square
from frobcy.diffop import (NonIntegralSolution, ThetaOperator, check_cy5,
                           check_mum, leading_symbol, solve_series,
                           symbol_roots_mod_p)
from frobcy.polyrat import (poly_add, poly_mul, poly_scale, poly_sub,
                            poly_theta)
from frobcy.wedge import wedge_square

from conftest import spy
from horizontal import Laurent, stirling_table, to_monic

AA = CATALOG["A*a"]
CATALOG_NAMES = sorted(CATALOG)

F0_HEAD = [1, 8, 360, 22400, 1695400, 143011008]
BIG_F0_HEAD = [1, 44, 3652, 337712, 33909700, 3567877424]


def geometric_op() -> ThetaOperator:
    """theta^4 - z (theta+1)^4, whose normalized solution is 1/(1-z)."""
    return ThetaOperator([[0, 0, 0, 0, 1], [-1, -4, -6, -4, -1]])


# -- structure ---------------------------------------------------------------------


def test_content_and_trailing_rows_are_normalized():
    op = ThetaOperator([[0, 0, 2], [2, 4], [0]])
    assert op.coeffs == ((0, 0, 1), (1, 2, 0))
    assert op.z_degree == 1
    assert op.theta_order == 2


def test_sign_makes_the_lowest_leading_coefficient_positive():
    # the theta^order column is (0, -2, 4): its first nonzero entry decides
    op = ThetaOperator([[3, 0], [0, -2], [6, 4]])
    assert op.coeffs == ((-3, 0), (0, 2), (-6, -4))
    assert ThetaOperator([[0, 0, -2], [2, 4]]).coeffs == ((0, 0, 1), (-1, -2, 0))


def test_zero_operator_rejected():
    with pytest.raises(ValueError):
        ThetaOperator([[0], [0, 0]])


def test_equality_and_hash_use_normalized_coefficients():
    a = ThetaOperator([[0, 0, 1]], name="x")
    b = ThetaOperator([[0, 0, 3]], name="y")
    assert a == b
    assert hash(a) == hash(b)


def test_an_operator_never_equals_another_type():
    # ``__eq__`` returns NotImplemented, so Python falls back to identity
    assert (ThetaOperator([[0, 0, 1]]) == 3) is False


def test_json_roundtrip():
    op = CATALOG["B*d"]
    again = ThetaOperator.from_json(op.to_json())
    assert again == op
    assert again.name == op.name
    assert again.aesz == op.aesz


def test_json_rejects_inconsistent_order():
    import json
    data = json.loads(AA.to_json())
    data["theta_order"] = 3
    with pytest.raises(ValueError):
        ThetaOperator.from_json(json.dumps(data))


def test_check_mum():
    assert check_mum(AA)
    assert check_mum(wedge_square(AA))
    assert not check_mum(ThetaOperator([[0, 0, 0, 1, 1], [1, 1]]))


def test_leading_symbol_of_the_first_operator():
    assert leading_symbol(AA) == [1, -112, -2048]
    assert leading_symbol(ThetaOperator([[0, 0, 0, 0, 1]])) == [1]


def test_symbol_roots_mod_p():
    assert symbol_roots_mod_p(AA, 7) == [3, 4]
    assert symbol_roots_mod_p(AA, 3) == [2]
    assert symbol_roots_mod_p(CATALOG["A*b"], 7) == []


def test_symbol_nonzero_at_origin_for_all_catalog_operators():
    for op in CATALOG.values():
        assert leading_symbol(op)[0] != 0


# -- Stirling conversion -------------------------------------------------------------


def test_stirling_fourth_row():
    assert stirling_table(4)[4] == [0, 1, 7, 6, 1]


def test_stirling_rows_reproduce_falling_factorials():
    # theta^k x^m = m^k x^m must equal sum_j T[k][j] m(m-1)...(m-j+1) x^m.
    T = stirling_table(6)
    for k in range(7):
        for m in range(9):
            total = 0
            for j, c in enumerate(T[k]):
                ff = 1
                for i in range(j):
                    ff *= m - i
                total += c * ff
            assert total == m**k


def test_to_monic_theta_squared():
    # z^2 D^2 + z D over z^2: D^2 + (1/z) D
    nums, den = to_monic(ThetaOperator([[0, 0, 1]]))
    assert den == [0, 0, 1]
    assert nums == [[], [0, 1]]


def test_monic_form_annihilates_the_solution():
    # Apply D^4 + a3 D^3 + ... + a0 to the truncated solution as a Laurent
    # series with exact coefficients; everything must cancel.
    N = 40
    nums, den = to_monic(AA)
    coeffs = [Fraction(c) for c in solve_series(AA, N)]
    prec = N + 1
    ys = [Laurent.from_series(coeffs, prec)]
    for _ in range(4):
        ys.append(ys[-1].derivative())
    acc = ys[4]
    for j in range(4):
        acc = acc + Laurent.from_ratfun(nums[j], den, prec) * ys[j]
    assert acc.is_zero_up_to(N - 8)


# -- series solving ----------------------------------------------------------------


def test_first_solution_coefficients():
    assert solve_series(AA, 5) == F0_HEAD


def test_wedge_solution_coefficients():
    assert solve_series(wedge_square(AA), 5) == BIG_F0_HEAD


def test_geometric_series():
    assert solve_series(geometric_op(), 10) == [1] * 11


# theta^2 - 4 z^2 + z^3 theta (theta - 2) + z^4 (4 - 2 theta) annihilates
# 1 + z^2: its P_1 is zero and its P_2 constant, so their difference tables
# have degree 0, and any other column read one degree off leaves Z at c_3
ZERO_AND_CONSTANT_ROWS = ThetaOperator([[0, 0, 1], [0], [-4], [0, -2, 1], [4, -2]])

RECURRENCE_CASES = (
    [pytest.param(AA, 50, id="A*a")]
    + [pytest.param(exterior_square(CATALOG[name]), 40, id=f"wedge {name}")
       for name in CATALOG_NAMES]
    + [pytest.param(ZERO_AND_CONSTANT_ROWS, 12, id="zero and constant rows")]
    # shorter than the wedge's difference heads (six values per column)
    + [pytest.param(exterior_square(CATALOG["A*a"]), N, id=f"wedge A*a N={N}")
       for N in (0, 1, 2)])


@pytest.mark.parametrize("op, N", RECURRENCE_CASES)
def test_solution_satisfies_the_recurrence(op, N):
    series = solve_series(op, N)
    assert len(series) == N + 1 and series[0] == 1
    d = op.z_degree
    for n in range(N + 1):
        acc = 0
        for i in range(min(n, d) + 1):
            poly = op.theta_poly(i)
            val = 0
            for c in reversed(poly):
                val = val * (n - i) + c
            acc += val * series[n - i]
        assert acc == 0


def test_non_mum_operator_rejected():
    with pytest.raises(ValueError):
        solve_series(ThetaOperator([[0, 1, 1], [1]]), 5)


def test_negative_truncation_order_rejected():
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        solve_series(ThetaOperator([[0, 0, 1], [-1]]), -1)


def test_non_integral_solution_detected():
    # theta^2 - z has c_n = c_{n-1} / n^2, which leaves Z at n = 2.
    with pytest.raises(NonIntegralSolution):
        solve_series(ThetaOperator([[0, 0, 1], [-1]]), 5)


def test_exact_mode_storage_reduction_matches_full_integers():
    full = solve_series(AA, 60)
    reduced, = solve_series(AA, 60, targets=[(7, 3, 60)])
    assert reduced == [c % 7**3 for c in full]


# -- one run, several truncations --------------------------------------------------


def same_outcome(op, batched, p, K, N):
    """``batched`` is what a one-target run of (p, K, N) gives: the same
    series, or a NonIntegralSolution with the same message."""
    alone, = solve_series(op, N, targets=[(p, K, N)])
    if isinstance(alone, NonIntegralSolution):
        return (isinstance(batched, NonIntegralSolution)
                and str(batched) == str(alone))
    return isinstance(batched, list) and batched == alone


def test_batched_integrality_is_decided_per_target():
    # c_n = (3n-2)(3n-1)/n^2 c_(n-1): 1, 2, 10, then c_3 = 560/9
    op = ThetaOperator([[0, 0, 0, 0, 1], [-2, -13, -29, -27, -9]], name="half")
    assert solve_series(op, 2) == [1, 2, 10]
    message = "coefficient c_3 is not an integer (operator half)"
    with pytest.raises(NonIntegralSolution) as alone:
        solve_series(op, 4)
    assert str(alone.value) == message
    first, second = solve_series(op, 4, targets=[(3, 1, 2), (5, 1, 4)])
    assert first == [1, 2, 1]
    assert isinstance(second, NonIntegralSolution) and str(second) == message


def test_residue_phase_still_raises_on_a_non_integral_coefficient():
    # c_n = lam c_(n-1) + c_(n-26) / n^4: c_n = lam^n up to n = 25, then
    # c_26 = lam^26 + 1/26^4 is not 13-integral.  The run keeps Q = 13^9
    # from the first degree on and leaves exact integers at n = 13, where
    # Q = 13^5 and c_13 has 1301 bits.
    lam = 2**100
    rows = ([[0, 0, 0, 0, 1], [-lam * c for c in (1, 4, 6, 4, 1)]]
            + [[0] * 5] * 24 + [[-1, 0, 0, 0, 0]])
    op = ThetaOperator(rows, name="late")
    targets = [(13, 1, 30), (13, 1, 25)]
    exact = solve_series(op, 30, targets=targets)
    assert str(exact[0]) == "coefficient c_26 is not an integer (operator late)"
    failed, early = solve_series(op, 30, targets=targets, integral=True)
    assert isinstance(failed, NonIntegralSolution)
    assert str(failed) == "coefficient c_26 is not 13-integral (operator late)"
    assert early == exact[1] == [pow(lam, n, 13) for n in range(26)]
    lone, = solve_series(op, 26, targets=[(13, 1, 26)], integral=True)
    assert isinstance(lone, NonIntegralSolution)
    assert str(lone) == str(failed)


def test_batched_run_checks_its_targets():
    with pytest.raises(ValueError, match="target order 9 outside 0 .. 8"):
        solve_series(AA, 8, targets=[(5, 1, 9)])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CATALOG_NAMES), wedge=st.booleans(),
       integral=st.booleans(), margin=st.sampled_from([0.25, 0.5, 1, 3]),
       targets=st.lists(st.tuples(st.sampled_from([3, 5, 7, 11]),
                                  st.integers(1, 4), st.integers(0, 150)),
                        min_size=1, max_size=5),
       beyond=st.integers(0, 5))
def test_batched_run_equals_separate_calls(name, wedge, integral, margin,
                                           targets, beyond):
    # A low switch margin lets an integral batch of several primes
    # enter the residue phase before its short targets finish; its residues
    # must still be the exact run's.  A run past every target's N_t changes
    # no list.
    op = CATALOG[name]
    op = wedge_square(op) if wedge else op
    run_to = max(N for _p, _K, N in targets) + beyond
    with mock.patch.object(diffop, "SWITCH_MARGIN", margin):
        batched = solve_series(op, run_to, targets=targets, integral=integral)
    assert len(batched) == len(targets)
    for got, (p, K, N) in zip(batched, targets):
        assert same_outcome(op, got, p, K, N)


@pytest.mark.parametrize("margin", [0.5, diffop.SWITCH_MARGIN])
def test_finished_primes_keep_their_digits(margin, monkeypatch):
    # table_wide's targets on A*a's stored wedge.  Q is computed once, so
    # the primes 3 and 5 keep their digits in it after their targets end at
    # N = 80 and 124.  At margin 0.5 the run is in the residue phase by
    # then; at the default margin it switches later, with those digits in Q.
    entered = spy(monkeypatch, diffop, "_unscale",
                  lambda out, us, n0, m: n0)
    op = exterior_square(CATALOG["A*a"])
    targets = [(3, 4, 80), (5, 3, 124), (7, 3, 342)]
    with mock.patch.object(diffop, "SWITCH_MARGIN", margin):
        batched = solve_series(op, 342, targets=targets, integral=True)
    assert batched == [solve_series(op, N, targets=[(p, K, N)])[0]
                       for p, K, N in targets]
    if margin < 1:  # the residue phase began before the first target ended
        assert entered and max(entered) < 80


# -- self-duality conditions ---------------------------------------------------------


def test_cy4_holds_for_the_catalog_and_fails_generically():
    assert diffop.is_self_dual(AA)
    bad = ThetaOperator([[0, 0, 0, 0, 1], [0, -1, -3, -3, -1]])  # -z theta (theta+1)^3
    assert not diffop.is_self_dual(bad)


def test_cy5_holds_for_the_wedge_and_fails_generically():
    assert check_cy5(wedge_square(AA))
    # theta^5 - z (theta+1)^3 (theta+2)^2 is not self-dual.
    bad = ThetaOperator([[0, 0, 0, 0, 0, 1], [-4, -16, -25, -19, -7, -1]])
    assert not check_cy5(bad)
    with pytest.raises(ValueError):
        check_cy5(AA)


def test_cy5_accepts_a_degenerate_but_self_dual_operator():
    # theta^5 - z (theta+1)^5 composes as theta^5 (1 - z); conjugating by
    # z/(1-z) shows it is anti-self-adjoint, so the condition must hold even
    # though the operator is degenerate.
    degenerate = ThetaOperator([[0, 0, 0, 0, 0, 1], [-1, -5, -10, -10, -5, -1]])
    assert check_cy5(degenerate)


def shifted(op: ThetaOperator, a: int) -> ThetaOperator:
    """z^-a L z^a: each P_i(theta) becomes P_i(theta + a)."""
    rows = []
    for row in op.coeffs:
        acc = []
        for c in reversed(row):  # Horner in theta, with theta -> theta + a
            acc = poly_add(poly_mul(acc, [a, 1]), [c])
        rows.append(acc or [0])
    return ThetaOperator(rows)


def rho_numerator(op: ThetaOperator):
    n = op.theta_order
    return poly_sub(poly_scale(op.z_poly(n - 1), 2),
                    poly_scale(poly_theta(op.z_poly(n)), n))


def perturbed(op: ThetaOperator, i: int, j: int, delta: int) -> ThetaOperator:
    rows = [list(row) for row in op.coeffs]
    rows[i][j] += delta
    return ThetaOperator(rows)


# Conjugating by z^a keeps (anti-)self-adjointness and moves rho by 2a, so
# a stored wedge (rho = 0, compared row by row) and its conjugate (the
# general E_k comparison) must get the same verdict.
SHIFTS = [-2, 1, 3]


@pytest.mark.parametrize("a", SHIFTS)
def test_self_duality_verdict_survives_conjugation_by_a_power_of_z(a):
    verdicts = []
    for name in CATALOG_NAMES:
        wedge = exterior_square(CATALOG[name])
        assert not rho_numerator(wedge) and rho_numerator(shifted(wedge, a))
        for op in (wedge, perturbed(wedge, 3, 0, 1), perturbed(wedge, 2, 5, -1)):
            verdict = diffop.is_self_dual(op)
            assert diffop.is_self_dual(shifted(op, a)) == verdict
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(CATALOG_NAMES), i=st.integers(0, 4),
       j=st.integers(0, 5), delta=st.integers(-3, 3).filter(bool),
       a=st.sampled_from(SHIFTS))
def test_perturbed_wedge_keeps_its_verdict_under_conjugation(name, i, j, delta, a):
    op = perturbed(exterior_square(CATALOG[name]), i, j, delta)
    assert diffop.is_self_dual(shifted(op, a)) == diffop.is_self_dual(op)
