"""Exact polynomial and rational-function algebra, integer coefficient lists,
and the fraction-free linear solver over Z[z]."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from frobcy.polyrat import (NoSolution, RatPoly, RationalFunction, poly_add,
                            poly_exact_div, poly_gcd, poly_mul, poly_scale,
                            poly_sub, poly_theta, poly_trim, rational_roots,
                            solve_linear_system)


def rf(num, den=None) -> RationalFunction:
    return RationalFunction(RatPoly(num), RatPoly(den) if den else None)


small_fracs = st.fractions(min_value=-9, max_value=9,
                           max_denominator=6)
small_polys = st.lists(small_fracs, min_size=0, max_size=5).map(RatPoly)


# -- RatPoly -----------------------------------------------------------------------


def test_degree_and_trailing_zeros():
    p = RatPoly((1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert RatPoly(()).is_zero()
    assert RatPoly((0, 0)).degree == -1


def test_getitem_fills_zero():
    p = RatPoly((1, 2))
    assert p[0] == 1 and p[1] == 2 and p[5] == 0


def test_mul_expands_the_discriminant_factors():
    prod = RatPoly((1, 16)) * RatPoly((1, -128))
    assert prod == RatPoly((1, -112, -2048))


def test_divmod_roundtrip():
    a = RatPoly((2, 0, 3, 1))
    b = RatPoly((1, 1))
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_exact_div_rejects_remainder():
    with pytest.raises(ArithmeticError):
        RatPoly((1, 1, 1)).exact_div(RatPoly((1, 1)))


def test_pow():
    assert RatPoly((1, 1)) ** 3 == RatPoly((1, 3, 3, 1))
    assert RatPoly((2,)) ** 0 == RatPoly.one()


def test_derivative_and_evaluate():
    p = RatPoly((5, 0, 3))          # 5 + 3z^2
    assert p.derivative() == RatPoly((0, 6))
    assert p.evaluate(Fraction(1, 2)) == Fraction(23, 4)


def test_integer_coeffs_and_content():
    p = RatPoly((Fraction(2, 3), Fraction(4, 3)))
    content, prim = p.content_and_primitive()
    assert content == Fraction(2, 3)
    assert prim.integer_coeffs() == [1, 2]
    with pytest.raises(ValueError):
        p.integer_coeffs()


def test_poly_gcd_is_monic():
    a = RatPoly((-1, 0, 1))         # (z-1)(z+1)
    b = RatPoly((1, 2, 1))          # (z+1)^2
    assert poly_gcd(a, b) == RatPoly((1, 1))
    assert poly_gcd(RatPoly.zero(), RatPoly.zero()).is_zero()


def test_rational_roots_with_multiplicity_and_cofactor():
    # z^2 (z + 1/2)^2 (z^2 + 1), integer-cleared
    p = RatPoly((0, 0, 1)) * RatPoly((Fraction(1, 2), 1)) ** 2 * RatPoly((1, 0, 1))
    roots, cofactor = rational_roots(p)
    assert dict(roots) == {Fraction(0): 2, Fraction(-1, 2): 2}
    assert rational_roots(cofactor)[0] == []


def test_rational_roots_of_the_quadratic_symbol():
    roots, cofactor = rational_roots(RatPoly((1, -112, -2048)))
    assert sorted(r for r, _ in roots) == [Fraction(-1, 16), Fraction(1, 128)]
    assert cofactor.degree == 0


def _divisors(n: int) -> list:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots_oracle(poly: RatPoly) -> tuple:
    """The Fraction root search: every candidate +-d0/dn (d0 | c_0, dn | c_n)
    in ascending order, tested by Horner evaluation and divided out by
    z - root over Q."""
    if poly.is_zero():
        raise ValueError("zero polynomial")
    _, prim = poly.content_and_primitive()
    ints = prim.integer_coeffs()
    # strip root at 0
    v0 = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        v0 += 1
    roots = []
    if v0:
        roots.append((Fraction(0), v0))
    work = RatPoly(ints)
    if work.degree >= 1:
        candidates = set()
        for num in _divisors(ints[0]):
            for den in _divisors(ints[-1]):
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
        for cand in sorted(candidates):
            if work.degree < 1:
                break
            mult = 0
            lin = RatPoly((-cand, 1))
            while work.evaluate(cand) == 0:
                work = work.exact_div(lin)
                mult += 1
            if mult:
                roots.append((cand, mult))
    return roots, work


# (b z - a)^m with gcd(a, b) = 1; the multiplicities stay small enough
# that the oracle's candidate set, all +-d0/dn, is quick to scan
_linear_factors = st.lists(
    st.tuples(st.integers(-60, 60), st.integers(1, 60), st.integers(1, 3))
    .filter(lambda abm: gcd(abm[0], abm[1]) == 1),
    max_size=2).filter(lambda fs: sum(m for _a, _b, m in fs) <= 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), _linear_factors,
       st.sampled_from([(1,), (1, 0, 1), (-2, 0, 1), (1, 1, 3)]),
       st.integers(-30, 30).filter(bool))
def test_rational_roots_match_the_fraction_oracle(k, linear, rootless, content):
    p = poly_mul([0] * k + [content], rootless)
    for a, b, m in linear:
        for _ in range(m):
            p = poly_mul(p, [-a, b])
    roots, cofactor = rational_roots(RatPoly(p))
    want_roots, want_cofactor = rational_roots_oracle(RatPoly(p))
    assert roots == want_roots
    ratio = want_cofactor.coeffs[-1] / cofactor.coeffs[-1]
    assert ratio and want_cofactor == cofactor * RatPoly((ratio,))


# -- RationalFunction ---------------------------------------------------------------


def test_addition_over_common_denominator():
    x_over = rf((0, 1), (1, 1))
    one_over = rf((1,), (1, 1))
    assert x_over + one_over == RationalFunction.one()


def test_self_division_of_inverse_monomial():
    inv_x = rf((1,), (0, 1))
    assert inv_x / inv_x == RationalFunction.one()


def test_canonical_form_reduces_and_makes_den_monic():
    f = rf((0, 2), (0, 4, 4))       # 2z / (4z + 4z^2) = (1/2) / (1 + z)
    assert f.num == RatPoly((Fraction(1, 2),))
    assert f.den == RatPoly((1, 1))
    assert RationalFunction(f.num, f.den) == f


def test_derivative_quotient_rule():
    assert rf((3,)).derivative().is_zero()
    assert rf((0, 0, 1)).derivative() == rf((0, 2))
    one_minus = rf((1,), (1, -1))
    d = one_minus.derivative()
    assert d == RationalFunction(RatPoly((1,)), RatPoly((1, -1)) ** 2)


def test_power_including_negative():
    f = rf((0, 1), (1, 1))
    assert f ** 2 == rf((0, 0, 1), (1, 2, 1))
    assert f ** -1 == rf((1, 1), (0, 1))
    assert f ** 0 == RationalFunction.one()
    with pytest.raises(ZeroDivisionError):
        RationalFunction.zero() ** -1


@given(small_polys, small_polys, small_polys)
def test_multiply_then_divide_is_identity(a, b, g):
    f = RationalFunction(a, RatPoly((1, 2)))
    h = RationalFunction(b if not b.is_zero() else RatPoly.one(), RatPoly((3, 0, 1)))
    assert (f * h) / h == f
    del g


@given(small_polys, small_polys)
def test_ratfun_add_commutes(a, b):
    f = RationalFunction(a, RatPoly((1, 1)))
    h = RationalFunction(b, RatPoly((2, 1)))
    assert f + h == h + f
    assert (f - h) + h == f


# -- integer polynomial lists -------------------------------------------------------


def test_integer_list_ring_operations():
    assert poly_trim([1, 2, 0, 0]) == [1, 2] and poly_trim([0, 0]) == []
    assert poly_mul([1, 16], [1, -128]) == [1, -112, -2048]
    assert poly_mul([], [1, 2]) == []
    assert poly_add([1, 2, 3], [0, 0, -3]) == [1, 2]
    assert poly_sub([1, 2], [1, 2]) == []
    assert poly_scale([1, -2], -3) == [-3, 6] and poly_scale([1, 2], 0) == []
    assert poly_theta([5, 7, 0, 2]) == [0, 7, 0, 6] and poly_theta([4]) == []


def test_integer_list_exact_division():
    assert poly_exact_div([1, -112, -2048], [1, 16]) == [1, -128]
    assert poly_exact_div([], [3, 1]) == []
    with pytest.raises(ArithmeticError):
        poly_exact_div([1, 1, 1], [1, 1])
    with pytest.raises(ArithmeticError):
        poly_exact_div([2, 2], [4, 4])          # quotient 1/2 is not in Z[z]
    with pytest.raises(ZeroDivisionError):
        poly_exact_div([1], [])


int_polys = st.lists(st.integers(-9, 9), max_size=4).map(poly_trim)


@given(int_polys, int_polys.filter(bool))
def test_integer_list_product_divides_back(a, b):
    assert poly_exact_div(poly_mul(a, b), b) == a
    assert RatPoly(poly_mul(a, b)) == RatPoly(a) * RatPoly(b)


# -- linear solver over Z[z] --------------------------------------------------------


def check_solution(matrix, rhs, numerators, den):
    """A X = den * b, row by row."""
    for row, want in zip(matrix, rhs):
        acc = []
        for a, x in zip(row, numerators):
            acc = poly_add(acc, poly_mul(a, x))
        assert acc == poly_mul(den, poly_trim(want))


def test_identity_system_returns_rhs():
    matrix = [[[1], []], [[], [1]]]
    rhs = [[1, 2], [0, 0, 3]]
    numerators, den, kernel = solve_linear_system(matrix, rhs)
    assert den == [1]
    assert numerators == rhs
    assert kernel == 0


def test_singular_consistent_system_reports_kernel():
    numerators, den, kernel = solve_linear_system([[[1], [1]], [[2], [2]]],
                                                  [[3], [6]])
    assert kernel == 1
    assert poly_add(numerators[0], numerators[1]) == poly_scale(den, 3)


def test_inconsistent_system_raises():
    with pytest.raises(NoSolution):
        solve_linear_system([[[1], [1]], [[2], [2]]], [[3], [7]])


def test_overdetermined_consistent_system():
    matrix = [[[1], []], [[], [1]], [[1], [1]]]
    rhs = [[1], [2], [3]]
    numerators, den, kernel = solve_linear_system(matrix, rhs)
    assert [RationalFunction(RatPoly(x), RatPoly(den)) for x in numerators] \
        == [rf((1,)), rf((2,))]
    assert kernel == 0


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        solve_linear_system([[[1], [1]], [[1]]], [[1], [1]])


def test_polynomial_entries_give_cramer_numerators():
    # [[z, 1], [1, z]] x = [1, 0]: x = (z, -1) / (z^2 - 1)
    matrix = [[[0, 1], [1]], [[1], [0, 1]]]
    numerators, den, kernel = solve_linear_system(matrix, [[1], []])
    assert kernel == 0
    x = [RationalFunction(RatPoly(v), RatPoly(den)) for v in numerators]
    assert x == [rf((0, 1), (-1, 0, 1)), rf((-1,), (-1, 0, 1))]
    check_solution(matrix, [[1], []], numerators, den)


@given(st.lists(st.lists(st.integers(-5, 5), max_size=3), min_size=6, max_size=6),
       st.lists(st.lists(st.integers(-5, 5), max_size=3), min_size=3, max_size=3))
def test_solution_satisfies_the_system(entries, target):
    matrix = [entries[0:2], entries[2:4], entries[4:6]]
    try:
        numerators, den, _kernel = solve_linear_system(matrix, target)
    except NoSolution:
        return
    assert den
    check_solution(matrix, target, numerators, den)
