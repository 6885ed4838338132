"""Exact polynomial and rational-function algebra, and the linear solver."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobcy.polyrat import (NoSolution, RatPoly, RationalFunction, poly_gcd,
                            rational_roots, solve_linear_system)


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
    assert p.evaluate_mod(4, 7) == (5 + 3 * 16) % 7


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


def test_evaluate_with_pole():
    f = rf((1,), (0, 1))
    assert f.evaluate(Fraction(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        f.evaluate(Fraction(0))


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


# -- linear solver -----------------------------------------------------------------


def test_identity_system_returns_rhs():
    one, zero = RationalFunction.one(), RationalFunction.zero()
    matrix = [[one, zero], [zero, one]]
    rhs = [rf((1, 2)), rf((0, 0, 3))]
    solution, kernel = solve_linear_system(matrix, rhs)
    assert solution == rhs
    assert kernel == 0


def test_singular_consistent_system_reports_kernel():
    one = RationalFunction.one()
    two = rf((2,))
    solution, kernel = solve_linear_system([[one, one], [two, two]],
                                           [rf((3,)), rf((6,))])
    assert kernel == 1
    assert solution[0] + solution[1] == rf((3,))


def test_inconsistent_system_raises():
    one = RationalFunction.one()
    two = rf((2,))
    with pytest.raises(NoSolution):
        solve_linear_system([[one, one], [two, two]], [rf((3,)), rf((7,))])


def test_overdetermined_consistent_system():
    one, zero = RationalFunction.one(), RationalFunction.zero()
    matrix = [[one, zero], [zero, one], [one, one]]
    rhs = [rf((1,)), rf((2,)), rf((3,))]
    solution, kernel = solve_linear_system(matrix, rhs)
    assert solution == [rf((1,)), rf((2,))]
    assert kernel == 0


def test_ragged_matrix_rejected():
    one = RationalFunction.one()
    with pytest.raises(ValueError):
        solve_linear_system([[one, one], [one]], [one, one])


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_solution_satisfies_the_system(entries, target):
    matrix = [[rf((entries[0],)), rf((entries[1],))],
              [rf((entries[2],)), rf((entries[3],))]]
    rhs = [rf((t,)) for t in target]
    try:
        solution, _kernel = solve_linear_system(matrix, rhs)
    except NoSolution:
        return
    for row, want in zip(matrix, rhs):
        acc = RationalFunction.zero()
        for a, x in zip(row, solution):
            acc = acc + a * x
        assert acc == want
