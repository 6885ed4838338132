"""Exact integer polynomial lists: ring operations, gcd, rational roots, and
the fraction-free linear solver over Z[z]."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from frobcy.polyrat import (NoSolution, _pseudo_rem, poly_add, poly_exact_div,
                            poly_gcd, poly_mul, poly_pow, poly_primitive,
                            poly_scale, poly_sub, poly_theta, poly_trim,
                            rational_roots, solve_linear_system)

from horizontal import poly_deriv, poly_eval


# -- rational roots -----------------------------------------------------------------


def test_rational_roots_with_multiplicity_and_cofactor():
    # z^2 (2z + 1)^2 (z^2 + 1)
    p = poly_mul(poly_mul([0, 0, 1], poly_mul([1, 2], [1, 2])), [1, 0, 1])
    roots, cofactor = rational_roots(p)
    assert dict(roots) == {Fraction(0): 2, Fraction(-1, 2): 2}
    assert cofactor == [1, 0, 1]
    assert rational_roots(cofactor)[0] == []


def test_rational_roots_of_the_quadratic_symbol():
    roots, cofactor = rational_roots([1, -112, -2048])
    assert sorted(r for r, _ in roots) == [Fraction(-1, 16), Fraction(1, 128)]
    assert len(cofactor) == 1


def test_rational_roots_reject_zero():
    with pytest.raises(ValueError):
        rational_roots([])


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


def _frac_divide_root(cs: list, x: Fraction) -> list:
    """cs / (z - x) over Q by synthetic division (x must be a root)."""
    out = [Fraction(0)] * (len(cs) - 1)
    carry = Fraction(0)
    for k in range(len(cs) - 1, 0, -1):
        carry = carry * x + cs[k]
        out[k - 1] = carry
    return out


def rational_roots_oracle(ints: list) -> tuple:
    """The Fraction root search on a coefficient list: every candidate
    +-d0/dn (d0 | c_0, dn | c_n) in ascending order, tested by Horner
    evaluation and divided out by z - root over Q."""
    v0 = 0
    while ints[v0] == 0:
        v0 += 1
    work = [Fraction(c) for c in ints[v0:]]
    roots = [(Fraction(0), v0)] if v0 else []
    candidates = set()
    for num in _divisors(ints[v0]):
        for den in _divisors(ints[-1]):
            candidates.update((Fraction(num, den), Fraction(-num, den)))
    for cand in sorted(candidates):
        mult = 0
        while len(work) > 1 and poly_eval(work, cand) == 0:
            work = _frac_divide_root(work, cand)
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
    roots, cofactor = rational_roots(p)
    want_roots, want_cofactor = rational_roots_oracle(p)
    assert roots == want_roots
    assert cofactor == poly_primitive(cofactor)
    ratio = want_cofactor[-1] / cofactor[-1]
    assert want_cofactor == [ratio * c for c in cofactor]


# -- integer polynomial lists -------------------------------------------------------


def test_degree_and_trailing_zeros():
    # the degree of a trimmed list is its length minus one; zero is []
    assert poly_trim([1, 2, 0, 0]) == [1, 2] and poly_trim([0, 0]) == []
    assert poly_add([1, 2, 3], [0, 0, -3]) == [1, 2]
    assert poly_sub([1, 2], [1, 2]) == []
    assert poly_scale([1, 2], 0) == []


def test_integer_list_ring_operations():
    assert poly_mul([], [1, 2]) == []
    assert poly_scale([1, -2], -3) == [-3, 6]
    assert poly_theta([5, 7, 0, 2]) == [0, 7, 0, 6] and poly_theta([4]) == []


def test_mul_expands_the_discriminant_factors():
    assert poly_mul([1, 16], [1, -128]) == [1, -112, -2048]


def test_pow():
    assert poly_pow([1, 1], 3) == [1, 3, 3, 1]
    assert poly_pow([2], 0) == [1]


def test_derivative_and_evaluate():
    p = [5, 0, 3]                   # 5 + 3z^2
    assert poly_deriv(p) == [0, 6] and poly_deriv([4]) == []
    assert poly_eval(p, Fraction(1, 2)) == Fraction(23, 4)
    assert poly_eval([], 3) == 0


def test_integer_coeffs_and_content():
    assert poly_primitive([4, -6]) == [-2, 3]
    assert poly_primitive([0, 3]) == [0, 1]
    assert poly_primitive([-5]) == [1]
    assert poly_primitive([]) == []


def test_divmod_roundtrip():
    # Z[z] pseudo-division: lc(b)^(deg a - deg b + 1) a = q b + r, deg r < deg b
    a, b = [2, 0, 3, 1], [1, 2]
    r = _pseudo_rem(a, b)
    assert len(r) < len(b)
    q = poly_exact_div(poly_sub(poly_scale(a, b[-1] ** 3), r), b)
    assert poly_add(poly_mul(q, b), r) == poly_scale(a, 8)


def test_gcd_is_primitive_with_positive_lead():
    assert poly_gcd([-1, 0, 1], [1, 2, 1]) == [1, 1]       # (z-1)(z+1), (z+1)^2
    assert poly_gcd([-4, 0, 4], [-3, -6, -3]) == [1, 1]
    assert poly_gcd([0, 2], [0, 0, 6]) == [0, 1]
    assert poly_gcd([1, 1], [1, 2]) == [1]
    assert poly_gcd([6, 4], []) == [3, 2]
    assert poly_gcd([], []) == []


def test_exact_div_rejects_remainder():
    with pytest.raises(ArithmeticError):
        poly_exact_div([1, 1, 1], [1, 1])


def test_integer_list_exact_division():
    assert poly_exact_div([1, -112, -2048], [1, 16]) == [1, -128]
    assert poly_exact_div([], [3, 1]) == []
    with pytest.raises(ArithmeticError):
        poly_exact_div([2, 2], [4, 4])          # quotient 1/2 is not in Z[z]
    with pytest.raises(ZeroDivisionError):
        poly_exact_div([1], [])


int_polys = st.lists(st.integers(-9, 9), max_size=4).map(poly_trim)


@given(int_polys, int_polys.filter(bool), st.fractions(max_denominator=5))
def test_integer_list_product_divides_back(a, b, x):
    assert poly_exact_div(poly_mul(a, b), b) == a
    assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)
    assert poly_eval(poly_deriv(poly_mul(a, b)), x) == \
        poly_eval(poly_add(poly_mul(poly_deriv(a), b), poly_mul(a, poly_deriv(b))), x)


@given(int_polys.filter(bool), int_polys, int_polys.filter(bool),
       st.integers(-6, 6))
def test_gcd_contains_the_common_factor_and_divides_both(a, b, g, c):
    ag, bg = poly_mul(a, g), poly_mul(poly_add(b, [c]), g)
    d = poly_gcd(ag, bg)
    assert d == poly_primitive(d) and d
    poly_exact_div(d, poly_primitive(g))      # prim(g) | d
    poly_exact_div(ag, d)                     # d | a g
    poly_exact_div(bg, d)                     # d | b g


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
    assert numerators == [den, poly_scale(den, 2)]           # x = (1, 2)
    assert kernel == 0
    check_solution(matrix, rhs, numerators, den)


def test_empty_system_rejected():
    with pytest.raises(ValueError, match="empty system"):
        solve_linear_system([], [])


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        solve_linear_system([[[1], [1]], [[1]]], [[1], [1]])


def test_polynomial_entries_give_cramer_numerators():
    # [[z, 1], [1, z]] x = [1, 0]: x = (z, -1) / (z^2 - 1)
    matrix = [[[0, 1], [1]], [[1], [0, 1]]]
    numerators, den, kernel = solve_linear_system(matrix, [[1], []])
    assert kernel == 0
    for x, want in zip(numerators, ([0, 1], [-1])):
        assert poly_mul(x, [-1, 0, 1]) == poly_mul(want, den)
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
