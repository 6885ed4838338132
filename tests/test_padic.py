"""Fixed-precision p-adic arithmetic: lifts, division, precision tracking,
and the one primality test."""

import pytest
from hypothesis import given, strategies as st

from frobcy.padic import (NotAUnit, PadicNumber, PrecisionExhausted,
                          balanced_lift, balanced_residue, is_odd_prime,
                          padic_div, teichmueller_residue)

PRIMES = (3, 5, 7, 11, 13, 17)

odd_primes = st.sampled_from(PRIMES)


@st.composite
def padic_triples(draw):
    p = draw(odd_primes)
    cap = draw(st.integers(1, 5))
    m = p**cap
    return [PadicNumber.exact(draw(st.integers(0, m - 1)), p, cap)
            for _ in range(3)]


def test_is_odd_prime_matches_a_sieve():
    N = 500
    composite = [False] * N
    for q in range(2, N):
        for m in range(2 * q, N, q):
            composite[m] = True
    assert [n for n in range(-3, N) if is_odd_prime(n)] == \
        [n for n in range(3, N) if not composite[n]]


# -- construction ------------------------------------------------------------------


def test_constructor_normalizes_residue():
    x = PadicNumber(7, 4, -8, 4)
    assert x.residue == 2401 - 8
    assert x.modulus == 2401


def test_exact_certifies_all_digits():
    x = PadicNumber.exact(-5, 5, 3)
    assert (x.residue, x.guaranteed) == (120, 3)


def test_even_prime_rejected():
    with pytest.raises(ValueError):
        PadicNumber.exact(1, 2, 3)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        PadicNumber.exact(1, 9, 2)


def test_empty_precision_rejected():
    with pytest.raises(PrecisionExhausted):
        PadicNumber(7, 4, 1, 0)
    with pytest.raises(PrecisionExhausted):
        PadicNumber(7, 4, 1, 5)


# -- Teichmueller lifts -------------------------------------------------------------


def test_teichmueller_fixes_one():
    assert teichmueller_residue(1, 7, 7**4) == 1


def test_teichmueller_of_minus_one():
    assert teichmueller_residue(6, 7, 7**4) == 2400


def test_teichmueller_of_two_is_a_sixth_root():
    w = teichmueller_residue(2, 7, 7**4)
    assert w % 7 == 2
    assert pow(w, 7, 2401) == w
    assert pow(w, 6, 2401) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_teichmueller_fermat_root_property(p):
    for cap in range(1, 7):
        m = p**cap
        for a0 in range(1, p):
            w = teichmueller_residue(a0, p, m)
            assert w % p == a0
            assert pow(w, p - 1, m) == 1


def test_teichmueller_of_zero_raises():
    with pytest.raises(NotAUnit):
        teichmueller_residue(0, 7, 2401)
    with pytest.raises(NotAUnit):
        teichmueller_residue(14, 7, 2401)


def test_teichmueller_residue_matches_closed_form():
    # the lift of x0 mod p^k is x0^(p^(k-1)) mod p^k
    for p in PRIMES:
        for cap in range(1, 5):
            m = p**cap
            for a0 in range(1, p):
                assert teichmueller_residue(a0, p, m) == pow(a0, p ** (cap - 1), m)


# -- balanced lifts ----------------------------------------------------------------


@pytest.mark.parametrize("residue,expected", [(2, 2), (2396, -5), (2393, -8)])
def test_balanced_lift_small_cases(residue, expected):
    assert balanced_lift(PadicNumber.exact(residue, 7, 4)) == expected


def test_balanced_lift_uses_only_certified_digits():
    # 2393 = -8 mod 7^4, but certified only mod 7^2 it is 2393 % 49 = 41 = -8.
    x = PadicNumber(7, 4, 2393, 2)
    assert balanced_lift(x) == -8
    # A residue whose low certified digits differ from its full lift:
    y = PadicNumber(7, 4, 100, 1)   # 100 = 2 mod 7
    assert balanced_lift(y) == 2


@given(odd_primes, st.integers(1, 6), st.integers())
def test_balanced_lift_is_balanced_and_congruent(p, g, r):
    m = p**g
    x = PadicNumber(p, g, r % m, g)
    lift = balanced_lift(x)
    assert lift % m == x.residue
    assert 2 * abs(lift) <= m
    assert balanced_residue(r, m) == lift


# -- ring arithmetic and precision tracking ------------------------------------------


@given(padic_triples())
def test_ring_axioms(xs):
    x, y, z = xs
    assert ((x + y) + z).residue == (x + (y + z)).residue
    assert ((x * y) * z).residue == (x * (y * z)).residue
    assert (x * (y + z)).residue == (x * y + x * z).residue
    assert (x + y).residue == (y + x).residue
    assert (x - x).residue == 0


def test_int_coercion():
    x = PadicNumber.exact(5, 7, 3)
    assert (x + 2).residue == 7
    assert (2 + x).residue == 7
    assert (3 * x).residue == 15
    assert (2 - x).residue == (2 - 5) % 343


def test_addition_takes_minimum_guarantee():
    x = PadicNumber(7, 4, 10, 2)
    y = PadicNumber(7, 4, 20, 3)
    assert (x + y).guaranteed == 2


def test_division_costs_exactly_the_valuation():
    p = 7
    x = PadicNumber.exact(p**2 * 3, p, 5)
    y = PadicNumber.exact(p * 2, p, 5)
    q = padic_div(x, y)
    assert q.residue % p**4 == (p * 3 * pow(2, -1, p**5)) % p**4
    assert q.guaranteed == 4          # 5 - v(y) = 5 - 1


def test_division_by_unit_preserves_precision():
    x = PadicNumber(7, 4, 582, 3)
    q = x / PadicNumber.exact(5, 7, 4)
    assert q.guaranteed == 3


def test_division_requires_integral_quotient():
    x = PadicNumber.exact(3, 7, 4)      # v(x) = 0
    y = PadicNumber.exact(7, 7, 4)
    with pytest.raises(ValueError):
        padic_div(x, y)


def test_division_exhausts_precision():
    x = PadicNumber(7, 4, 49, 1)
    y = PadicNumber.exact(7, 7, 4)
    with pytest.raises(PrecisionExhausted):
        padic_div(x, y)


def test_division_by_certified_zero_raises():
    x = PadicNumber.exact(49, 7, 4)
    y = PadicNumber(7, 4, 49, 1)        # 0 at its certified precision
    with pytest.raises(NotAUnit):
        padic_div(x, y)


def test_multiplication_gains_from_valuation():
    x = PadicNumber(7, 4, 10, 2)        # unit, G = 2
    y = PadicNumber.exact(7, 7, 4)      # valuation 1, G = 4
    assert (x * y).guaranteed == 3      # min(2 + 1, 4 + 0, 2 + 4)


def test_equality_compares_certified_digits():
    x = PadicNumber(7, 4, 2, 1)
    y = PadicNumber(7, 4, 2 + 7 * 5, 1)
    assert x == y
    assert hash(x) == hash(y)
    z = PadicNumber(7, 4, 2 + 7 * 5, 2)
    assert x == z                        # compared mod 7^min(1,2)
    assert PadicNumber.exact(2, 7, 4) != PadicNumber.exact(3, 7, 4)


def test_valuation_is_capped_by_certification():
    x = PadicNumber(7, 4, 0, 2)
    assert x.valuation() == 2
    assert PadicNumber.exact(7**3, 7, 4).valuation() == 3
    assert PadicNumber.exact(10, 7, 4).valuation() == 0
