"""p-adic helpers on integer residues: the one primality test, Teichmueller
lifts, balanced representatives, and the one Horner loop."""

import pytest
from hypothesis import given, strategies as st

from frobcy.padic import (MR_BASES, MR_BOUND, NotAUnit, balanced_residue,
                          horner, is_odd_prime, teichmueller_residue)

PRIMES = (3, 5, 7, 11, 13, 17)

odd_primes = st.sampled_from(PRIMES)


def test_is_odd_prime_matches_a_sieve():
    N = 10**5
    composite = [False] * N
    for q in range(2, N):
        for m in range(2 * q, N, q):
            composite[m] = True
    assert [n for n in range(-3, N) if is_odd_prime(n)] == \
        [n for n in range(3, N) if not composite[n]]


def test_is_odd_prime_decides_large_numbers():
    assert is_odd_prime(2**61 - 1)
    # a strong pseudoprime to the bases 2 .. 37, the least composite that
    # the first 12 primes pass; the 13th base, 41, rejects it
    psi12 = 318_665_857_834_031_151_167_461
    assert psi12 == 399_165_290_221 * 798_330_580_441
    assert not is_odd_prime(psi12)


def test_miller_rabin_constants_are_sorenson_websters():
    # the bases are the first 13 primes, and the bound is psi_13 of
    # Sorenson and Webster: composite, and a strong pseudoprime to every
    # one of those bases, so the least number that they cannot decide
    assert MR_BASES == tuple(n for n in range(2, 42)
                             if all(n % q for q in range(2, n)))
    assert MR_BOUND == 3_317_044_064_679_887_385_961_981
    assert MR_BOUND == 1_287_836_182_261 * 2_575_672_364_521
    r = ((MR_BOUND - 1) & (1 - MR_BOUND)).bit_length() - 1
    d = (MR_BOUND - 1) >> r
    assert all(pow(a, d, MR_BOUND) == 1 or any(
        pow(a, d << i, MR_BOUND) == MR_BOUND - 1 for i in range(r))
        for a in MR_BASES)


def test_is_odd_prime_raises_from_its_bound_on():
    assert not is_odd_prime(MR_BOUND - 1)  # even, and still decided
    with pytest.raises(ValueError, match="beyond the prime check"):
        is_odd_prime(MR_BOUND)


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


# -- balanced representatives -------------------------------------------------------


@pytest.mark.parametrize("residue,expected", [(2, 2), (2396, -5), (2393, -8)])
def test_balanced_residue_small_cases(residue, expected):
    assert balanced_residue(residue, 7**4) == expected


def test_balanced_residue_uses_only_the_given_modulus():
    # 2393 = -8 mod 7^4, and mod 7^2 it is 2393 % 49 = 41 = -8 too
    assert balanced_residue(2393, 7**2) == -8
    # a residue whose low digits differ from its full lift: 100 = 2 mod 7
    assert balanced_residue(100, 7) == 2


@given(odd_primes, st.integers(1, 6), st.integers())
def test_balanced_residue_is_balanced_and_congruent(p, g, r):
    m = p**g
    lift = balanced_residue(r, m)
    assert (lift - r) % m == 0
    assert 2 * abs(lift) <= m


# -- Horner evaluation --------------------------------------------------------------


@given(st.lists(st.integers(-10**6, 10**6), max_size=12), st.integers(),
       st.integers(1, 10**9))
def test_horner_is_the_polynomial_mod_m(coeffs, x, m):
    # coeffs are c_0 .. c_d; horner takes them from the highest degree down
    assert horner(reversed(coeffs), x, m) == \
        sum(c * x**k for k, c in enumerate(coeffs)) % m


def test_horner_reads_a_generator_once():
    read = []

    def top_down():
        for c in (2, 0, 1):
            read.append(c)
            yield c

    assert horner(top_down(), 3, 1000) == 2 * 9 + 1
    assert read == [2, 0, 1]
