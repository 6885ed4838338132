"""Quartic assembly from unit roots, precision policy, archimedean checks,
and the elliptic one-dimensional baseline."""

import cmath
import pickle
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from frobcy import UsageError, frobenius
from frobcy.catalog import CATALOG
from frobcy.congruence import OutsideUnitDisk, dwork_ratio
from frobcy.frobenius import (LiftOutOfBound, Uncertified,
                              _balanced_pair, _box, assemble_frobenius,
                              box_precision, decode_frobenius,
                              frobenius_quartic, legendre_frobenius,
                              legendre_precision,
                              required_precision,
                              unit_roots, weil_verify)
from frobcy.padic import NotAUnit, is_odd_prime
from frobcy.series import cache_series

from conftest import legendre_trace

PRIMES = (3, 5, 7, 11, 13, 17)


def weil_shape(a: int, b: int, p: int) -> bool:
    """The Weil-shape test written out: x^2 - a x + (b p - 2 p^3) has two
    real roots in [-2 p^(3/2), 2 p^(3/2)]."""
    c = b * p - 2 * p**3
    t = 4 * p**3 + c
    return (a * a - 4 * c >= 0 and a * a <= 16 * p**3
            and t >= 0 and t * t >= 4 * a * a * p**3)


def split_pairs(p: int):
    """The pairs of (1 - chi p T)(1 - chi p^2 T)(1 - a_p T + p^3 T^2), chi = 1
    and then chi = -1, each by a_p with a_p^2 <= 4 p^3, as (a, b, (chi, a_p))
    with the decoder's split tag."""
    bound = isqrt(4 * p**3)
    for chi in (1, -1):
        for ap in range(-bound, bound + 1):
            yield (-ap - chi * (p + p * p), 2 * p * p + chi * (1 + p) * ap,
                   (chi, ap))


def admissible_pairs(p: int, with_split: bool):
    """Every admissible pair with its split tag, the Weil-shape pairs
    untagged, by filtering an envelope with ``weil_shape``: alpha + beta = a
    and |alpha|, |beta| <= 2 p^(3/2) confine alpha beta = b p - 2 p^3 to
    [2 |a| p^(3/2) - 4 p^3, a^2 / 4].  The Weil-shape pairs come by a and
    then b, then the split pairs."""
    amax = isqrt(16 * p**3)
    for a in range(-amax, amax + 1):
        lo = -2 * p * p + 2 * abs(a) * isqrt(p) - 1
        hi = 2 * p * p + a * a // (4 * p) + 1
        for b in range(lo, hi + 1):
            if weil_shape(a, b, p):
                yield a, b, None
    if with_split:
        yield from split_pairs(p)


@lru_cache(maxsize=None)
def admissible_list(p: int, with_split: bool):
    """``admissible_pairs`` enumerated once per (p, with_split)."""
    return tuple(admissible_pairs(p, with_split))


def congruent_pairs(a: int, b: int, p: int, s: int, with_split: bool):
    """The admissible pairs congruent to (a, b) mod p^s with their tags, in
    the order of ``admissible_pairs``: the decoder's candidate list by
    enumeration."""
    m = p**s
    return [(x, y, tag) for x, y, tag in admissible_list(p, with_split)
            if (x - a) % m == 0 and (y - b) % m == 0]


@pytest.fixture(scope="module")
def aa_series():
    """{(p, s): (f0, F0)} for A*a at the precisions the tests need, from one
    fetch."""
    keys = [(3, 5), (5, 4), (7, 4), (7, 5)]
    return {key: (f0, F0) for key, (F0, f0)
            in zip(keys, cache_series(CATALOG["A*a"], keys))}


# -- precision policy --------------------------------------------------------------


def split_precision(p: int) -> int:
    """Least s at which the admissible set with the split pairs is
    injective mod p^s: the precision that settles every split-point cell.
    The Weil-shape pairs are told apart from ``required_precision`` on, so
    from there the set is injective once every split pair decodes to itself
    alone."""
    s = required_precision(p)
    while any(len(decode_frobenius(a, b, p, s, True)) > 1
              for a, b, _ in split_pairs(p)):
        s += 1
    return s


class TestRequiredPrecision:
    def test_smooth_table(self):
        assert {p: required_precision(p) for p in PRIMES} == \
            {3: 4, 5: 3, 7: 3, 11: 3, 13: 3, 17: 3}

    def test_singular_table(self):
        # rows start at required_precision(p); only at p = 5 can a
        # split-point cell fit two pairs there and escalate, to s = 4
        assert {p: split_precision(p) for p in PRIMES} \
            == {3: 4, 5: 4, 7: 3, 11: 3, 13: 3, 17: 3}
        for p in PRIMES + (19, 23, 29):
            assert (split_precision(p) == required_precision(p)) == (p != 5)

    def test_width_rule_below_5000(self):
        # the docstring's claim: p^s > max(2 A, 4 p^2) first at s = 4 for
        # p = 3 and at s = 3 for every larger prime
        assert required_precision(3) == 4
        for p in ODD_PRIMES_BELOW_5000[1:]:
            assert required_precision(p) == 3, p

    def test_boundary_arithmetic(self):
        # At a = 0 the Weil-shape b fill [-2p^2, 2p^2]: 4p^2 + 1 values, more
        # than p^2 always and more than p^3 = 27 at p = 3.
        for p in (3, 5, 29):
            assert weil_shape(0, -2 * p * p, p) and weil_shape(0, 2 * p * p, p)
            assert not weil_shape(0, 2 * p * p + 1, p)
            assert not weil_shape(0, -2 * p * p - 1, p)
        assert required_precision(3) == 4
        assert required_precision(29) == split_precision(29) == 3
        # At p = 5 the Weil pair (-8, 43) and the split pair (-8, -82)
        # (chi = 1, a_p = -22) agree mod 5^3, so a split-point cell that
        # lands on them escalates from s = 3 to s = 4.
        assert weil_shape(-8, 43, 5)
        assert (-8, -82) == (22 - (5 + 25), 2 * 25 + 6 * -22)
        assert (43 - -82) % 5**3 == 0
        assert required_precision(5) == 3
        assert decode_frobenius(-8, 43, 5, 3, at_singular_fiber=True) == \
            [(-8, 43, None), (-8, -82, (1, -22))]
        assert split_precision(5) == 4

    @pytest.mark.parametrize("with_split", [False, True])
    @pytest.mark.parametrize("p", PRIMES + (19, 23))
    def test_minimality(self, p, with_split):
        # exhaustive: the residue map is injective on the whole admissible set
        # at s and not at s - 1
        s = split_precision(p) if with_split else required_precision(p)
        m, m1 = p**s, p ** (s - 1)
        count, keys, keys1 = 0, set(), set()
        for a, b, _ in admissible_pairs(p, with_split):
            count += 1
            keys.add(a % m * m + b % m)
            keys1.add(a % m1 * m1 + b % m1)
        assert len(keys) == count
        assert len(keys1) < count

    def test_precision_never_exceeds_the_box(self):
        # escalation from the start reaches every split-point cell's
        # certifying precision before the ceiling
        for p in PRIMES + (19, 23, 29):
            assert required_precision(p) <= box_precision(p)
            assert required_precision(p) <= split_precision(p) \
                <= box_precision(p, True)

    def test_rejects_even_or_tiny_primes(self):
        # and odd composites: every p that is not an odd prime
        for p in (1, 2, 9, 15):
            with pytest.raises(ValueError, match="odd prime"):
                required_precision(p)
            for fiber in (False, True):
                with pytest.raises(ValueError, match="odd prime"):
                    box_precision(p, fiber)
            with pytest.raises(ValueError, match="odd prime"):
                legendre_frobenius(p, 2)[0]


# The closed forms the precisions and the lift checks were once written in,
# kept as oracles: exact integer versions of the real bounds.

ODD_PRIMES_BELOW_5000 = [p for p in range(3, 5000, 2) if is_odd_prime(p)]


def within_real_box(a: int, b: int, p: int, fiber: bool) -> bool:
    """|a| <= 4 p^(3/2) and |b| <= 6 p^2, or on a fiber
    |a| <= p^2 + p + 2 p^(3/2) and |b| <= 2 p^2 + 2 (1+p) p^(3/2)."""
    if fiber:
        t, u = abs(a) - p * p - p, abs(b) - 2 * p * p
        return ((t <= 0 or t * t <= 4 * p**3)
                and (u <= 0 or u * u <= 4 * (1 + p) ** 2 * p**3))
    return a * a <= 16 * p**3 and abs(b) <= 6 * p * p


def box_enough(p: int, s: int, fiber: bool) -> bool:
    """p^s exceeds twice every real bound of the box."""
    ps = p**s
    if ps * ps <= 64 * p**3 or ps <= 12 * p * p:
        return False
    if fiber:
        rem = ps - 4 * p * p
        if rem <= 0 or rem * rem <= 16 * (1 + p) ** 2 * p**3:
            return False
    return True


def legendre_enough(p: int, s: int) -> bool:
    """p^s > 4 sqrt(p), i.e. p^(2s-1) > 16."""
    return p ** (2 * s - 1) > 16


def least(enough) -> int:
    s = 1
    while not enough(s):
        s += 1
    return s


def agreeing_pairs(A: int, B: int, m: int):
    """Two distinct pairs of the box |a| <= A, |b| <= B that agree mod m,
    or None.  Their difference is a nonzero point of m Z^2 with |x| <= 2A
    and |y| <= 2B, and every such point is tried."""
    for x in range(-(2 * A // m) * m, 2 * A + 1, m):
        for y in range(-(2 * B // m) * m, 2 * B + 1, m):
            if (x, y) != (0, 0):
                a, b = max(-A, -A - x), max(-B, -B - y)
                return (a, b), (a + x, b + y)
    return None


class TestBoxPrecision:
    """The box policy, kept as the escalation ceiling."""

    def test_tables(self):
        assert {p: box_precision(p) for p in PRIMES} == \
            {3: 5, 5: 4, 7: 4, 11: 4, 13: 3, 17: 3}
        assert {p: box_precision(p, want_singular=True) for p in PRIMES} \
            == {3: 5, 5: 4, 7: 4, 11: 4, 13: 4, 17: 4}

    def test_boundary_arithmetic(self):
        # 13^3 = 2197 > 2 * 6 * 169 = 2028, 7^3 = 343 < 2 * 294 = 588,
        # 3^4 = 81 < 2 * 54 = 108 <= 3^5
        assert box_precision(13) == 3
        assert box_precision(7) == 4
        assert box_precision(3) == 5

    @pytest.mark.parametrize("want_singular", [False, True])
    @pytest.mark.parametrize("p", PRIMES)
    def test_minimality(self, p, want_singular):
        s = box_precision(p, want_singular)
        assert box_enough(p, s, want_singular)
        assert not box_enough(p, s - 1, want_singular)

    def test_closed_forms_below_5000(self):
        assert len(ODD_PRIMES_BELOW_5000) == 668
        for p in ODD_PRIMES_BELOW_5000:
            for fiber in (False, True):
                assert box_precision(p, fiber) == \
                    least(lambda s: box_enough(p, s, fiber)), (p, fiber)
            assert legendre_precision(p) == \
                least(lambda s: legendre_enough(p, s)), p

    def test_box_is_the_floor_of_the_real_bounds(self):
        for p in ODD_PRIMES_BELOW_5000:
            for fiber in (False, True):
                A, B = _box(p, fiber)
                assert within_real_box(A, B, p, fiber)
                assert within_real_box(-A, -B, p, fiber)
                assert not within_real_box(A + 1, 0, p, fiber)
                assert not within_real_box(0, B + 1, p, fiber)

    @pytest.mark.parametrize("p", PRIMES + (19, 23))
    def test_brute_force_separation(self, p):
        # at the precision every two pairs of the box differ mod p^s, and
        # at s - 1 two of them agree; the Legendre traces are a box with
        # A = 0
        bound = isqrt(4 * p)
        for (A, B), s in [(_box(p, False), box_precision(p, False)),
                          (_box(p, True), box_precision(p, True)),
                          ((0, bound), legendre_precision(p))]:
            assert agreeing_pairs(A, B, p**s) is None
            if s > 1:
                x, y = agreeing_pairs(A, B, p ** (s - 1))
                assert x != y and abs(x[0]) <= A and abs(y[0]) <= A
                assert abs(x[1]) <= B and abs(y[1]) <= B
                assert (x[0] - y[0]) % p ** (s - 1) == 0
                assert (x[1] - y[1]) % p ** (s - 1) == 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_collision_search_matches_enumeration(self, p):
        for fiber in (False, True):
            A, B = _box(p, fiber)
            for s in range(1, box_precision(p, fiber) + 1):
                m = p**s
                keys = {a % m * m + b % m
                        for a in range(-A, A + 1) for b in range(-B, B + 1)}
                assert (len(keys) == (2 * A + 1) * (2 * B + 1)) == \
                    (agreeing_pairs(A, B, m) is None)


# -- unit roots --------------------------------------------------------------------


class TestUnitRoots:
    def test_undefined_points(self, aa_series):
        # the whole p = 3 row is undefined, and z0 = 3 at p = 5
        for p, s, z0 in [(3, 5, 1), (3, 5, 2), (5, 4, 3)]:
            f0, F0 = aa_series[p, s]
            with pytest.raises(OutsideUnitDisk):
                unit_roots(f0, F0, z0, p, s)


# -- quartic assembly --------------------------------------------------------------


class TestAssembleFrobenius:
    def test_starred_cell_at_5(self, aa_series):
        r1, rh = unit_roots(*aa_series[5, 4], 4, 5, 4)
        assert assemble_frobenius(r1, rh, 5, 4, at_singular_fiber=True) == \
            (32, 62, (-1, -2))

    def test_split_bound_needed_at_7(self, aa_series):
        # (80, 290): |a| = 80 exceeds 4 * 7^(3/2) ~ 74, but fits the split
        # bound p^2 + p + 2 p^(3/2) ~ 93
        r1, rh = unit_roots(*aa_series[7, 4], 4, 7, 4)
        assert assemble_frobenius(r1, rh, 7, 4, at_singular_fiber=True) == \
            (80, 290, (-1, -24))
        with pytest.raises(LiftOutOfBound):
            assemble_frobenius(r1, rh, 7, 4)

    def test_decoder_finds_one_candidate(self, aa_series):
        for s in (3, 4):
            m = 7**s
            assert decode_frobenius(-8, 2, 7, s) == [(-8, 2, None)]
            assert decode_frobenius(-8 + m, 2 - 5 * m, 7, s) == [(-8, 2, None)]
        r1, rh = unit_roots(*aa_series[7, 4], 2, 7, 4)
        cut = [x % 7**3 for x in (r1, rh)]
        assert assemble_frobenius(*cut, 7, 3) == (-8, 2, None)

    def test_low_precision_is_uncertified(self, aa_series):
        # two digits leave five Weil-shape pairs, the true one among them
        found = decode_frobenius(-8, 2, 7, 2)
        assert len(found) == 5 and (-8, 2, None) in found
        r1, rh = unit_roots(*aa_series[7, 4], 2, 7, 4)
        cut = [x % 7**2 for x in (r1, rh)]
        with pytest.raises(Uncertified) as info:
            assemble_frobenius(*cut, 7, 2)
        err = info.value
        assert str(err) == ("5 admissible pairs (a, b) fit the residues "
                            "mod p^s at p = 7, s = 2")
        assert isinstance(err, LiftOutOfBound)

    def test_uncertified_survives_pickle(self):
        err = Uncertified("5 admissible pairs (a, b) fit the residues mod p^s "
                          "at p = 7, s = 2")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is Uncertified and str(back) == str(err)

    # s = 1, 2, 3 and one digit past the box of either fiber flag
    @pytest.mark.parametrize("p,s", [
        (p, s) for p in (3, 5, 7)
        for s in (1, 2, 3, max(box_precision(p, f) for f in (False, True)) + 1)])
    def test_decoder_matches_enumeration(self, p, s):
        # the candidate list is the enumeration's, tags and all, in its order
        for a, b in [(0, 0), (3, -7), (12, 40), (-8, 43), (31, 1)]:
            for fiber in (False, True):
                assert decode_frobenius(a, b, p, s, fiber) == \
                    congruent_pairs(a, b, p, s, fiber), (a, b, fiber)

    @settings(deadline=None)
    @given(st.sampled_from([3, 5, 7]), st.booleans(), st.data())
    def test_decoder_matches_enumeration_at_drawn_residues(self, p, fiber,
                                                           data):
        # residues drawn at random and as lifts of an admissible pair
        s = data.draw(st.integers(1, box_precision(p, fiber) + 1))
        m = p**s
        a0, b0, _ = data.draw(st.sampled_from(admissible_list(p, fiber)))
        shift = st.integers(-3, 3).map(lambda k: k * m)
        anywhere = st.integers(-2 * m, 2 * m)
        for a, b in [(a0 + data.draw(shift), b0 + data.draw(shift)),
                     (data.draw(anywhere), data.draw(anywhere))]:
            assert decode_frobenius(a, b, p, s, fiber) == \
                congruent_pairs(a, b, p, s, fiber)

    def test_tate_type_roots_evaluate_symbolically(self):
        # r1 = rh = 1 makes the four reciprocal roots 1, p, p^2, p^3
        for p in (3, 5):
            a, b = _balanced_pair(1, 1, p, 6)
            assert a == -(1 + p + p * p + p**3)
            assert b == 1 + p + 2 * p * p + p**3 + p**4

    def test_tate_type_roots_violate_every_bound(self):
        with pytest.raises(LiftOutOfBound):
            assemble_frobenius(1, 1, 3, 6)
        with pytest.raises(LiftOutOfBound):
            assemble_frobenius(1, 1, 3, 6, at_singular_fiber=True)

    @pytest.mark.parametrize("fiber", [False, True])
    @pytest.mark.parametrize("p", PRIMES)
    def test_lift_edges(self, p, fiber, monkeypatch):
        # at the box precision a lift that no admissible pair fits is
        # returned untagged on the edge of the box and raises one step
        # outside it
        A, B = _box(p, fiber)
        s = box_precision(p, fiber)
        monkeypatch.setattr(frobenius, "decode_frobenius", lambda *args: [])

        def assemble(a: int, b: int):
            monkeypatch.setattr(frobenius, "_balanced_pair",
                                lambda *args: (a, b))
            return assemble_frobenius(1, 1, p, s, fiber)

        for a, b in [(A, B), (-A, -B), (A, -B), (-A, B)]:
            assert assemble(a, b) == (a, b, None)
        for a, b in [(A + 1, B), (-A - 1, 0), (A, B + 1), (0, -B - 1)]:
            with pytest.raises(LiftOutOfBound) as info:
                assemble(a, b)
            assert type(info.value) is LiftOutOfBound

    def test_rejects_non_unit_roots(self):
        for r1, rh in [(7, 1), (1, 49), (0, 3)]:
            with pytest.raises(NotAUnit):
                assemble_frobenius(r1, rh, 7, 3)

    @given(st.sampled_from(PRIMES), st.integers(1, 5), st.data())
    def test_balanced_pair_matches_exact_evaluation(self, p, s, data):
        # e1 = -a and e2 / p = b, evaluated exactly at arbitrary lifts
        # r + k p^s and w + j p^s of the residues, agree with the residue
        # computation mod p^s: the lifts change neither a nor b
        ps = p**s
        unit = st.integers(1, ps - 1).filter(lambda x: x % p)
        r, w = data.draw(unit), data.draw(unit)
        R = Fraction(r + data.draw(st.integers(-p**3, p**3)) * ps)
        W = Fraction(w + data.draw(st.integers(-p**3, p**3)) * ps)
        e1 = R + p * W / R + p**2 * R / W + p**3 / R
        e2 = (p * W + p**2 * R * R / W + 2 * p**3 + p**4 * W / (R * R)
              + p**5 / W)

        def residue(x: Fraction) -> int:
            return x.numerator * pow(x.denominator, -1, ps) % ps

        a, b = _balanced_pair(r, w, p, s)
        assert 2 * abs(a) <= ps and 2 * abs(b) <= ps
        assert (-a % ps, b % ps) == (residue(e1), residue(e2 / p))

    def test_full_row_at_7(self, aa_series):
        # the printed row: (2,-46) (-8,2) (32,-94)* (80,290)* (10,50)' -
        f0, F0 = aa_series[7, 4]
        row = {}
        for z0 in range(1, 7):
            try:
                row[z0] = assemble_frobenius(
                    *unit_roots(f0, F0, z0, 7, 4), 7, 4, at_singular_fiber=True)
            except OutsideUnitDisk:
                row[z0] = None
        assert row == {1: (2, -46, None), 2: (-8, 2, None),
                       3: (32, -94, (-1, 24)), 4: (80, 290, (-1, -24)),
                       5: (10, 50, None), 6: None}

    def test_stable_under_extra_precision(self, aa_series):
        # recomputing every defined cell one digit deeper changes nothing
        low = aa_series[7, 4]
        high = aa_series[7, 5]
        for z0 in range(1, 7):
            try:
                got_low = assemble_frobenius(
                    *unit_roots(*low, z0, 7, 4), 7, 4, at_singular_fiber=True)
            except OutsideUnitDisk:
                with pytest.raises(OutsideUnitDisk):
                    unit_roots(*high, z0, 7, 5)
                continue
            got_high = assemble_frobenius(
                *unit_roots(*high, z0, 7, 5), 7, 5, at_singular_fiber=True)
            assert got_low == got_high

    def test_palindromic_coefficients(self):
        for a, b, p in [(-8, 2, 7), (6, -6, 5), (32, 62, 5), (2, -46, 7)]:
            c = frobenius_quartic(a, b, p)
            assert c[0] == 1
            assert c[3] == p**3 * c[1]
            assert c[4] == p**6


# -- archimedean verification -------------------------------------------------------


class TestWeilVerify:
    def test_zero_coefficients_are_pure(self):
        # 1 + p^6 T^4 has four roots of modulus exactly p^(-3/2)
        assert weil_verify(0, 0, 7)

    def test_tate_type_coefficients_fail(self):
        # reciprocal roots 1, p, p^2, p^3: moduli 1 .. p^(-3) are not pure
        assert not weil_verify(-40, 130, 3)

    def test_split_cell_fails(self):
        # (32,62) at p=5 has roots of modulus 1/5 and 1/25: not Weil-pure
        assert not weil_verify(32, 62, 5)

    def test_boundary_pairs_are_exact(self):
        # (0, -18) at p = 3: alpha = -beta = 2 * 3^(3/2), so each quadratic
        # factor has a double root on |T| = p^(-3/2); one step on, it has not
        assert weil_verify(0, -18, 3) and not weil_verify(0, -19, 3)
        # (14, 105) at p = 7: alpha = beta = 7, a zero discriminant
        assert weil_verify(14, 105, 7) and not weil_verify(14, 106, 7)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_the_written_out_test(self, p):
        amax = isqrt(16 * p**3) + 2
        for a in range(-amax, amax + 1):
            for b in range(-6 * p * p - 2, 6 * p * p + 3):
                assert weil_verify(a, b, p) == weil_shape(a, b, p), (a, b)

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_root_moduli(self, p):
        # floating-point oracle: factor P over C into the quadratics
        # 1 + alpha T + p^3 T^2 and measure all four roots
        target = p ** -1.5
        decided = 0
        for a in range(-25 * p, 25 * p + 1, 3):
            for b in range(-8 * p * p, 8 * p * p + 1, 3):
                root = cmath.sqrt(a * a - 4 * (b * p - 2 * p**3))
                dev = 0.0
                for alpha in ((a + root) / 2, (a - root) / 2):
                    disc = cmath.sqrt(alpha * alpha - 4 * p**3)
                    for t in ((-alpha + disc) / (2 * p**3),
                              (-alpha - disc) / (2 * p**3)):
                        dev = max(dev, abs(abs(t) - target) / target)
                if 1e-6 < dev < 1e-2:
                    continue  # too close to the boundary to tell in floats
                assert weil_verify(a, b, p) == (dev <= 1e-6), (a, b, dev)
                decided += 1
        assert decided > 1000


# -- the elliptic baseline ----------------------------------------------------------


class TestLegendre:
    def test_precision_table(self):
        assert {p: legendre_precision(p) for p in PRIMES} == \
            {3: 2, 5: 2, 7: 2, 11: 2, 13: 2, 17: 1}

    def test_degenerate_fibers_raise(self):
        for p, s0 in [(5, 0), (5, 1), (5, 10), (7, 8)]:
            with pytest.raises(UsageError, match="degenerate"):
                legendre_frobenius(p, s0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_hasse_bound_everywhere(self, p):
        for s0 in range(2, p):
            ap = legendre_trace(p, s0)
            assert ap * ap <= 4 * p

    @pytest.mark.parametrize("p", [p for p in range(3, 60) if is_odd_prime(p)])
    def test_unit_root_equals_the_scaled_series_ratio(self, p):
        # the former route: A_n 16^-n mod p^s, the period's own coefficients,
        # and its truncation ratio at s0 itself
        s = legendre_precision(p)
        ps, eps = p**s, (-1) ** ((p - 1) // 2)
        scaled = [comb(2 * n, n) ** 2 * pow(16, -n, ps) % ps
                  for n in range(ps)]
        for s0 in range(2, p):
            try:
                want = eps * dwork_ratio(scaled, s0, p, s) % ps
            except OutsideUnitDisk:
                with pytest.raises(OutsideUnitDisk):
                    legendre_frobenius(p, s0)[0]
            else:
                assert legendre_frobenius(p, s0)[0] == want, (p, s0)

    def test_trace_beyond_the_hasse_bound_raises(self, monkeypatch):
        # a ratio of eps makes pi = eps^2 = 1, so a_p = 1 + 7 = 8 > 2 sqrt(7)
        monkeypatch.setattr(frobenius, "dwork_ratio",
                            lambda *args: (-1) ** ((7 - 1) // 2))
        with pytest.raises(LiftOutOfBound, match=r"\|a_p\| = 8 exceeds"):
            legendre_frobenius(7, 2)

    def test_supersingular_set_at_3_is_everything(self):
        # x(x-1)(x-2) == x^3 - x over F_3 vanishes identically
        with pytest.raises(OutsideUnitDisk):
            legendre_frobenius(3, 2)
