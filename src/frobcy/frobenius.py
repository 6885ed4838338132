"""Degree-4 Frobenius polynomials from unit roots, and the elliptic baseline.

At an ordinary point z0 the quartic

    P(T) = 1 + a T + b p T^2 + a p^3 T^3 + p^6 T^4

has reciprocal roots r1, p rh/r1, p^2 r1/rh, p^3/r1, where r1 is the unit
root of the operator itself and rh the unit root of its exterior square.
``assemble_frobenius`` recovers the integers (a, b) from the two truncation
ratios via the elementary symmetric functions

    e1 = r1 + p rh/r1 + p^2 r1/rh + p^3/r1                    = -a,
    e2 = p rh + p^2 r1^2/rh + 2 p^3 + p^4 rh/r1^2 + p^5/rh    = b p,

which give a and b modulo p^s when r1 and rh are known mod p^s.  Every
p-adic value here is a plain integer residue mod p^s, with s passed along.

The pair is then *decoded*: ``decode_frobenius`` lists every admissible pair
congruent to those residues, each as (a, b, split), and a cell is certified
when exactly one fits.  The admissible pairs are

  * the Weil-shape pairs, split = None: x^2 - a x + (b p - 2 p^3) has two
    real roots in [-2 p^(3/2), 2 p^(3/2)], so that
    P = (1 + alpha T + p^3 T^2)(1 + beta T + p^3 T^2) has all reciprocal
    roots of modulus p^(3/2) (``weil_verify``, an exact integer test); the
    quartic is reducible, with integer alpha and beta, when the
    discriminant a^2 - 4 (b p - 2 p^3) is a square;
  * where the leading symbol vanishes at z0 mod p, also the split pairs of
    (1 - chi p T)(1 - chi p^2 T)(1 - a_p T + p^3 T^2) with chi = +-1 and
    a_p^2 <= 4 p^3, split = (chi, a_p).  Their quadratic factor
    1 - chi (p + p^2) T + p^3 T^2 has |p + p^2| > 2 p^(3/2), so no split
    pair is of Weil shape: the tag is the pair's shape.

Every precision is the least s with p^s > W, the width of the set of
integers it tells apart mod p^s.  The coefficient box |a| <= A, |b| <= B
(``_box``) has A = 4 p^(3/2), B = 6 p^2 off the singular fibers and
A = p^2 + p + 2 p^(3/2), B = 2 p^2 + 2 (1+p) p^(3/2) on them.
``required_precision``, where every row starts, separates the Weil-shape
pairs: W = max(2 A, 4 p^2) with the A off the fibers.  A cell that fits
zero or several pairs (at p = 5, s = 3 a split point can fit (-8, 43) and
(-8, -82)) raises ``Uncertified`` and escalates to s + 1, up to
``box_precision``, which separates the box, W = 2 max(A, B): there the
balanced lift is the one pair of the box that fits, and an in-box pair
outside the admissible set is returned as it is, untagged, for the
classifier to report as inconsistent.

``legendre_frobenius`` runs the same one-dimensional method on the Legendre
family y^2 = x(x-1)(x-s0), whose trace satisfies |a_p| <= 2 sqrt(p).
"""

from __future__ import annotations

from math import isqrt
from typing import List, Optional, Sequence, Tuple

from . import FrobcyError, UsageError
from .catalog import sequence_residues
from .congruence import dwork_ratio
from .padic import NotAUnit, balanced_residue, is_odd_prime


class LiftOutOfBound(FrobcyError, ArithmeticError):
    """A balanced lift violates its archimedean bound: precision too low or
    the point is not of the expected kind."""


class Uncertified(LiftOutOfBound):
    """The residues mod p^s fit zero or several admissible pairs, below the
    precision at which the balanced lift alone settles the cell."""


# -- the coefficient box and the precision policy ------------------------------------


def _box(p: int, at_singular_fiber: bool) -> Tuple[int, int]:
    """(A, B): the coefficient box |a| <= A, |b| <= B of the module
    docstring, its real bounds rounded down (exact for integer a, b)."""
    if at_singular_fiber:
        return (p * p + p + isqrt(4 * p**3),
                2 * p * p + isqrt(4 * (1 + p) ** 2 * p**3))
    return isqrt(16 * p**3), 6 * p * p


def _weil_b_range(a: int, p: int) -> Tuple[int, int]:
    """(lo, hi): for |a| <= 4 p^(3/2), (a, b) is Weil-shape iff lo <= b <= hi.

    With c = b p - 2 p^3 and B = 2 p^(3/2), both roots of x^2 - a x + c are
    real and in [-B, B] iff disc = a^2 - 4c >= 0, a^2 <= 16 p^3 and
    t = B^2 + c >= |a| B, i.e. t >= 0 and t^2 >= 4 a^2 p^3.  The first
    bounds b above, the last two below.
    """
    p3 = p**3
    hi = (a * a + 8 * p3) // (4 * p)
    sq = 4 * a * a * p3
    t_min = isqrt(sq)
    t_min += t_min * t_min < sq                 # ceil(sqrt(4 a^2 p^3))
    lo = -((2 * p3 - t_min) // p)               # ceil((t_min - 2 p^3) / p)
    return lo, hi


def _digits(p: int, width: int) -> int:
    """Least s with p^s > width, the number of base-p digits of width."""
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    s = 1
    while p**s <= width:
        s += 1
    return s


def required_precision(p: int) -> int:
    """Least s at which residues mod p^s tell apart the Weil-shape pairs, so
    that every cell off the singular fibers decodes to exactly one pair: the
    starting precision of every row, the least s with p^s > max(2 A, 4 p^2)
    for the A of ``_box(p, False)``.

    At a = 0 the Weil-shape b fill [-2 p^2, 2 p^2], 4 p^2 + 1 values, so no
    s with p^s <= 4 p^2 separates them.  Every other a has a narrower
    b-range, hi - lo <= 4 p^2 - |a| (2 sqrt(p) - |a| / 4p), and the a
    themselves fill -A..A, so p^s > max(2 A, 4 p^2) separates every pair.
    No power of p lies in (4 p^2, 2 A]: for p >= 5 the interval is empty,
    as 2 A <= 8 p^(3/2) <= 4 p^2, and at p = 3 it is (36, 40].  So s = 4
    at p = 3 and s = 3 at every larger prime.
    """
    return _digits(p, max(2 * _box(p, False)[0], 4 * p * p))


def box_precision(p: int, want_singular: bool = False) -> int:
    """Least s at which residues mod p^s tell apart the pairs of the box
    |a| <= A, |b| <= B (``_box``, the fiber box when ``want_singular``), so
    p^s > 2 max(A, B): the escalation ceiling, where each balanced lift is
    the one pair of its box that fits the residues."""
    return _digits(p, 2 * max(_box(p, want_singular)))


# -- unit roots and assembly --------------------------------------------------------


def unit_roots(f0: Sequence[int], F0: Sequence[int], z0: int, p: int,
               s: int) -> Tuple[int, int]:
    """(r1, rh): unit roots mod p^s of the operator and its exterior square
    at z0, via truncation ratios.  Raises OutsideUnitDisk at non-ordinary
    points of either family."""
    return dwork_ratio(f0, z0, p, s), dwork_ratio(F0, z0, p, s)


def _balanced_pair(r1: int, rh: int, p: int, s: int) -> Tuple[int, int]:
    """(a, b): the balanced lifts of a and b mod p^s from the unit roots
    r1, rh mod p^s.

    e1 is worked mod p^s and e2 mod p^(s+1): an error O(p^s) in r1 or rh
    moves e1 by O(p^s) and e2 by O(p^(s+1)), because every term of e2 carries
    a factor p, so e2 / p is known mod p^s.
    """
    if r1 % p == 0 or rh % p == 0:
        raise NotAUnit(f"unit roots must be units mod {p}")
    ps, m = p**s, p ** (s + 1)
    ir, iw = pow(r1, -1, m), pow(rh, -1, m)
    e1 = r1 + p * rh * ir + p * p * r1 * iw + p**3 * ir
    e2 = (p * rh + p * p * r1 * r1 * iw + 2 * p**3 + p**4 * rh * ir * ir
          + p**5 * iw) % m
    return -balanced_residue(e1, ps), balanced_residue(e2 // p, ps)


def decode_frobenius(a: int, b: int, p: int, s: int,
                     at_singular_fiber: bool = False
                     ) -> List[Tuple[int, int, Optional[Tuple[int, int]]]]:
    """The candidate list: every admissible pair congruent to (a, b) mod p^s,
    read off the lifts of the residues, as (a, b, split).  Exactly one
    candidate certifies the cell.  The Weil-shape pairs come first, by a and
    then b, with split = None: each lift x of a in [-A, A] with the lifts of
    b in ``_weil_b_range(x, p)``.  On a fiber the split pairs follow, chi = 1
    before chi = -1, with split = (chi, a_p): each lift a_p of
    -a - chi (p + p^2) in [-2 p^(3/2), 2 p^(3/2)] whose b fits too."""
    m, amax = p**s, _box(p, False)[0]
    found = [(x, y, None) for x in range(-amax + (a + amax) % m, amax + 1, m)
             for lo, hi in [_weil_b_range(x, p)]
             for y in range(lo + (b - lo) % m, hi + 1, m)]
    if at_singular_fiber:
        bound = isqrt(4 * p**3)
        for chi in (1, -1):
            c = chi * (p + p * p)                   # a = -a_p - c
            aps = range(-bound + (bound - a - c) % m, bound + 1, m)
            found += [(-ap - c, y, (chi, ap)) for ap in aps
                      for y in [2 * p * p + chi * (1 + p) * ap] if (y - b) % m == 0]
    return found


def assemble_frobenius(r1: int, rh: int, p: int, s: int,
                       at_singular_fiber: bool = False
                       ) -> Tuple[int, int, Optional[Tuple[int, int]]]:
    """(a, b, split) of P(T) = 1 + aT + bpT^2 + ap^3T^3 + p^6T^4 from the
    unit roots r1, rh mod p^s, with the split tag of ``decode_frobenius``.

    Returns the unique admissible pair that fits the residues mod p^s (split
    pairs count only ``at_singular_fiber``).  When zero or several fit and s
    is below ``box_precision`` it raises Uncertified, so the caller can
    retry at s + 1.  From the box precision on, the balanced lift is the one
    pair of the box |a| <= A, |b| <= B (``_box``) that fits: an in-box pair
    outside the admissible set is returned as it is, untagged, and a lift
    outside the box raises LiftOutOfBound.
    """
    a, b = _balanced_pair(r1, rh, p, s)
    found = decode_frobenius(a, b, p, s, at_singular_fiber)
    if len(found) == 1:
        return found[0]
    if s < box_precision(p, at_singular_fiber):
        raise Uncertified(f"{len(found)} admissible pairs (a, b) fit the "
                          f"residues mod p^s at p = {p}, s = {s}")
    A, B = _box(p, at_singular_fiber)
    if abs(a) > A or abs(b) > B:
        raise LiftOutOfBound(f"(a, b) = ({a}, {b}) lies outside the box "
                             f"|a| <= {A}, |b| <= {B} at p = {p}")
    return a, b, None


def frobenius_quartic(a: int, b: int, p: int) -> List[int]:
    """Ascending coefficients of P(T) = 1 + aT + bpT^2 + ap^3T^3 + p^6T^4."""
    return [1, a, b * p, a * p**3, p**6]


def weil_verify(a: int, b: int, p: int) -> bool:
    """All complex roots of P(T) have |T| = p^(-3/2), exactly: (a, b) is a
    Weil-shape pair (see ``_weil_b_range``)."""
    if abs(a) > _box(p, False)[0]:
        return False
    lo, hi = _weil_b_range(a, p)
    return lo <= b <= hi


# -- the Legendre baseline ----------------------------------------------------------


def legendre_precision(p: int) -> int:
    """Least s at which residues mod p^s tell apart the traces
    |a_p| <= isqrt(4 p), the floor of 2 sqrt(p)."""
    return _digits(p, 2 * isqrt(4 * p))


def legendre_frobenius(p: int, s0: int) -> Tuple[int, int]:
    """(pi, a_p): the unit root pi mod p^s of Frobenius on
    y^2 = x(x-1)(x-s0) over F_p, with s = legendre_precision(p), and its
    trace a_p = balanced(pi + p/pi), |a_p| <= 2 sqrt(p).

    The series is the normalized period sum_j binom(2j,j)^2 (s/16)^j, whose
    binom(2j,j)^2 is the catalog's left factor A, theta^2 - 4x (2 theta+1)^2:
    the unit root is eps * h, eps = (-1)^((p-1)/2), h the truncation ratio
    (``dwork_ratio``) of A's residues mod p^s (``sequence_residues``) at
    x = s0 16^-1 mod p, whose (p-1)-truncation mod p is the ordinarity test
    (OutsideUnitDisk on failure = supersingular point).  A degenerate
    fiber, s0 in {0, 1} mod p, is a bad point: UsageError.
    """
    s = legendre_precision(p)
    ps = p**s
    s0 %= p
    if s0 in (0, 1):
        raise UsageError(f"the fiber at s0 = {s0} is degenerate")
    series, = sequence_residues("A", ((p, s, ps - 1),))
    eps = (-1) ** ((p - 1) // 2)
    pi = eps * dwork_ratio(series, s0 * pow(16, -1, p) % p, p, s) % ps
    ap = balanced_residue(pi + p * pow(pi, -1, ps), ps)
    if abs(ap) > isqrt(4 * p):
        raise LiftOutOfBound(f"|a_p| = {abs(ap)} exceeds 2 sqrt(p) at p = {p}")
    return pi, ap
