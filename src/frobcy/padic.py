"""p-adic helpers on plain integer residues.

Every p-adic value in frobcy is an ``int`` residue mod p^s, with the
precision s passed alongside it and chosen by the caller's precision policy
(``frobenius.required_precision`` and escalation).  A series is the plain
list of such residues, with p and s passed alongside it the same way.  This
module holds the one prime check, Teichmueller lifts, balanced
representatives, and the one Horner loop.
"""

from __future__ import annotations

from typing import Iterable

from . import FrobcyError, UsageError


class NotAUnit(FrobcyError, ArithmeticError):
    """A value that must be a p-adic unit is divisible by p."""


# the first 13 primes: as Miller-Rabin bases they decide every n below
# MR_BOUND (Sorenson and Webster, Math. Comp. 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_odd_prime(n: int) -> bool:
    """True iff n is an odd prime: n - 1 = 2^r d with d odd, and each base
    a < n has a^d == 1 or a^(2^i d) == -1 mod n for some i < r (exact below
    MR_BOUND).  From MR_BOUND on a UsageError, which is a ValueError."""
    if n >= MR_BOUND:
        raise UsageError(f"{n} is beyond the prime check, which decides "
                         f"n < {MR_BOUND}")
    if n < 3 or n % 2 == 0:
        return False
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    return all(pow(a, d, n) == 1
               or any(pow(a, d << i, n) == n - 1 for i in range(r))
               for a in MR_BASES if a < n)


def teichmueller_residue(x0: int, p: int, modulus: int) -> int:
    """Teichmueller lift of the unit x0 mod p, as an integer mod an explicit
    p-power modulus p^s: the unique (p-1)-st root of unity congruent to x0
    mod p, in closed form x0^(p^(s-1)), as the units mod p^s have order
    (p-1) p^(s-1)."""
    if x0 % p == 0:
        raise NotAUnit(f"{x0} is not a unit mod {p}")
    return pow(x0, modulus // p, modulus)


def balanced_residue(r: int, modulus: int) -> int:
    """The representative m of r modulo an odd modulus with |m| <= modulus/2."""
    r %= modulus
    return r - modulus if 2 * r > modulus else r


def horner(coeffs: Iterable[int], x: int, modulus: int) -> int:
    """sum c_k x^k mod modulus by Horner's rule, for the coefficients given
    from the highest degree down, as any iterable, read once."""
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % modulus
    return acc
