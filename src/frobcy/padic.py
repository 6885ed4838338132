"""p-adic helpers on plain integer residues.

Every p-adic value in frobcy is an ``int`` residue mod p^s, with the
precision s passed alongside it and chosen by the caller's precision policy
(``frobenius.required_precision`` and escalation).  This module holds the one
prime check, Teichmueller lifts, and balanced representatives.
"""

from __future__ import annotations

from math import isqrt

from . import FrobcyError


class NotAUnit(FrobcyError, ArithmeticError):
    """A value that must be a p-adic unit is divisible by p."""


def is_odd_prime(n: int) -> bool:
    """True iff n is an odd prime (trial division)."""
    return n >= 3 and all(n % q for q in range(2, isqrt(n) + 1))


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
