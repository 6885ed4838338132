"""Fixed-precision p-adic integer arithmetic with pessimistic precision tracking.

Elements live in Z/p^K for an odd prime p and a precision cap K, together
with a count ``guaranteed`` of p-adic digits that are actually certified.
Arithmetic never lets ``guaranteed`` exceed the cap, addition takes the
minimum of the operands' guarantees, and dividing by a value of valuation v
costs exactly v digits.  Every value is immutable; all operations return new
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import FrobcyError


class NotAUnit(FrobcyError, ArithmeticError):
    """Inversion (or unit-only division) was attempted on a non-unit."""


class PrecisionExhausted(FrobcyError, ArithmeticError):
    """An operation would leave fewer than one certified p-adic digit."""


def is_odd_prime(n: int) -> bool:
    """True iff n is an odd prime (trial division)."""
    return n >= 3 and all(n % q for q in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class PadicNumber:
    """An element of Z/p^K carrying the number of certified digits.

    ``residue`` is the canonical representative in [0, p^K); digits above
    ``guaranteed`` are present but not certified.  Exactly known integers
    carry ``guaranteed == cap``.
    """

    prime: int
    cap: int
    residue: int
    guaranteed: int

    def __post_init__(self) -> None:
        if not is_odd_prime(self.prime):
            raise ValueError(f"{self.prime} is not an odd prime")
        if self.cap < 1:
            raise ValueError("precision cap must be >= 1")
        if not 1 <= self.guaranteed <= self.cap:
            raise PrecisionExhausted(
                f"guaranteed precision {self.guaranteed} outside [1, {self.cap}]"
            )
        object.__setattr__(self, "residue", self.residue % self.prime**self.cap)

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, value: int, p: int, cap: int) -> "PadicNumber":
        """Embed an exactly known integer: all ``cap`` digits certified."""
        return cls(p, cap, value % p**cap, cap)

    # -- helpers -----------------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.prime**self.cap

    def valuation(self) -> int:
        """p-adic valuation as far as it is certified (capped at guaranteed)."""
        if self.residue % self.prime**self.guaranteed == 0:
            return self.guaranteed
        v, r = 0, self.residue
        while r % self.prime == 0:
            r //= self.prime
            v += 1
        return v

    def _check_compatible(self, other: "PadicNumber") -> None:
        if self.prime != other.prime or self.cap != other.cap:
            raise ValueError("operands live in different rings")

    def _wrap(self, residue: int, guaranteed: int) -> "PadicNumber":
        if guaranteed < 1:
            raise PrecisionExhausted(
                "operation left no certified digits "
                f"(p={self.prime}, cap={self.cap})"
            )
        return PadicNumber(self.prime, self.cap, residue % self.modulus,
                           min(guaranteed, self.cap))

    def _coerce(self, other) -> "PadicNumber":
        if isinstance(other, PadicNumber):
            self._check_compatible(other)
            return other
        if isinstance(other, int):
            return PadicNumber.exact(other, self.prime, self.cap)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "PadicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._wrap(self.residue + other.residue,
                          min(self.guaranteed, other.guaranteed))

    __radd__ = __add__

    def __neg__(self) -> "PadicNumber":
        return self._wrap(-self.residue, self.guaranteed)

    def __sub__(self, other) -> "PadicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._wrap(self.residue - other.residue,
                          min(self.guaranteed, other.guaranteed))

    def __rsub__(self, other) -> "PadicNumber":
        return (-self).__add__(other)

    def __mul__(self, other) -> "PadicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # x = x0 + O(p^Gx), y = y0 + O(p^Gy):
        # x*y = x0*y0 + O(p^min(Gx + v(y0), Gy + v(x0), Gx + Gy))
        g = min(self.guaranteed + other.valuation(),
                other.guaranteed + self.valuation(),
                self.guaranteed + other.guaranteed)
        return self._wrap(self.residue * other.residue, g)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PadicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return padic_div(self, other)

    def __eq__(self, other) -> bool:
        """Equality of certified digits (same ring required)."""
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.prime != other.prime or self.cap != other.cap:
            return False
        g = min(self.guaranteed, other.guaranteed)
        m = self.prime**g
        return self.residue % m == other.residue % m

    def __hash__(self) -> int:
        return hash((self.prime, self.cap, self.residue % self.prime))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PadicNumber({self.residue} mod {self.prime}^{self.cap}, "
                f"certified {self.guaranteed})")


def padic_div(x: PadicNumber, y: PadicNumber) -> PadicNumber:
    """Division x/y; dividing by valuation v costs exactly v certified digits.

    The quotient must again be a p-adic integer: the certified part of x must
    be divisible by the full p-power of y.
    """
    x._check_compatible(y)
    v = y.valuation()
    if v >= y.guaranteed:
        raise NotAUnit("divisor is indistinguishable from 0 at its precision")
    pv = y.prime**v
    if x.residue % pv != 0:
        raise ValueError("quotient would not be a p-adic integer")
    unit = y.residue // pv
    g = min(x.guaranteed, y.guaranteed) - v
    if g < 1:
        raise PrecisionExhausted(f"division by valuation {v} exhausts precision")
    res = (x.residue // pv) * pow(unit, -1, x.modulus) % x.modulus
    return PadicNumber(x.prime, x.cap, res, min(g, x.cap))


def teichmueller_residue(x0: int, p: int, modulus: int) -> int:
    """Teichmueller lift of the unit x0 mod p, as an integer mod an explicit
    p-power modulus: the fixed point of x -> x^p, i.e. the unique (p-1)-st
    root of unity congruent to x0 mod p.  Each iteration gains at least one
    p-adic digit."""
    if x0 % p == 0:
        raise NotAUnit(f"{x0} is not a unit mod {p}")
    w = x0 % modulus
    while True:
        w_next = pow(w, p, modulus)
        if w_next == w:
            return w
        w = w_next


def balanced_lift(x: PadicNumber) -> int:
    """The representative m = x mod p^guaranteed with |m| <= p^guaranteed / 2.

    Only certified digits participate, so the lift is the balanced residue of
    the value modulo p^guaranteed (unique for odd p).
    """
    m = x.prime**x.guaranteed
    r = x.residue % m
    return r - m if 2 * r > m else r


def balanced_residue(r: int, modulus: int) -> int:
    """Raw-integer balanced representative of r modulo an odd modulus."""
    r %= modulus
    return r - modulus if 2 * r > modulus else r
