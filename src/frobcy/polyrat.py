"""Exact univariate polynomials and rational functions over Q.

Coefficients are ``fractions.Fraction`` throughout.  ``RatPoly`` stores an
ascending coefficient tuple with trailing zeros removed (the zero polynomial
is the empty tuple, degree -1).  ``RationalFunction`` keeps the canonical
form: denominator monic, gcd(numerator, denominator) = 1.

The linear solver performs fraction-free (Bareiss) Gaussian elimination after
clearing row denominators, returning one exact solution together with the
kernel dimension of the coefficient matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Sequence

from . import FrobcyError


class NoSolution(FrobcyError, ArithmeticError):
    """The linear system is inconsistent."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # ascending degree
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    # -- basics ------------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "RatPoly":
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly((other,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "RatPoly"):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return RatPoly(quot), RatPoly(rem[: other.degree if other.degree > 0 else 0])

    def __floordiv__(self, other) -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "RatPoly") -> "RatPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("division was expected to be exact")
        return q

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = RatPoly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_mod(self, x: int, modulus: int) -> int:
        """Horner evaluation mod an integer; coefficients must be p-integral."""
        acc = 0
        for c in reversed(self.coeffs):
            if c.denominator == 1:
                cm = c.numerator % modulus
            else:
                cm = c.numerator * pow(c.denominator, -1, modulus) % modulus
            acc = (acc * x + cm) % modulus
        return acc

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return RatPoly(c / lead for c in self.coeffs)

    def integer_coeffs(self) -> list:
        """Coefficient list as ints; raises if any coefficient is non-integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError("polynomial does not have integer coefficients")
            out.append(c.numerator)
        return out

    def content_and_primitive(self) -> tuple:
        """(content, primitive): primitive has coprime integer coefficients
        and positive leading coefficient; self == content * primitive."""
        if self.is_zero():
            return Fraction(0), RatPoly.zero()
        from math import lcm
        den = 1
        for c in self.coeffs:
            den = lcm(den, c.denominator)
        nums = [int(c * den) for c in self.coeffs]
        g = 0
        for n in nums:
            g = _int_gcd(g, abs(n))
        if nums[-1] < 0:
            g = -g
        content = Fraction(g, den)
        return content, RatPoly(n // g for n in nums)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero():
            return "RatPoly(0)"
        parts = [f"{c}*z^{i}" if i else str(c)
                 for i, c in enumerate(self.coeffs) if c]
        return "RatPoly(" + " + ".join(parts) + ")"


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q[z] (monic zero convention: gcd(0,0) = 0)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


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


def rational_roots(poly: RatPoly) -> tuple:
    """All rational roots with multiplicity, plus the rootless cofactor.

    Returns (roots, cofactor) where roots is a list of (Fraction, multiplicity)
    and poly == lead * prod (z - root)^mult * cofactor_monic ... (cofactor has
    no rational roots).
    """
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


class RationalFunction:
    """Quotient of RatPolys in canonical form: monic denominator, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, RatPoly):
            num = RatPoly((num,)) if isinstance(num, (int, Fraction)) else RatPoly(num)
        if den is None:
            den = RatPoly.one()
        elif not isinstance(den, RatPoly):
            den = RatPoly((den,)) if isinstance(den, (int, Fraction)) else RatPoly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = RatPoly.zero(), RatPoly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.leading()
            if lead != 1:
                num = RatPoly(c / lead for c in num.coeffs)
                den = den.monic()
        self.num, self.den = num, den

    # -- basics ------------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(RatPoly.zero())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(RatPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, RatPoly)):
            return RationalFunction(other)
        return NotImplemented

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        out, base = RationalFunction.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.num!r})/({self.den!r})"


def _clear_row_denominators(row: Sequence[RationalFunction], rhs: RationalFunction):
    """Scale a row of rational functions to polynomial entries."""
    den = RatPoly.one()
    for entry in list(row) + [rhs]:
        g = poly_gcd(den, entry.den)
        den = den * entry.den.exact_div(g) if g.degree > 0 else den * entry.den
    out = []
    for entry in list(row) + [rhs]:
        out.append(entry.num * den.exact_div(entry.den))
    return out[:-1], out[-1]


def solve_linear_system(matrix: Sequence[Sequence[RationalFunction]],
                        rhs: Sequence[RationalFunction]):
    """Solve A x = b exactly over Q(z) by fraction-free elimination.

    Returns (solution, kernel_dim): ``solution`` is one solution as a list of
    RationalFunction (free variables set to 0) and ``kernel_dim`` the dimension
    of the null space of A.  Raises NoSolution when the system is inconsistent.
    """
    m = len(matrix)
    if m == 0:
        raise ValueError("empty system")
    n = len(matrix[0])
    rows = []
    outs = []
    for i in range(m):
        if len(matrix[i]) != n:
            raise ValueError("ragged matrix")
        row, out = _clear_row_denominators(
            [e if isinstance(e, RationalFunction) else RationalFunction(e)
             for e in matrix[i]],
            rhs[i] if isinstance(rhs[i], RationalFunction) else RationalFunction(rhs[i]),
        )
        rows.append(row + [out])
        outs.append(out)

    # Bareiss fraction-free elimination on the augmented polynomial matrix.
    pivot_cols = []
    prev_pivot = RatPoly.one()
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, m):
            if all(rows[i][j].is_zero() for j in range(c, n + 1)):
                continue
            fac = rows[i][c]
            for j in range(n + 1):
                prod = rows[i][j] * piv - fac * rows[r][j]
                rows[i][j] = prod.exact_div(prev_pivot)
        prev_pivot = piv
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    rank = r

    for i in range(rank, m):
        if all(rows[i][j].is_zero() for j in range(n)) and not rows[i][n].is_zero():
            raise NoSolution("inconsistent linear system")

    solution = [RationalFunction.zero()] * n
    for i in range(rank - 1, -1, -1):
        c = pivot_cols[i]
        acc = RationalFunction(rows[i][n])
        for j in range(c + 1, n):
            if not rows[i][j].is_zero():
                acc = acc - RationalFunction(rows[i][j]) * solution[j]
        solution[c] = acc / RationalFunction(rows[i][c])
    kernel_dim = n - rank
    return solution, kernel_dim
