"""Exact univariate polynomials: integer coefficient lists and RatPoly over Q.

An element of Z[z] is an ``IntPoly``: a list of ints in ascending degree with
trailing zeros removed (the zero polynomial is the empty list).  The exterior
square and the self-duality test work in this representation only; the
``poly_*`` functions are its ring operations, plus the Euler derivation
theta = z d/dz.  ``solve_linear_system`` is fraction-free (Bareiss)
elimination over Z[z] and returns Cramer numerators over one common
denominator together with the kernel dimension of the coefficient matrix.

``RatPoly`` stores an ascending tuple of ``fractions.Fraction`` coefficients
with trailing zeros removed.  ``RationalFunction`` keeps the canonical form:
denominator monic, gcd(numerator, denominator) = 1.  They serve the monic
d/dz form of an operator, the horizontal sections, rational exponentials and
rational roots of leading symbols.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, List, Sequence

from . import FrobcyError


class NoSolution(FrobcyError, ArithmeticError):
    """The linear system is inconsistent."""


# -- Z[z] as integer coefficient lists ----------------------------------------------

IntPoly = List[int]


def poly_trim(a: Sequence[int]) -> IntPoly:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_sub(a: IntPoly, b: IntPoly) -> IntPoly:
    return poly_add(a, [-c for c in b])


def poly_scale(a: IntPoly, c: int) -> IntPoly:
    return [c * x for x in a] if c else []


def poly_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """Product of two coefficient lists (trimmed inputs give a trimmed
    product; the length is len(a) + len(b) - 1)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b in Z[z]; ArithmeticError unless b divides a there."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    lead, db = b[-1], len(b) - 1
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            raise ArithmeticError("division was expected to be exact")
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    if any(rem[:db]):
        raise ArithmeticError("division was expected to be exact")
    return quot


def poly_theta(a: IntPoly) -> IntPoly:
    """theta a = z da/dz."""
    return poly_trim([i * c for i, c in enumerate(a)])


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

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

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


def _divide_linear(c: IntPoly, a: int, b: int):
    """c / (b z - a) in Z[z] by synthetic division from the top, or None as
    soon as a step is not exact."""
    q = [0] * (len(c) - 1)
    carry = c[-1]
    for k in range(len(c) - 2, -1, -1):
        q[k], r = divmod(carry, b)
        if r:
            return None
        carry = c[k] + a * q[k]
    return q if carry == 0 else None


def rational_roots(poly: RatPoly) -> tuple:
    """All rational roots with multiplicity, plus the rootless cofactor.

    Returns (roots, cofactor) where roots is a list of (Fraction, multiplicity),
    the root 0 first and then the others in ascending order, and
    poly = const * z^m0 * prod (b z - a)^m * cofactor with a cofactor in Z[z]
    that has no rational root.

    The search runs on the primitive integer coefficients c_0 .. c_n.  By
    Gauss's lemma a/b in lowest terms (b > 0) is a root exactly when b z - a
    divides the polynomial in Z[z]; then a | c_0 and b | c_n, and synthetic
    division by b z - a is exact over Z.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial")
    ints = poly.content_and_primitive()[1].integer_coeffs()
    v0 = next(i for i, c in enumerate(ints) if c)
    ints = ints[v0:]
    roots = [(Fraction(0), v0)] if v0 else []
    lead = abs(ints[-1])
    candidates = [(s * a, b) for a in _divisors(ints[0])
                  for b in _divisors(lead) if _int_gcd(a, b) == 1
                  for s in (-1, 1)]
    # ascending a/b: the key a/b * lead is an integer because b | lead
    candidates.sort(key=lambda ab: ab[0] * (lead // ab[1]))
    for a, b in candidates:
        mult = 0
        while len(ints) > 1 and (quot := _divide_linear(ints, a, b)) is not None:
            ints, mult = quot, mult + 1
        if mult:
            roots.append((Fraction(a, b), mult))
    return roots, RatPoly(ints)


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

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.num!r})/({self.den!r})"


def solve_linear_system(matrix: Sequence[Sequence[IntPoly]],
                        rhs: Sequence[IntPoly]):
    """Solve A x = b over Q(z) for A, b with entries in Z[z], fraction-free.

    Entries are integer coefficient lists.  Bareiss elimination keeps every
    entry in Z[z] by exact division through the previous pivot.  Returns
    (numerators, denominator, kernel_dim): one solution is
    x_j = numerators[j] / denominator (free variables set to 0), where
    ``denominator`` is the determinant of the pivot minor and the numerators
    are its Cramer numerators; ``kernel_dim`` is the dimension of the null
    space of A.  Raises NoSolution when the system is inconsistent.
    """
    m = len(matrix)
    if m == 0:
        raise ValueError("empty system")
    n = len(matrix[0])
    rows = []
    for i in range(m):
        if len(matrix[i]) != n:
            raise ValueError("ragged matrix")
        rows.append([poly_trim(e) for e in matrix[i]] + [poly_trim(rhs[i])])

    pivot_cols = []
    prev_pivot: IntPoly = [1]
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, m):
            fac = rows[i][c]
            rows[i][c] = []
            for j in range(c + 1, n + 1):
                rows[i][j] = poly_exact_div(
                    poly_sub(poly_mul(rows[i][j], piv), poly_mul(fac, rows[r][j])),
                    prev_pivot)
        prev_pivot = piv
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    # rows r.. are zero on A after elimination
    if any(rows[i][n] for i in range(r, m)):
        raise NoSolution("inconsistent linear system")

    numerators: List[IntPoly] = [[] for _ in range(n)]
    for i in range(r - 1, -1, -1):
        acc = poly_mul(prev_pivot, rows[i][n])
        for c in pivot_cols[i + 1:]:
            acc = poly_sub(acc, poly_mul(rows[i][c], numerators[c]))
        numerators[pivot_cols[i]] = poly_exact_div(acc, rows[i][pivot_cols[i]])
    return numerators, prev_pivot, n - r
