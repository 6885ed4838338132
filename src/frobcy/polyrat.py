"""Exact univariate polynomials over Z as integer coefficient lists.

An element of Z[z] is an ``IntPoly``: a list of ints in ascending degree with
trailing zeros removed (the zero polynomial is the empty list).  It is the
only polynomial type of the package: the ``poly_*`` functions are its ring
operations, plus the Euler derivation theta = z d/dz, the primitive part
and the gcd by primitive pseudo-remainders.  ``poly_exact_div`` is the one
division; ``poly_divide_while`` repeats it while it stays exact, which
gives ``rational_roots`` the multiplicity of each rational root and the
exterior square its theta-iterates in lowest Delta-terms.
``solve_linear_system`` is fraction-free (Bareiss) elimination over Z[z]
and returns Cramer numerators over one common denominator together with
the kernel dimension of the coefficient matrix.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from typing import List, Sequence, Tuple

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


def poly_pow(a: IntPoly, e: int) -> IntPoly:
    """a^e for e >= 0."""
    out: IntPoly = [1]
    for _ in range(e):
        out = poly_mul(out, a)
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


def poly_divide_while(vec: List[IntPoly], factor: IntPoly, most: int
                      ) -> Tuple[List[IntPoly], int]:
    """Divide every entry of ``vec`` by ``factor`` while it divides them all
    in Z[z], at most ``most`` times; returns the quotients and the number of
    divisions."""
    count = 0
    while count < most:
        try:
            vec = [poly_exact_div(v, factor) for v in vec]
        except ArithmeticError:
            break
        count += 1
    return vec, count


def poly_theta(a: IntPoly) -> IntPoly:
    """theta a = z da/dz."""
    return poly_trim([i * c for i, c in enumerate(a)])


def poly_primitive(a: IntPoly) -> IntPoly:
    """a divided by its content, with positive leading coefficient."""
    g = _int_gcd(*a)
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """lc(b)^(deg a - deg b + 1) a mod b, in Z[z]."""
    rem = list(a)
    lead, db = b[-1], len(b) - 1
    for k in range(len(rem) - len(b), -1, -1):
        c = rem[k + db]
        rem = [lead * x for x in rem]
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return poly_trim(rem[:db])


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[z] (content 1, positive leading coefficient) by
    primitive pseudo-remainders; gcd(0, 0) = 0."""
    a, b = poly_primitive(a), poly_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, poly_primitive(_pseudo_rem(a, b))
    return a


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


def rational_roots(poly: IntPoly) -> tuple:
    """All rational roots with multiplicity, plus the rootless cofactor.

    Returns (roots, cofactor) where roots is a list of (Fraction, multiplicity),
    the root 0 first and then the others in ascending order, and
    poly = const * z^m0 * prod (b z - a)^m * cofactor with a cofactor in Z[z]
    that has no rational root.

    The search runs on the primitive integer coefficients c_0 .. c_n.  By
    Gauss's lemma a/b in lowest terms (b > 0) is a root exactly when b z - a
    divides the polynomial in Z[z]; then a | c_0 and b | c_n, and the
    multiplicity is the number of exact divisions by b z - a.
    """
    from fractions import Fraction

    if not poly:
        raise ValueError("zero polynomial")
    ints = poly_primitive(poly)
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
        (ints,), mult = poly_divide_while([ints], [-a, b], len(ints) - 1)
        if mult:
            roots.append((Fraction(a, b), mult))
    return roots, ints


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
