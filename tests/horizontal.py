"""Verification of the Calabi-Yau conditions that no command needs.

The command line computes with the operator, its exterior square, two
truncated series and their unit roots; the conditions below are facts about
those objects that the test suite checks:

* ``to_monic`` converts a theta-form operator to the monic d/dz form with
  the rewriting theta^k = sum_j S(k, j) z^j D^j, where the S(k, j) are the
  Stirling numbers of the second kind (``stirling_table``)
* ``f0_wedge_via_wronskian`` rebuilds the normalized solution of the
  exterior square Q as w = f0^2 + z (f0 g' - f0' g), where f0 + (f0 log z + g)
  is the Frobenius pair of solutions at 0
* ``verify_horizontal_u4`` / ``verify_horizontal_u5`` assemble the twisted
  horizontal sections built from a rational function Y with Y'/Y equal to
  (1/2) a_3 resp. (2/5) b_4 and check nabla u = 0 coefficient by coefficient
  on truncated (Laurent) series; ``flip_sign`` and ``zero_b1`` break one term
  each, as negative controls

Self-duality itself is ``diffop.is_self_dual``, which the tests call
directly.  Test modules import this module as ``from horizontal import ...``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from frobcy.diffop import ThetaOperator, check_mum, solve_series
from frobcy.polyrat import (IntPoly, poly_add, poly_exact_div, poly_gcd,
                            poly_mul, poly_pow, poly_scale, poly_sub,
                            rational_roots)


class NotRationalY(ArithmeticError):
    """exp of the required integral is not a rational function."""


# -- polynomial helpers ----------------------------------------------------------


def poly_deriv(a: IntPoly) -> IntPoly:
    """da/dz."""
    return [i * c for i, c in enumerate(a)][1:]


def poly_eval(a: IntPoly, x) -> Fraction:
    """a(x) for a rational x, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


# -- theta form -> monic d/dz form -----------------------------------------------


def stirling_table(n: int) -> List[List[int]]:
    """T[k][j] with theta^k = sum_j T[k][j] z^j D^j (Stirling, second kind)."""
    T = [[1]]
    for k in range(1, n + 1):
        prev = T[-1]
        row = [0] * (k + 1)
        for j, c in enumerate(prev):
            if c:
                row[j + 1] += c          # theta * z^j D^j -> z^(j+1) D^(j+1)
                row[j] += j * c          # ... + j z^j D^j
        T.append(row)
    return T


def to_monic(op: ThetaOperator) -> Tuple[List[IntPoly], IntPoly]:
    """Monic d/dz form D^n + sum_j (nums[j] / den) D^j, as (nums, den).

    The shared denominator is den = z^n Delta (Delta = q_n, the leading
    symbol), and nums[j] = z^j sum_k S(k, j) q_k; the fractions are not
    reduced.
    """
    n = op.theta_order
    T = stirling_table(n)
    q = [op.z_poly(k) for k in range(n + 1)]
    if not q[n]:
        raise ValueError("degenerate operator: zero leading coefficient")
    nums = []
    for j in range(n):
        acc: IntPoly = []
        for k in range(j, n + 1):
            acc = poly_add(acc, poly_scale(q[k], T[k][j]))
        nums.append([0] * j + acc if acc else [])
    return nums, [0] * n + q[n]


# -- the Wronskian route to the exterior square's solution -----------------------


def f0_wedge_via_wronskian(op: ThetaOperator, N: int) -> List[Fraction]:
    """Solution of the exterior square from the Frobenius pair of ``op``.

    With y_1 = f0 and y_2 = f0 log z + g the normalized wedge solution is
    w = z (y_1 y_2' - y_1' y_2) = f0^2 + z (f0 g' - f0' g); the coefficients
    of g are produced by the exact rational log-solution recurrence
    P_0(n) g_n = -sum_{i>=1} P_i(n-i) g_{n-i} - sum_{i>=0} P_i'(n-i) c_{n-i}.
    """
    if not check_mum(op):
        raise ValueError("the log-solution recurrence requires a MUM operator")
    d = op.z_degree
    c = [Fraction(v) for v in solve_series(op, N)]
    polys = [op.theta_poly(i) for i in range(d + 1)]
    dpolys = [[k * pc[k] for k in range(1, len(pc))] for pc in polys]

    g = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        s = Fraction(0)
        for i in range(1, min(n, d) + 1):
            s += poly_eval(polys[i], n - i) * g[n - i]
        for i in range(0, min(n, d) + 1):
            s += poly_eval(dpolys[i], n - i) * c[n - i]
        g[n] = -s / poly_eval(polys[0], n)

    w = []
    for n in range(N + 1):
        acc = Fraction(0)
        for a in range(n + 1):
            acc += c[a] * c[n - a]
        m = n - 1
        if m >= 0:
            for a in range(m + 1):
                acc += c[a] * (m - a + 1) * g[m - a + 1]
                acc -= (a + 1) * c[a + 1] * g[m - a]
        w.append(acc)
    return w


# -- truncated Laurent series over Q ---------------------------------------------


class Laurent:
    """Finite-precision Laurent series: coefficients for z^val .. z^(prec-1)."""

    __slots__ = ("val", "prec", "coeffs")

    def __init__(self, val: int, coeffs: List[Fraction], prec: int):
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
            val += 1
        while len(coeffs) > max(prec - val, 0):
            coeffs.pop()
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            val = prec  # the zero series has valuation >= prec
        self.val, self.prec, self.coeffs = val, prec, coeffs

    @classmethod
    def from_series(cls, coeffs, prec: Optional[int] = None) -> "Laurent":
        cs = [Fraction(c) for c in coeffs]
        return cls(0, cs, len(cs) if prec is None else prec)

    @classmethod
    def from_ratfun(cls, num: IntPoly, den: IntPoly, prec: int) -> "Laurent":
        """Expansion of num / den at z = 0 (den nonzero)."""
        if not num:
            return cls(0, [], prec)
        nv = 0
        while num[nv] == 0:
            nv += 1
        dv = 0
        while den[dv] == 0:
            dv += 1
        val = nv - dv
        n_terms = prec - val
        if n_terms <= 0:
            return cls(val, [], prec)
        pad = [0] * n_terms
        ncs = (num[nv:] + pad)[:n_terms]
        dcs = (den[dv:] + pad)[:n_terms]
        inv0 = Fraction(1, dcs[0])
        out = []
        for i in range(n_terms):
            acc = ncs[i]
            for j in range(1, i + 1):
                acc -= dcs[j] * out[i - j]
            out.append(acc * inv0)
        return cls(val, out, prec)

    def coefficient(self, k: int) -> Fraction:
        if k >= self.prec:
            raise ValueError(f"coefficient z^{k} beyond precision {self.prec}")
        if k < self.val or k - self.val >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[k - self.val]

    def __add__(self, other: "Laurent") -> "Laurent":
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return Laurent(other.val, list(other.coeffs), prec)
        if not other.coeffs:
            return Laurent(self.val, list(self.coeffs), prec)
        val = min(self.val, other.val)
        out = [Fraction(0)] * (prec - val)
        for i, c in enumerate(self.coeffs):
            k = self.val + i
            if k < prec:
                out[k - val] += c
        for i, c in enumerate(other.coeffs):
            k = other.val + i
            if k < prec:
                out[k - val] += c
        return Laurent(val, out, prec)

    def __neg__(self) -> "Laurent":
        return Laurent(self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        prec = min(self.prec + other.val, other.prec + self.val)
        if not self.coeffs or not other.coeffs:
            return Laurent(0, [], prec)
        val = self.val + other.val
        out = [Fraction(0)] * max(prec - val, 0)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= len(out):
                    break
                out[k] += a * b
        return Laurent(val, out, prec)

    def derivative(self) -> "Laurent":
        """d/dz; precision drops by one."""
        out = [(self.val + i) * c for i, c in enumerate(self.coeffs)]
        return Laurent(self.val - 1, out, self.prec - 1)

    def is_zero_up_to(self, k_max: int) -> bool:
        """All coefficients of z^k, k <= k_max, vanish (certified)."""
        if self.prec <= k_max:
            raise ValueError(
                f"cannot certify vanishing to order {k_max} at precision {self.prec}")
        for i, c in enumerate(self.coeffs):
            if self.val + i > k_max:
                break
            if c:
                return False
        return True


# -- rational exponentials -------------------------------------------------------


def rational_exp_integral(num: IntPoly, den: IntPoly) -> Tuple[IntPoly, IntPoly]:
    """(y_num, y_den) with Y = y_num / y_den and Y'/Y = num / den, up to a
    constant factor.

    Y is rational iff g = num / den is a Z-linear combination of logarithmic
    derivatives f'/f: g must be proper with square-free denominator and
    integer residues.  Each rational root of the denominator gives its
    residue directly.  The rootless cofactor carries one exponent m, read off
    at infinity: all finite residues sum to lc(num)/lc(den) when
    deg num = deg den - 1 (to 0 otherwise), so m is that sum minus the
    rational residues, over the cofactor's degree.  The result is confirmed
    by the identity (y_num' y_den - y_num y_den') den = num y_num y_den.
    Raises NotRationalY when g is not of that form.
    """
    if not num:
        return [1], [1]
    g = poly_gcd(num, den)
    num, den = poly_exact_div(num, g), poly_exact_div(den, g)
    if len(num) >= len(den):
        raise NotRationalY("nonzero polynomial part in the logarithmic derivative")
    dden = poly_deriv(den)
    if len(poly_gcd(den, dden)) > 1:
        raise NotRationalY("higher-order pole in the logarithmic derivative")
    roots, cofactor = rational_roots(den)
    factors = []  # (integer factor, exponent)
    rest = Fraction(num[-1], den[-1]) if len(num) == len(den) - 1 else Fraction(0)
    for rho, _mult in roots:
        residue = poly_eval(num, rho) / poly_eval(dden, rho)
        if residue.denominator != 1:
            raise NotRationalY(f"non-integer residue {residue} at z = {rho}")
        factors.append(([-rho.numerator, rho.denominator], int(residue)))
        rest -= residue
    if len(cofactor) > 1:
        m = rest / (len(cofactor) - 1)
        if m.denominator != 1:
            raise NotRationalY(f"non-integer residue {m} on a nonlinear factor")
        factors.append((cofactor, int(m)))
    y_num: IntPoly = [1]
    y_den: IntPoly = [1]
    for f, m in factors:
        if m > 0:
            y_num = poly_mul(y_num, poly_pow(f, m))
        elif m < 0:
            y_den = poly_mul(y_den, poly_pow(f, -m))
    lhs = poly_mul(poly_sub(poly_mul(poly_deriv(y_num), y_den),
                            poly_mul(y_num, poly_deriv(y_den))), den)
    if lhs != poly_mul(poly_mul(num, y_num), y_den):
        raise NotRationalY("logarithmic derivative decomposition failed")
    return y_num, y_den


# -- horizontal sections ----------------------------------------------------------


def _series_derivatives(coeffs: List[int], count: int, prec: int) -> List[Laurent]:
    out = [Laurent.from_series(coeffs, prec)]
    for _ in range(count):
        out.append(out[-1].derivative())
    return out


def _check_brackets(components: List[Laurent], top: Laurent,
                    a_series: List[Laurent], k_max: int) -> bool:
    """Brackets of nabla u for u = sum components[j] * nabla^j(generator):
    (C_j' + C_{j-1} - C_top * a_j) for each j; all must vanish."""
    n = len(components)
    for j in range(n - 1, -1, -1):
        bracket = components[j].derivative()
        if j > 0:
            bracket = bracket + components[j - 1]
        bracket = bracket - top * a_series[j]
        if not bracket.is_zero_up_to(k_max):
            return False
    return True


def verify_horizontal_u4(op: ThetaOperator, N: int,
                         flip_sign: bool = False) -> bool:
    """Check that the twisted section

        u = Y [f0 D^3 - f0' D^2 + f0'' D - f0'''] omega
          + (Y a3 - Y') [f0 D^2 - f0''] omega
          + (Y a2 - (Y a3)' + Y'') [f0 D - f0'] omega

    (D = nabla_{d/dz}, Y'/Y = a3/2) is horizontal: nabla u = 0 through
    series coefficients up to order N - 4.  ``flip_sign`` flips the sign of
    the f0' term of C2, a negative control.
    """
    if N < 5:
        raise ValueError("need N >= 5 to certify any coefficient")
    nums, den = to_monic(op)
    Y = rational_exp_integral(nums[3], poly_scale(den, 2))
    f0 = solve_series(op, N)

    prec = N + 1
    lprec = prec + 8  # rational factors are exact; keep some slack
    f = _series_derivatives(f0, 3, prec)
    Ys = Laurent.from_ratfun(*Y, lprec)
    Yp = Ys.derivative()
    a_series = [Laurent.from_ratfun(a, den, lprec) for a in nums]
    a3s = a_series[3]

    coef2 = Ys * a3s - Yp                       # Y a3 - Y'
    coef1 = a_series[2] * Ys - (Ys * a3s).derivative() + Yp.derivative()

    minus = Laurent(0, [Fraction(-1)], lprec)
    m2 = Laurent(0, [Fraction(1)], lprec) if flip_sign else minus

    C3 = Ys * f[0]
    C2 = m2 * (Ys * f[1]) + coef2 * f[0]
    C1 = Ys * f[2] + coef1 * f[0]
    C0 = minus * (Ys * f[3]) + minus * (coef2 * f[2]) + minus * (coef1 * f[1])
    return _check_brackets([C0, C1, C2, C3], C3, a_series, N - 4)


def verify_horizontal_u5(q: ThetaOperator, N: int,
                         zero_b1: bool = False) -> bool:
    """Check horizontality of the order-5 twisted section of the exterior
    square Q: with Y'/Y = (2/5) b4 and C4 = Y F0, the chain

        C_{j} = C4 b_{j+1} - C_{j+1}'   (j = 3..0)

    makes every bracket of nabla u vanish except possibly the last,
    C_0' = C4 b_0, which holds exactly when u is horizontal.  All five
    brackets are checked on series coefficients up to order N - 4.
    ``zero_b1`` replaces b_1 by 0, a negative control.
    """
    if N < 5:
        raise ValueError("need N >= 5 to certify any coefficient")
    b, den = to_monic(q)  # b0 .. b4 over den
    Y = rational_exp_integral(poly_scale(b[4], 2), poly_scale(den, 5))
    F0 = solve_series(q, N)

    prec = N + 1
    lprec = prec + 8
    Fs = Laurent.from_series(F0, prec)
    Ys = Laurent.from_ratfun(*Y, lprec)
    bs = [Laurent.from_ratfun(bb, den, lprec) for bb in b]
    if zero_b1:
        bs[1] = Laurent(0, [], lprec)

    C = [None] * 5
    C[4] = Ys * Fs
    for j in range(3, -1, -1):
        C[j] = C[4] * bs[j + 1] - C[j + 1].derivative()
    return _check_brackets(C, C[4], bs, N - 4)
