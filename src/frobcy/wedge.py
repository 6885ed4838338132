"""Exterior squares of fourth-order operators and horizontal sections.

A fourth-order MUM operator L acts on the rank-4 module with basis
omega, theta omega, theta^2 omega, theta^3 omega.  The induced rank-6
exterior square carries the Leibniz action

    theta (a ^ b) = (theta a) ^ b + a ^ (theta b),

and eta := z * omega ^ (d/dz omega) = omega ^ theta omega generates it.
``wedge_square`` returns the minimal operator Q with Q(eta) = 0, computed
purely by exact linear algebra over Z[z] -- the only route used; no
closed-form product formula enters.  Module vectors are integer coefficient
lists over powers of the leading symbol Delta, kept in lowest Delta-terms, so
theta^k eta = v_k / Delta^(e_k) with v_k in Z[z]^6 (e = 0, 0, 0, 1, 2, 3 on
the catalog), and the relation comes from fraction-free elimination on the
v_k themselves.
It is memoized per process by the operator's JSON, so each operator's
exterior square (and its closing ``check_cy5``) is built at most once.  The
series of a catalog product do not build it: ``catalog`` ships the 24
exterior squares as data and runs only ``check_wedge``, the same closing
checks, on each one it loads.

``f0_wedge_via_wronskian`` rebuilds the normalized solution of Q as
w = f0^2 + z (f0 g' - f0' g), where f0 + (f0 log z + g) is the Frobenius
pair of solutions at 0.

``verify_horizontal_u4`` / ``verify_horizontal_u5`` assemble the twisted
horizontal sections built from a rational function Y with Y'/Y equal to
(1/2) a_3 resp. (2/5) b_4 and check nabla u = 0 coefficient by coefficient
on truncated (Laurent) series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import FrobcyError
from .diffop import ThetaOperator, check_cy5, check_mum, solve_series, to_monic
from .polyrat import (IntPoly, NoSolution, poly_add, poly_deriv, poly_eval,
                      poly_exact_div, poly_gcd, poly_mul, poly_pow, poly_scale,
                      poly_sub, poly_theta, rational_roots, solve_linear_system)


class UnexpectedOrder(FrobcyError, ArithmeticError):
    """The minimal operator of eta does not have order 5.

    Order below 5 would mean dependent theta-iterates (kernel of the linear
    system); order 6 — no order-5 relation at all — is what actually occurs
    when the input lacks the order-4 self-duality."""


class UnsupportedOperator(FrobcyError, ValueError):
    """The input of ``wedge_square`` is not a fourth-order MUM operator."""


class NotRationalY(FrobcyError, ArithmeticError):
    """exp of the required integral is not a rational function."""


# -- differential modules over Z[z] ----------------------------------------------


def _module_action(op: ThetaOperator) -> Tuple[IntPoly, List[List[IntPoly]]]:
    """(Delta, A) for the rank-n module on omega, theta omega, ...,
    theta^(n-1) omega, with theta(e_j) = sum_i A[j][i] e_i / Delta.

    Delta = q_n is the leading symbol, q_k(z) = sum_i z^i [theta^k] P_i:
    theta e_j = e_(j+1) below the top, and theta e_(n-1) = -sum_k q_k e_k / Delta.
    """
    n = op.theta_order
    q = [op.z_poly(k) for k in range(n + 1)]
    action: List[List[IntPoly]] = [[[] for _ in range(n)] for _ in range(n - 1)]
    for j in range(n - 1):
        action[j][j + 1] = q[n]
    action.append([poly_scale(q[k], -1) for k in range(n)])
    return q[n], action


def _wedge_action(action: List[List[IntPoly]]
                  ) -> Tuple[List[List[IntPoly]], List[Tuple[int, int]]]:
    """Exterior square of a module action over the same Delta, by the Leibniz
    rule theta(e_a ^ e_b) = (theta e_a) ^ e_b + e_a ^ (theta e_b).

    Returns the rank-(n choose 2) action and its ordered basis of index pairs
    (a, b), a < b, for e_a ^ e_b.
    """
    n = len(action)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    cols = []
    for (a, b) in pairs:
        col: List[IntPoly] = [[] for _ in pairs]
        for i in range(n):
            for lo, hi, coef in ((i, b, action[a][i]), (a, i, action[b][i])):
                if lo < hi:
                    col[index[(lo, hi)]] = poly_add(col[index[(lo, hi)]], coef)
                elif lo > hi:
                    col[index[(hi, lo)]] = poly_sub(col[index[(hi, lo)]], coef)
        cols.append(col)
    return cols, pairs


def _theta_step(vec: List[IntPoly], m: int, delta: IntPoly,
                action: List[List[IntPoly]]) -> List[IntPoly]:
    """theta(vec / Delta^m) as a vector over Delta^(m+1):

    (Delta theta v - m theta(Delta) v + sum_j v_j Delta theta(e_j)) / Delta^(m+1).
    """
    m_theta_delta = poly_scale(poly_theta(delta), m)
    out = [poly_sub(poly_mul(delta, poly_theta(v)), poly_mul(m_theta_delta, v))
           for v in vec]
    for j, v in enumerate(vec):
        if v:
            for i, coef in enumerate(action[j]):
                if coef:
                    out[i] = poly_add(out[i], poly_mul(v, coef))
    return out


def _divide_while(vec: List[IntPoly], factor: IntPoly, most: int
                  ) -> Tuple[List[IntPoly], int]:
    """Divide every entry of ``vec`` by ``factor`` while it divides them all,
    at most ``most`` times; returns the quotients and the number of divisions."""
    count = 0
    while count < most:
        try:
            vec = [poly_exact_div(v, factor) for v in vec]
        except ArithmeticError:
            break
        count += 1
    return vec, count


# -- the fifth-order companion ---------------------------------------------------


# operator JSON -> its exterior square; only successful builds are stored
_WEDGES: Dict[str, ThetaOperator] = {}


def wedge_square(op: ThetaOperator) -> ThetaOperator:
    """Minimal monic operator annihilating eta = e_0 ^ e_1, order exactly 5.

    With theta^k eta = v_k / Delta^(e_k) in lowest Delta-terms, the 6x5
    system [v_0 ... v_4] x = v_5 is solved by Bareiss elimination in Z[z];
    scaling a column by a nonzero Delta-power changes neither the system's
    consistency nor the dimension of its kernel.  The relation
    det Delta^(e_5) theta^5 - sum_k X_k Delta^(e_k) theta^k is stripped of
    its common Delta and z factors, divided by the primitive gcd of what
    remains in Z[z] and brought to the canonical integer form (content 1,
    positive leading constant).  Raises UnsupportedOperator unless ``op`` is a
    fourth-order MUM operator, and UnexpectedOrder when the iterates are
    linearly dependent before order 5 or span no order-5 relation.

    The result is memoized by ``op.to_json()`` for the life of the process
    and the same object is returned to every caller; an operator that raises
    is not memoized.
    """
    key = op.to_json()
    out = _WEDGES.get(key)
    if out is None:
        out = _WEDGES[key] = _build_wedge(op)
    return out


def _build_wedge(op: ThetaOperator) -> ThetaOperator:
    if op.theta_order != 4:
        raise UnsupportedOperator("wedge_square expects a fourth-order operator")
    if not check_mum(op):
        raise UnsupportedOperator("wedge_square expects a MUM operator")
    delta, action = _module_action(op)
    waction, pairs = _wedge_action(action)
    # theta^k eta = iterates[k] / Delta^exps[k], in lowest Delta-terms
    eta: List[IntPoly] = [[] for _ in pairs]
    eta[pairs.index((0, 1))] = [1]
    iterates, exps = [eta], [0]
    for _ in range(5):
        vec = _theta_step(iterates[-1], exps[-1], delta, waction)
        vec, j = _divide_while(vec, delta, exps[-1] + 1)
        iterates.append(vec)
        exps.append(exps[-1] + 1 - j)

    matrix = [[iterates[k][i] for k in range(5)] for i in range(len(pairs))]
    try:
        numerators, det, kernel_dim = solve_linear_system(matrix, iterates[5])
    except NoSolution as exc:
        raise UnexpectedOrder("theta-iterates span no order-5 relation") from exc
    if kernel_dim > 0:
        raise UnexpectedOrder(
            f"eta satisfies a relation of order < 5 (kernel dimension {kernel_dim})"
        )

    # det Delta^e5 theta^5 eta - sum_k X_k Delta^ek theta^k eta = 0: strip the
    # common Delta and z factors exactly, then divide out their gcd in Z[z]
    relation = [poly_mul(poly_scale(x, -1), poly_pow(delta, e))
                for x, e in zip(numerators, exps)]
    relation.append(poly_mul(det, poly_pow(delta, exps[5])))
    bound = max(len(c) for c in relation)
    relation = _divide_while(relation, delta, bound)[0]
    relation = _divide_while(relation, [0, 1], bound)[0]
    g: IntPoly = []
    for c in relation:
        g = poly_gcd(g, c)
        if len(g) == 1:
            break
    if len(g) > 1:
        relation = [poly_exact_div(c, g) for c in relation]
    z_deg = max(len(c) for c in relation) - 1
    rows = [[c[i] if i < len(c) else 0 for c in relation]
            for i in range(z_deg + 1)]
    return check_wedge(ThetaOperator(
        rows, name=f"wedge({op.name})" if op.name else "wedge", aesz=None))


def check_wedge(out: ThetaOperator) -> ThetaOperator:
    """The closing checks of an exterior square: ``out`` itself when it is
    MUM and passes ``check_cy5``, UnexpectedOrder otherwise."""
    if not check_mum(out) or not check_cy5(out):
        raise UnexpectedOrder("exterior square fails its structural checks")
    return out


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
    c = [Fraction(v) for v in solve_series(op, N).coeffs]
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


class _Laurent:
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
    def from_series(cls, coeffs, prec: Optional[int] = None) -> "_Laurent":
        cs = [Fraction(c) for c in coeffs]
        return cls(0, cs, len(cs) if prec is None else prec)

    @classmethod
    def from_ratfun(cls, num: IntPoly, den: IntPoly, prec: int) -> "_Laurent":
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

    def __add__(self, other: "_Laurent") -> "_Laurent":
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return _Laurent(other.val, list(other.coeffs), prec)
        if not other.coeffs:
            return _Laurent(self.val, list(self.coeffs), prec)
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
        return _Laurent(val, out, prec)

    def __neg__(self) -> "_Laurent":
        return _Laurent(self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other: "_Laurent") -> "_Laurent":
        return self + (-other)

    def __mul__(self, other: "_Laurent") -> "_Laurent":
        prec = min(self.prec + other.val, other.prec + self.val)
        if not self.coeffs or not other.coeffs:
            return _Laurent(0, [], prec)
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
        return _Laurent(val, out, prec)

    def derivative(self) -> "_Laurent":
        """d/dz; precision drops by one."""
        out = [(self.val + i) * c for i, c in enumerate(self.coeffs)]
        return _Laurent(self.val - 1, out, self.prec - 1)

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


def _series_derivatives(coeffs: List[int], count: int, prec: int) -> List[_Laurent]:
    out = [_Laurent.from_series(coeffs, prec)]
    for _ in range(count):
        out.append(out[-1].derivative())
    return out


def _check_brackets(components: List[_Laurent], top: _Laurent,
                    a_series: List[_Laurent], k_max: int) -> bool:
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
                         _flip_sign: bool = False) -> bool:
    """Check that the twisted section

        u = Y [f0 D^3 - f0' D^2 + f0'' D - f0'''] omega
          + (Y a3 - Y') [f0 D^2 - f0''] omega
          + (Y a2 - (Y a3)' + Y'') [f0 D - f0'] omega

    (D = nabla_{d/dz}, Y'/Y = a3/2) is horizontal: nabla u = 0 through
    series coefficients up to order N - 4.
    """
    if N < 5:
        raise ValueError("need N >= 5 to certify any coefficient")
    nums, den = to_monic(op)
    Y = rational_exp_integral(nums[3], poly_scale(den, 2))
    f0 = solve_series(op, N).coeffs

    prec = N + 1
    lprec = prec + 8  # rational factors are exact; keep some slack
    f = _series_derivatives(f0, 3, prec)
    Ys = _Laurent.from_ratfun(*Y, lprec)
    Yp = Ys.derivative()
    a_series = [_Laurent.from_ratfun(a, den, lprec) for a in nums]
    a3s = a_series[3]

    coef2 = Ys * a3s - Yp                       # Y a3 - Y'
    coef1 = a_series[2] * Ys - (Ys * a3s).derivative() + Yp.derivative()

    minus = _Laurent(0, [Fraction(-1)], lprec)
    # negative control: flip exactly one sign (the f0' term of C2)
    m2 = _Laurent(0, [Fraction(1)], lprec) if _flip_sign else minus

    C3 = Ys * f[0]
    C2 = m2 * (Ys * f[1]) + coef2 * f[0]
    C1 = Ys * f[2] + coef1 * f[0]
    C0 = minus * (Ys * f[3]) + minus * (coef2 * f[2]) + minus * (coef1 * f[1])
    return _check_brackets([C0, C1, C2, C3], C3, a_series, N - 4)


def verify_horizontal_u5(q: ThetaOperator, N: int,
                         _zero_b1: bool = False) -> bool:
    """Check horizontality of the order-5 twisted section of the exterior
    square Q: with Y'/Y = (2/5) b4 and C4 = Y F0, the chain

        C_{j} = C4 b_{j+1} - C_{j+1}'   (j = 3..0)

    makes every bracket of nabla u vanish except possibly the last,
    C_0' = C4 b_0, which holds exactly when u is horizontal.  All five
    brackets are checked on series coefficients up to order N - 4.
    """
    if N < 5:
        raise ValueError("need N >= 5 to certify any coefficient")
    b, den = to_monic(q)  # b0 .. b4 over den
    Y = rational_exp_integral(poly_scale(b[4], 2), poly_scale(den, 5))
    F0 = solve_series(q, N).coeffs

    prec = N + 1
    lprec = prec + 8
    Fs = _Laurent.from_series(F0, prec)
    Ys = _Laurent.from_ratfun(*Y, lprec)
    bs = [_Laurent.from_ratfun(bb, den, lprec) for bb in b]
    if _zero_b1:
        bs[1] = _Laurent(0, [], lprec)

    C = [None] * 5
    C[4] = Ys * Fs
    for j in range(3, -1, -1):
        C[j] = C[4] * bs[j + 1] - C[j + 1].derivative()
    return _check_brackets(C, C[4], bs, N - 4)
