"""Ordinary differential operators in theta form and their series solutions.

An operator is stored as an integer coefficient table for

    L = P_0(theta) + z P_1(theta) + ... + z^d P_d(theta),   theta = z d/dz,

with overall integer content extracted.  The unique normalized power-series
solution of a MUM operator (P_0 = theta^n) is produced by the recurrence

    P_0(n) c_n = - sum_{i>=1} P_i(n - i) c_{n-i},

with exact big integers, every division checked.  A caller that knows the
series to be integral and wants it only mod prime powers lets the run leave
exact integers for residues once these are the narrower (the residue phase
of ``solve_series``).  Conversion to the monic d/dz form uses

    theta^k = sum_j S(k, j) z^j D^j,

where the S(k, j) are Stirling numbers of the second kind, generated by the
rewriting rule theta * z^j D^j = z^(j+1) D^(j+1) + j z^j D^j.

The self-duality checks ``check_cy4`` / ``check_cy5`` never leave the theta
form: the operator is compared with its twisted adjoint as coefficient
tables in Z[z][theta] (see ``_is_self_dual``).
"""

from __future__ import annotations

import json
from math import gcd
from typing import List, Optional, Sequence, Tuple

from . import FrobcyError, Record
from .polyrat import (IntPoly, poly_add, poly_mul, poly_scale, poly_sub,
                      poly_theta, poly_trim)

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - gmpy2 is an optional extra
    mpz = int


class NonIntegralSolution(FrobcyError, ArithmeticError):
    """The exact series recurrence produced a non-integer coefficient."""


def _int_content_sign(rows: Sequence[Sequence[int]]) -> int:
    g = 0
    for row in rows:
        for c in row:
            g = gcd(g, abs(c))
    if g == 0:
        raise ValueError("zero operator")
    # sign convention: constant coefficient of the leading symbol positive,
    # falling back to the first nonzero coefficient overall
    lead = 0
    order = max(len(row) for row in rows) - 1
    for row in rows:
        c = row[order] if len(row) > order else 0
        if c:
            lead = c
            break
    if lead == 0:
        for row in rows:
            for c in row:
                if c:
                    lead = c
                    break
            if lead:
                break
    return -g if lead < 0 else g


class ThetaOperator:
    """Integer-coefficient operator sum_i z^i P_i(theta), content-extracted.

    ``coeffs[i][j]`` is the coefficient of z^i theta^j.  All rows are padded
    to length theta_order + 1.
    """

    __slots__ = ("coeffs", "name", "aesz")

    def __init__(self, rows: Sequence[Sequence[int]], name: str = "",
                 aesz: Optional[int] = None):
        rows = [list(map(int, row)) for row in rows]
        while rows and not any(rows[-1]):
            rows.pop()
        if not rows:
            raise ValueError("zero operator")
        order = max((len(row) - 1) for row in rows)
        while order > 0 and all(len(row) <= order or row[order] == 0 for row in rows):
            order -= 1
        g = _int_content_sign([row[: order + 1] for row in rows])
        self.coeffs: tuple = tuple(
            tuple((row[j] if j < len(row) else 0) // g for j in range(order + 1))
            for row in rows
        )
        self.name = name
        self.aesz = aesz

    # -- structure -----------------------------------------------------------

    @property
    def theta_order(self) -> int:
        return len(self.coeffs[0]) - 1

    @property
    def z_degree(self) -> int:
        return len(self.coeffs) - 1

    def theta_poly(self, i: int) -> List[int]:
        """Coefficient list of P_i(theta) (ascending)."""
        return list(self.coeffs[i]) if 0 <= i < len(self.coeffs) else [0]

    def z_poly(self, k: int) -> IntPoly:
        """q_k(z) = sum_i z^i [theta^k] P_i, so that the operator is
        sum_k q_k(z) theta^k; trimmed integer coefficient list."""
        return poly_trim([row[k] for row in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "operator"
        return f"ThetaOperator({label}, order {self.theta_order}, z-degree {self.z_degree})"

    # -- JSON interchange ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "aesz": self.aesz,
            "theta_order": self.theta_order,
            "coeffs": [[str(c) for c in row] for row in self.coeffs],
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ThetaOperator":
        data = json.loads(text)
        rows = [[int(c) for c in row] for row in data["coeffs"]]
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"name must be a string, not {name!r}")
        op = cls(rows, name=name, aesz=data.get("aesz"))
        if op.theta_order != data["theta_order"]:
            raise ValueError("theta_order does not match the coefficient table")
        return op


def check_mum(op: ThetaOperator) -> bool:
    """True iff P_0(theta) = theta^n exactly (maximal unipotent monodromy)."""
    n = op.theta_order
    p0 = op.theta_poly(0)
    return p0[n] == 1 and all(c == 0 for c in p0[:n])


def leading_symbol(op: ThetaOperator) -> IntPoly:
    """D(z) = sum_i z^i [theta^n] P_i: zero locus = singular points."""
    return op.z_poly(op.theta_order)


def symbol_roots_mod_p(op: ThetaOperator, p: int) -> List[int]:
    """Roots of the leading symbol in F_p^* (by direct scan)."""
    sym = [c % p for c in leading_symbol(op)]
    out = []
    for z0 in range(1, p):
        acc = 0
        for c in reversed(sym):
            acc = (acc * z0 + c) % p
        if acc == 0:
            out.append(z0)
    return out


# -- series solutions ---------------------------------------------------------


class TruncatedSeries(Record):
    """Power-series truncation c_0 + c_1 z + ... + c_N z^N with c_0 = 1.

    ``prime`` is None for exact integer coefficients; otherwise coefficients
    are residues mod prime^cap.
    """

    __slots__ = ("coeffs", "prime", "cap")

    def __init__(self, coeffs: list, prime: Optional[int] = None,
                 cap: Optional[int] = None):
        if not coeffs or coeffs[0] != 1:
            raise ValueError("normalized series must start with c_0 = 1")
        self.coeffs, self.prime, self.cap = coeffs, prime, cap

    @property
    def order(self) -> int:
        """Truncation order N (degree of the last kept coefficient)."""
        return len(self.coeffs) - 1

    def truncate(self, N: int) -> "TruncatedSeries":
        """f^(N): the truncation of degree <= N (N + 1 coefficients)."""
        if N > self.order:
            raise ValueError(f"series holds only {self.order + 1} coefficients")
        return TruncatedSeries(self.coeffs[: N + 1], self.prime, self.cap)

    def evaluate_mod(self, x: int, modulus: int) -> int:
        """Horner evaluation of the truncation at an integer residue."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % modulus
        return acc


Target = Tuple[Optional[int], Optional[int], int]  # (p, K, N); p = K = None: exact

# an integral run keeps its residue modulus Q from the first coefficient of
# SWITCH_FLOOR bits on, and leaves exact integers once a coefficient is
# SWITCH_MARGIN times as wide as Q (see solve_series)
SWITCH_FLOOR = 1000
SWITCH_MARGIN = 3


def _factorial_valuation(n: int, p: int) -> int:
    """v_p(n!)."""
    v = 0
    while n:
        n //= p
        v += n
    return v


def _residue_modulus(live: list, n: int, order: int) -> int:
    """Q at degree n: the prime p of each live target (N_t, _, _, p, K) to
    the largest K + order v_p(N_t! / n!), the digits its target still needs
    on the way to N_t."""
    digits: dict = {}
    for tN, _m, _out, tp, tK in live:
        need = tK + order * (_factorial_valuation(tN, tp) - _factorial_valuation(n, tp))
        digits[tp] = max(digits.get(tp, 0), need)
    Q = 1
    for tp, m in digits.items():
        Q *= tp**m
    return Q


def _unscale(out: list, us: Sequence[int], n0: int, m: int) -> None:
    """out[n] = X_n / D_n mod m for n > n0, where D_n = us[0] ... us[n-n0-1]
    is the scale of a residue phase entered after degree n0: one inverse of
    the last D_n, then down."""
    last = len(out) - 1
    if last <= n0:
        return
    d = 1
    for u in us[:last - n0]:
        d = d * u % m
    inv = pow(d, -1, m)
    for n in range(last, n0, -1):
        out[n] = out[n] * inv % m
        inv = inv * us[n - n0 - 1] % m


def solve_series(op: ThetaOperator, N: int, p: Optional[int] = None,
                 K: Optional[int] = None, *,
                 targets: Optional[Sequence[Target]] = None,
                 integral: bool = False):
    """Normalized solution c_0 = 1 of a MUM operator, truncated at degree N.

    The recurrence runs on exact big integers; every division must be exact
    (NonIntegralSolution otherwise).  When (p, K) are given, finished
    coefficients are stored reduced mod p^K while only the trailing window
    needed by the recurrence stays exact.

    ``targets`` batches one run for several truncations: a list of
    (p, K, N_t) with N_t <= N, or (None, None, N_t) for exact coefficients.
    The recurrence runs once and reduces each finished coefficient into every
    target's modulus.  The result is a list aligned with ``targets``: for
    each, its TruncatedSeries, or the NonIntegralSolution that a separate
    call would raise (a target ending below the first non-integral
    coefficient is still returned).  Without ``targets`` the call is the
    one-target case (p, K, N) and raises on failure.

    ``integral`` is the caller's word that the series has integer
    coefficients; with it, and no exact target, the run may leave exact
    integers (the residue phase).  At degree n each target prime p needs
    M_p = K + order v_p(N_t! / n!) digits, the largest over its live
    targets: what the remaining divisions by n^order use up.  Q is the
    product of the p^M_p, kept from the first coefficient of SWITCH_FLOOR
    bits on.  Once a coefficient is SWITCH_MARGIN times as wide as Q in bits
    (tested at the multiples of a target prime), the window holds residues
    X_n = D_n c_n mod Q.  A step writes n^order = g u, with g made of Q's
    primes: u, prime to Q, joins the scale D_n = u D_(n-1) instead of being
    divided out, and the division by g is exact and checked, so a
    coefficient that is not p-integral at a target prime still raises
    NonIntegralSolution (integrality at other primes is not checked there).
    Q then drops those digits, and a prime whose targets are finished leaves
    Q.  Each target's residues are unscaled at the end, with one modular
    inverse of D_N mod p^K.  The phase uses only operations that ``int`` and
    gmpy2's ``mpz`` share.
    """
    if not check_mum(op):
        raise ValueError("series solving requires a MUM operator")
    d = op.z_degree
    # P_i(m) evaluators over plain ints (coefficients are small)
    polys = [op.theta_poly(i) for i in range(d + 1)]

    def peval(i: int, m: int) -> int:
        acc = 0
        for c in reversed(polys[i]):
            acc = acc * m + c
        return acc

    if N < 0:
        raise ValueError("truncation order must be >= 0")
    batch = targets is not None
    if not batch:
        targets = [(p, K, N)]
    elif p is not None or K is not None:
        raise ValueError("a batched run takes (p, K) from its targets")
    for tp, tK, tN in targets:
        if tp is not None and tK is None:
            raise ValueError("storage reduction needs both p and K")
        if not 0 <= tN <= N:
            raise ValueError(f"target order {tN} outside 0 .. {N}")
    outs: List[list] = [[1] for _ in targets]
    # (N_t, modulus or None, coefficient list, p, K), longest first, so that
    # the targets finished before degree n are the tail
    live = sorted(((tN, None if tp is None else tp**tK, out, tp, tK)
                   for (tp, tK, tN), out in zip(targets, outs)),
                  key=lambda t: t[0], reverse=True)
    w = max(d, 1)
    window = [mpz(1)] + [mpz(0)] * (w - 1)
    order = op.theta_order
    can_switch = integral and all(tp is not None for tp, _, _ in targets)
    Q = None  # the residue modulus, kept from SWITCH_FLOOR bits on
    residues = False  # whether the window holds X_n = D_n c_n mod Q
    us: List[int] = []  # u_n of each residue step; D_n is their product
    uw = [1] * w  # u of the window's degrees
    failure = None
    for n in range(1, N + 1):
        while live and live[-1][0] < n:
            live.pop()
            if Q is not None:  # a finished target's digits leave Q
                Q = _residue_modulus(live, n - 1, order)
        if not live:
            break
        p0 = peval(0, n)  # = n^order for MUM
        s = mpz(0)
        if residues:
            f = 1  # D_(n-1) / D_(n-i)
            for i in range(1, min(n, d) + 1):
                s += peval(i, n - i) * f * window[(n - i) % w]
                f *= uw[(n - i) % w]
            g = gs.get(n, 1)
            if g > 1:
                s, rem = divmod(s, g)
                if rem:
                    bad = next(tp for tp in {t[3] for t in live} if rem % tp ** (
                        order * (_factorial_valuation(n, tp)
                                 - _factorial_valuation(n - 1, tp))))
                    failure = NonIntegralSolution(
                        f"coefficient c_{n} is not {bad}-integral "
                        f"(operator {op.name or '?'})")
                    break
                Q //= g
            cn = -s % Q
            uw[n % w] = u = p0 // g
            us.append(u)
        else:
            for i in range(1, min(n, d) + 1):
                s += peval(i, n - i) * window[(n - i) % w]
            cn, rem = divmod(-s, p0)
            if rem:
                failure = NonIntegralSolution(
                    f"coefficient c_{n} is not an integer (operator {op.name or '?'})"
                )
                break
            if Q is not None:
                if n in gs:
                    Q //= gs[n]
                    if cn.bit_length() > SWITCH_MARGIN * Q.bit_length():
                        residues, n0 = True, n
                        window = [c % Q for c in window]
                        cn %= Q
            elif can_switch and cn.bit_length() > SWITCH_FLOOR:
                Q = _residue_modulus(live, n, order)
                gs = {}  # m -> g, the part of m^order made of Q's primes
                for tp in {t[3] for t in live}:
                    last = max(t[0] for t in live if t[3] == tp)
                    f, q = tp**order, tp
                    while q <= last:  # each p in m adds order digits to g
                        for m in range(q, last + 1, q):
                            gs[m] = gs.get(m, 1) * f
                        q *= tp
        window[n % w] = cn
        for _tN, m, out, _tp, _tK in live:
            out.append(int(cn % m) if m else int(cn))
    if us:
        for (tp, tK, _tN), out in zip(targets, outs):
            _unscale(out, us, n0, tp**tK)
    # on a failure at degree n, the targets that reach n share it
    results = [failure if failure and tN >= n
               else TruncatedSeries(out) if tp is None
               else TruncatedSeries(out, tp, tK)
               for (tp, tK, tN), out in zip(targets, outs)]
    if batch:
        return results
    if failure:
        raise failure
    return results[0]


# -- theta form <-> monic d/dz form --------------------------------------------


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


# -- self-duality over Z[z] ----------------------------------------------------


def _is_self_dual(op: ThetaOperator) -> bool:
    """T^-1 M^+ T == (-1)^n M in Z[z][theta], for M = sum_i z^i P_i(theta).

    M^+ = sum_i z^i P_i(-theta - i) is the adjoint for z^+ = z, theta^+ = -theta,
    and T is the twist with T^-1 theta T = theta + rho,

        rho = (2 q_(n-1) - n theta(Delta)) / (n Delta),   Delta = q_n.

    This is the classical condition that the monic form, conjugated by
    exp(int a_(n-1)/n) so that its D^(n-1) term vanishes, is self-adjoint
    (n even) or anti-self-adjoint (n odd).  Only rho enters: with
    E_k = (n Delta)^k (theta + rho)^k expanded in Z[z][theta], both sides are
    multiplied by (n Delta)^n and compared coefficient by coefficient.
    """
    n = op.theta_order
    q = [op.z_poly(k) for k in range(n + 1)]
    n_delta = poly_scale(q[n], n)
    n_theta_delta = poly_scale(poly_theta(q[n]), n)
    rho_num = poly_sub(poly_scale(q[n - 1], 2), n_theta_delta)

    # E[k][j] = [theta^j] E_k; E_(k+1) = (n Delta)^(k+1) (theta + rho) E_k / (n Delta)^k
    E: List[List[IntPoly]] = [[[1]]]
    for k in range(n):
        shift = poly_sub(rho_num, poly_scale(n_theta_delta, k))
        nxt: List[IntPoly] = [[] for _ in range(k + 2)]
        for j, e in enumerate(E[k]):
            nxt[j] = poly_add(nxt[j], poly_add(poly_mul(n_delta, poly_theta(e)),
                                               poly_mul(shift, e)))
            nxt[j + 1] = poly_mul(n_delta, e)
        E.append(nxt)

    # M^+ = sum_k s_k(z) x^k at x = theta, s_k = [x^k] sum_i z^i P_i(-x - i)
    adjoint_rows = []
    for i, row in enumerate(op.coeffs):
        acc: IntPoly = []
        for c in reversed(row):  # Horner in x, with theta -> -x - i
            acc = poly_add(poly_mul(acc, [-i, -1]), [c])
        adjoint_rows.append(acc)
    n_delta_pow = [[1]]
    for _ in range(n):
        n_delta_pow.append(poly_mul(n_delta_pow[-1], n_delta))
    weight = [poly_mul(poly_trim([row[k] if k < len(row) else 0
                                  for row in adjoint_rows]), n_delta_pow[n - k])
              for k in range(n + 1)]

    sign = -1 if n % 2 else 1
    for j in range(n + 1):
        lhs: IntPoly = []
        for k in range(j, n + 1):
            lhs = poly_add(lhs, poly_mul(weight[k], E[k][j]))
        if lhs != poly_scale(poly_mul(n_delta_pow[n], q[j]), sign):
            return False
    return True


def check_cy4(op: ThetaOperator) -> bool:
    """Self-duality for order 4: with b = coefficients of the conjugated
    operator D^4 + b_2 D^2 + b_1 D + b_0, the condition is b_1 = b_2'.

    Equivalently, in terms of the monic coefficients,
    a_1 = (1/2) a_2 a_3 - (1/8) a_3^3 + a_2' - (3/4) a_3 a_3' - (1/2) a_3''.
    Decided over Z[z] by ``_is_self_dual``.
    """
    if op.theta_order != 4:
        raise ValueError("check_cy4 expects a fourth-order operator")
    return _is_self_dual(op)


def check_cy5(op: ThetaOperator) -> bool:
    """Self-duality for order 5 (anti-self-adjoint after conjugation):
    with D^5 + c_3 D^3 + c_2 D^2 + c_1 D + c_0, the two conditions are
    c_2 = (3/2) c_3' and c_0 = (1/2) c_1' - (1/4) c_3'''.
    Decided over Z[z] by ``_is_self_dual``.
    """
    if op.theta_order != 5:
        raise ValueError("check_cy5 expects a fifth-order operator")
    return _is_self_dual(op)
