"""Ordinary differential operators in theta form and their series solutions.

An operator is stored as an integer coefficient table for

    L = P_0(theta) + z P_1(theta) + ... + z^d P_d(theta),   theta = z d/dz,

with overall integer content extracted.  The unique normalized power-series
solution of a MUM operator (P_0 = theta^n) is produced by the recurrence

    P_0(n) c_n = - sum_{i>=1} P_i(n - i) c_{n-i},

with exact big integers, every division checked, as the plain list c_0 ..
c_N: exact integers, or residues mod p^K whose p and K the caller keeps.
Each step reads a row of the P_i(m), streamed by forward differences, so no
table of rows is kept.  A caller that knows the series to be integral and
wants it only mod prime powers lets the run leave exact integers for
residues mod a modulus computed before the run, once these are the narrower
(the residue phase).

The self-duality check ``is_self_dual``, which admits a fourth-order
operator and is ``check_cy5`` at order 5, never leaves the theta form: the
operator is compared with its twisted adjoint as coefficient tables in
Z[z][theta], and row by row when the twist is trivial, as it is for every
catalog product and stored catalog wedge.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate, repeat
from math import gcd
from operator import mul, sub
from typing import Iterator, List, Optional, Sequence, Tuple

from . import FrobcyError
from .padic import horner
from .polyrat import (IntPoly, poly_add, poly_mul, poly_scale, poly_sub,
                      poly_theta, poly_trim)

# the series run on Python ints; the benchmark's environment probe reads
# ``diffop.mpz is not int`` to record whether gmpy2 was in use
mpz = int


class NonIntegralSolution(FrobcyError, ArithmeticError):
    """The exact series recurrence produced a non-integer coefficient."""


_DECIMAL = re.compile(r"-?[0-9]+")


def json_int(value: object) -> int:
    """An integer read from JSON: a JSON integer or a decimal string, the
    form ``to_json`` writes; a float, a bool or anything else is a ValueError."""
    if type(value) is int or isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


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
        # the content, every entry past the order being zero; sign
        # convention: the lowest nonzero coefficient of the leading symbol,
        # the theta^order column, positive
        g = gcd(*(c for row in rows for c in row))
        if next(row[order] for row in rows if len(row) > order and row[order]) < 0:
            g = -g
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

    # -- JSON interchange ------------------------------------------------------

    def to_json(self) -> str:
        try:  # str() refuses more digits than ``from_json`` reads back
            return json.dumps({
                "name": self.name,
                "aesz": self.aesz,
                "theta_order": self.theta_order,
                "coeffs": [[str(c) for c in row] for row in self.coeffs],
            }, indent=1)
        except ValueError:
            raise FrobcyError(f"operator {self.name} has a coefficient too "
                              f"long to write in decimal") from None

    @classmethod
    def from_json(cls, text: str) -> "ThetaOperator":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("an operator file holds one JSON object")
        table = data["coeffs"]
        if not isinstance(table, list) or not all(isinstance(row, list)
                                                  for row in table):
            raise ValueError("coeffs must be a list of lists of integers")
        rows = [[json_int(c) for c in row] for row in table]
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"name must be a string, not {name!r}")
        aesz = data.get("aesz")
        op = cls(rows, name=name, aesz=None if aesz is None else json_int(aesz))
        if op.theta_order != json_int(data["theta_order"]):
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
    sym = [c % p for c in reversed(leading_symbol(op))]
    return [z0 for z0 in range(1, p) if horner(sym, z0, p) == 0]


# -- series solutions ---------------------------------------------------------


Target = Tuple[int, int, int]  # (p, K, N): residues mod p^K to degree N

# an integral run leaves exact integers once a coefficient is SWITCH_MARGIN
# times as wide as its residue modulus Q (see solve_series)
SWITCH_MARGIN = 3


def _factorial_valuation(n: int, p: int) -> int:
    """v_p(n!)."""
    v = 0
    while n:
        n //= p
        v += n
    return v


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


def _column(poly: Sequence[int], m: int) -> Iterator[int]:
    """P(m), P(m + 1), ... without end, by forward differences.  The first
    deg P + 1 values give the head Delta^k P(m) of the difference table;
    Delta^(deg P) P is constant, and each Delta^k P below it is the running
    sum of Delta^(k+1) P from Delta^k P(m)."""
    deg = max((j for j, c in enumerate(poly) if c), default=0)
    values = [sum(c * x**j for j, c in enumerate(poly))
              for x in range(m, m + deg + 1)]
    head = []
    while values:
        head.append(values[0])
        values = list(map(sub, values[1:], values))
    col = repeat(head.pop())
    for h in reversed(head):
        col = accumulate(col, initial=h)
    return col


def solve_series(op: ThetaOperator, N: int, *,
                 targets: Optional[Sequence[Target]] = None,
                 integral: bool = False):
    """Normalized solution c_0 = 1 of a MUM operator, truncated at degree N.

    The recurrence runs on exact big integers; every division must be exact
    (NonIntegralSolution otherwise).  A step reads the row (P_1(n-1), ...,
    P_w(n-w)) against the window c_(n-1), ..., c_(n-w).  Each column
    P_i(1-i), P_i(2-i), ... is streamed by forward differences from its
    first deg P_i + 1 values (``_column``), so the rows are made as the run
    reads them and none is kept.  Without ``targets`` the result is the
    exact list c_0 .. c_N, and a failure raises.

    ``targets`` batches one run for several truncations: a list of
    (p, K, N_t) with N_t <= N, whose coefficients are stored reduced mod p^K
    while only the trailing window needed by the recurrence stays exact.
    One run to N appends each finished c_n mod p^K to the list of every
    target with n <= N_t, one record (N_t, p^K, list) each.  The result is
    a list aligned with ``targets``: for each, its list of residues, or the
    NonIntegralSolution that a one-target run would give (a target ending
    below the first non-integral coefficient is still returned).  The exact
    list is the call without ``targets``.

    ``integral`` is the caller's word that the series has integer
    coefficients; with it, a batch may leave exact integers (the residue
    phase).  Q is the product, computed once, of the p^M_p over the target
    primes: M_p = K + order v_p(N_t!), the largest over p's targets, is K
    and what the divisions by n^order use up.  Once a coefficient is
    SWITCH_MARGIN times as wide as Q in bits (tested at the multiples of a
    target prime), the run computes residues X_n = D_n c_n mod Q instead.
    A step writes n^order = g u, with g made of the target primes up to
    their last N_t: u, prime to every prime whose targets still run, joins
    the scale D_n = u D_(n-1) instead of being divided out, and the division
    by g is exact and checked, so a coefficient that is not p-integral at a
    target prime still raises NonIntegralSolution (integrality at other
    primes is not checked there).  The window holds X_(n-i) D_(n-1) /
    D_(n-i), each older entry taking the step's u, so both phases share the
    step's sum.  Q then drops the digits of g, and changes in no other way.
    Each target's residues are unscaled at the end, with one modular
    inverse of D_N mod p^K.
    """
    if not check_mum(op):
        raise ValueError("series solving requires a MUM operator")
    if N < 0:
        raise ValueError("truncation order must be >= 0")
    batch = targets is not None
    if not batch:
        targets = [(None, None, N)]
    for _tp, _tK, tN in targets:
        if not 0 <= tN <= N:
            raise ValueError(f"target order {tN} outside 0 .. {N}")
    # (N_t, modulus or None, coefficient list) of each target, in order
    runs = [(tN, None if tp is None else tp**tK, [1]) for tp, tK, tN in targets]
    w = max(op.z_degree, 1)
    order = op.theta_order
    # P_0(n) and the row (P_1(n-1), ..., P_w(n-w)) of each degree n >= 1
    cols = [_column(op.theta_poly(i), 1 - i) for i in range(w + 1)]
    window = [1] + [0] * (w - 1)  # c_(n-1), ..., c_(n-w)
    Q = 1  # the residue modulus of an integral run of residue targets
    gs: dict = {}  # m -> g, the part of m^order made of the target primes
    if integral and batch:
        for tp in {tp for tp, _, _ in targets}:
            own = [(tK, tN) for p, tK, tN in targets if p == tp]
            last = max(tN for _tK, tN in own)
            Q *= tp**max(tK + order * _factorial_valuation(tN, tp)
                         for tK, tN in own)
            f, q = tp**order, tp
            while q <= last:  # each p in m adds order digits to g
                for m in range(q, last + 1, q):
                    gs[m] = gs.get(m, 1) * f
                q *= tp
    residues = False  # whether the window holds X_(n-i) D_(n-1) / D_(n-i)
    us: List[int] = []  # u_n of each residue step; D_n is their product
    failure = None
    for n, lead, row in zip(range(1, N + 1), cols[0], zip(*cols[1:])):
        s = sum(map(mul, row, window))
        if residues:
            g = gs.get(n, 1)
            if g > 1:
                s, rem = divmod(s, g)
                if rem:
                    bad = next(tp for tp, _tK, tN in targets if tN >= n
                               and rem % tp ** (order * (
                                   _factorial_valuation(n, tp)
                                   - _factorial_valuation(n - 1, tp))))
                    failure = NonIntegralSolution(
                        f"coefficient c_{n} is not {bad}-integral "
                        f"(operator {op.name or '?'})")
                    break
                Q //= g
            cn = -s % Q
            u = lead // g
            us.append(u)
            window = [cn] + [y * u for y in window[:-1]]
        else:
            cn, rem = divmod(-s, lead)
            if rem:
                failure = NonIntegralSolution(
                    f"coefficient c_{n} is not an integer (operator {op.name or '?'})"
                )
                break
            if n in gs:
                Q //= gs[n]
                if cn.bit_length() > SWITCH_MARGIN * Q.bit_length():
                    residues, n0 = True, n
                    window = [c % Q for c in window]
                    cn %= Q
            window = [cn] + window[:-1]
        for tN, m, out in runs:
            if n <= tN:
                out.append(cn % m if m else cn)
    if us:
        for _tN, m, out in runs:
            _unscale(out, us, n0, m)
    # on a failure at degree n, the targets that reach n share it
    results = [failure if failure and tN >= n else out for tN, _m, out in runs]
    if batch:
        return results
    if failure:
        raise failure
    return results[0]


# -- self-duality over Z[z] ----------------------------------------------------


def is_self_dual(op: ThetaOperator) -> bool:
    """T^-1 M^+ T == (-1)^n M in Z[z][theta], for M = sum_i z^i P_i(theta).

    M^+ = sum_i z^i P_i(-theta - i) is the adjoint for z^+ = z, theta^+ = -theta,
    and T is the twist with T^-1 theta T = theta + rho,

        rho = (2 q_(n-1) - n theta(Delta)) / (n Delta),   Delta = q_n.

    This is the classical condition that the monic form, conjugated by
    exp(int a_(n-1)/n) so that its D^(n-1) term vanishes, is self-adjoint
    (n even) or anti-self-adjoint (n odd).  Only rho enters: with
    E_k = (n Delta)^k (theta + rho)^k expanded in Z[z][theta], both sides are
    multiplied by (n Delta)^n and compared coefficient by coefficient.

    When rho's numerator is zero, T = 1 and E_k = (n Delta)^k theta^k, so
    the two sides agree iff M^+ = (-1)^n M once the nonzero (n Delta)^n is
    cancelled, that is iff P_i(-theta - i) = (-1)^n P_i(theta) for every
    row i: the rows are compared as they are, and no E_k is expanded.
    """
    n = op.theta_order
    sign = -1 if n % 2 else 1
    # M^+ = sum_k s_k(z) x^k at x = theta, s_k = [x^k] sum_i z^i P_i(-x - i)
    adjoint_rows = []
    for i, row in enumerate(op.coeffs):
        acc: IntPoly = []
        for c in reversed(row):  # Horner in x, with theta -> -x - i
            acc = poly_add(poly_mul(acc, [-i, -1]), [c])
        adjoint_rows.append(acc)
    q = [op.z_poly(k) for k in range(n + 1)]
    n_delta = poly_scale(q[n], n)
    n_theta_delta = poly_scale(poly_theta(q[n]), n)
    rho_num = poly_sub(poly_scale(q[n - 1], 2), n_theta_delta)
    if not rho_num:
        return all(adjoint == poly_trim(poly_scale(row, sign))
                   for adjoint, row in zip(adjoint_rows, op.coeffs))

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

    n_delta_pow = [[1]]
    for _ in range(n):
        n_delta_pow.append(poly_mul(n_delta_pow[-1], n_delta))
    weight = [poly_mul(poly_trim([row[k] if k < len(row) else 0
                                  for row in adjoint_rows]), n_delta_pow[n - k])
              for k in range(n + 1)]

    for j in range(n + 1):
        lhs: IntPoly = []
        for k in range(j, n + 1):
            lhs = poly_add(lhs, poly_mul(weight[k], E[k][j]))
        if lhs != poly_scale(poly_mul(n_delta_pow[n], q[j]), sign):
            return False
    return True


def check_cy5(op: ThetaOperator) -> bool:
    """Self-duality for order 5 (anti-self-adjoint after conjugation):
    with D^5 + c_3 D^3 + c_2 D^2 + c_1 D + c_0, the two conditions are
    c_2 = (3/2) c_3' and c_0 = (1/2) c_1' - (1/4) c_3'''.
    Decided over Z[z] by ``is_self_dual``.
    """
    if op.theta_order != 5:
        raise ValueError("check_cy5 expects a fifth-order operator")
    return is_self_dual(op)
