"""Exterior squares of fourth-order operators.

A fourth-order MUM operator L acts on the rank-4 module with basis
omega, theta omega, theta^2 omega, theta^3 omega.  The induced rank-6
exterior square carries the Leibniz action

    theta (a ^ b) = (theta a) ^ b + a ^ (theta b),

and eta := z * omega ^ (d/dz omega) = omega ^ theta omega generates it.
``wedge_square`` returns the minimal operator Q with Q(eta) = 0, computed
purely by exact linear algebra over Z[z] -- the only route used; no
closed-form product formula enters.  Module vectors are integer coefficient
lists over powers of the leading symbol Delta, kept in lowest Delta-terms by
``polyrat.poly_divide_while``, so theta^k eta = v_k / Delta^(e_k) with v_k
in Z[z]^6 (e = 0, 0, 0, 1, 2, 3 on the catalog), and the relation comes from
fraction-free elimination on the v_k themselves.
Each call builds anew; nothing is memoized.  ``catalog.exterior_square``
calls it for operators that are no catalog product, and loads a product's
stored rows instead.  Built and stored rows alike become the square through
``check_wedge``, which names it and runs the closing checks.  Its input is
an operator that ``classify.check_operator`` admits.
"""

from __future__ import annotations

from typing import List, Tuple

from . import FrobcyError
from .diffop import ThetaOperator, check_cy5, check_mum
from .polyrat import (IntPoly, NoSolution, poly_add, poly_divide_while,
                      poly_exact_div, poly_gcd, poly_mul, poly_pow, poly_scale,
                      poly_sub, poly_theta, solve_linear_system)


class UnexpectedOrder(FrobcyError, ArithmeticError):
    """The minimal operator of eta does not have order 5.

    Order below 5 would mean dependent theta-iterates (kernel of the linear
    system); order 6 — no order-5 relation at all — is what actually occurs
    when the input lacks the order-4 self-duality."""


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


# -- the fifth-order companion ---------------------------------------------------


def wedge_square(op: ThetaOperator) -> ThetaOperator:
    """Minimal monic operator annihilating eta = e_0 ^ e_1, order exactly 5.

    With theta^k eta = v_k / Delta^(e_k) in lowest Delta-terms, the 6x5
    system [v_0 ... v_4] x = v_5 is solved by Bareiss elimination in Z[z];
    scaling a column by a nonzero Delta-power changes neither the system's
    consistency nor the dimension of its kernel.  The relation
    det Delta^(e_5) theta^5 - sum_k X_k Delta^(e_k) theta^k is divided by
    the primitive gcd of its entries in Z[z] and brought to the canonical
    integer form (content 1, positive leading constant).  ``op`` is a
    fourth-order MUM operator, as ``classify.check_operator`` admits; one
    that is not self-dual raises UnexpectedOrder, since its iterates span
    no order-5 relation (or are dependent before order 5).
    """
    delta, action = _module_action(op)
    waction, pairs = _wedge_action(action)
    # theta^k eta = iterates[k] / Delta^exps[k], in lowest Delta-terms
    eta: List[IntPoly] = [[] for _ in pairs]
    eta[pairs.index((0, 1))] = [1]
    iterates, exps = [eta], [0]
    for _ in range(5):
        vec = _theta_step(iterates[-1], exps[-1], delta, waction)
        vec, j = poly_divide_while(vec, delta, exps[-1] + 1)
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

    # det Delta^e5 theta^5 eta - sum_k X_k Delta^ek theta^k eta = 0: divide
    # out the primitive gcd of its entries in Z[z], which holds every common
    # power of Delta and z; ThetaOperator fixes the content and the sign
    relation = [poly_mul(poly_scale(x, -1), poly_pow(delta, e))
                for x, e in zip(numerators, exps)]
    relation.append(poly_mul(det, poly_pow(delta, exps[5])))
    g: IntPoly = []
    for c in relation:
        g = poly_gcd(g, c)
    if len(g) > 1:
        relation = [poly_exact_div(c, g) for c in relation]
    z_deg = max(len(c) for c in relation) - 1
    rows = [[c[i] if i < len(c) else 0 for c in relation]
            for i in range(z_deg + 1)]
    return check_wedge(rows, op)


def check_wedge(rows: List[List[int]], op: ThetaOperator) -> ThetaOperator:
    """The exterior square of ``op`` from its coefficient rows, built or
    stored: the operator ``wedge(<op.name>)``, returned when it has order 5,
    is MUM and passes ``check_cy5``; UnexpectedOrder otherwise, so a stored
    entry of any other order is refused here, not by ``check_cy5``'s
    precondition."""
    out = ThetaOperator(rows, name=f"wedge({op.name})" if op.name else "wedge")
    if out.theta_order != 5 or not check_mum(out) or not check_cy5(out):
        raise UnexpectedOrder("exterior square fails its structural checks")
    return out
