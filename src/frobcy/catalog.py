"""The operator catalog: 14 second-order operators, their integer sequences,
and the 24 fourth-order Hadamard products studied by the rest of the package.

Each second-order operator theta^2 - x (mu m(theta)) + kappa x^2 (theta+1)^2
annihilates the generating function of an explicit binomial-sum sequence; the
Hadamard (coefficientwise) product of two such series is annihilated by the
fourth-order operator

    theta^4 - lam mu x P(theta) m(theta) + kappa lam^2 x^2 P(theta) P(theta+1),

where theta^2 - lam x P(theta), the form above with mu m = lam P and
kappa = 0, is the left factor.  ``CATALOG`` maps each product's name, left
factor then right factor, to its operator in this factored-integer form,
with its database number; ``SPECIAL_POINTS`` labels the modular forms
attached to distinguished singular points.  The rational roots of a
leading symbol are found only by the ``catalog`` listing.

So a product's coefficients are c_n = A_n B_n.  ``sequence_residues`` is
the one route to a catalog sequence mod p^K at (p, K, N) targets, for a
product's own series (``operator_series``), ``frobcy congruence`` and the
Legendre period, left factor A: a right factor from one run of its
recurrence, a left factor stepped as a p-adic valuation and a unit
(``left_factor_residues``).  The 24 products share 6 right and 4 left
factors, so one memo per process, a slot per second-order operator, keeps
them by (factor, targets): a sweep builds each once per batch, in any order.
``operator_series`` also dispatches the exterior square's series.  The
products' squares depend only on the catalog, so they ship as data
(``data/catalog_wedges.json``): ``exterior_square`` loads a product's rows
and builds any other operator's, anew on every call, and ``check_wedge``
names and checks either kind the same way.  Both series of a catalog
product are known to be integral, so its runs may leave exact integers for
residues mod a shrinking product of target prime powers
(``solve_series(..., integral=True)``); other operators keep the fully
checked exact run.  A product is known by its coefficients,
whatever its name, so an operator file holding one takes both routes.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, List, Tuple

from .diffop import ThetaOperator, solve_series
from .polyrat import poly_mul
from .wedge import check_wedge, wedge_square


# -- left factors: theta^2 - lam x P(theta), P a product of two linear terms ----

# name -> (lam, P(theta) ascending); ``product_operator`` derives P(theta+1)
_LEFT: Dict[str, Tuple[int, List[int]]] = {
    "A": (4, poly_mul([1, 2], [1, 2])),   # (2t+1)^2
    "B": (3, poly_mul([1, 3], [2, 3])),   # (3t+1)(3t+2)
    "C": (4, poly_mul([1, 4], [3, 4])),   # (4t+1)(4t+3)
    "D": (12, poly_mul([1, 6], [5, 6])),  # (6t+1)(6t+5)
}

# -- right factors: theta^2 - mu x m(theta) + kappa x^2 (theta+1)^2 --------------

# name -> (mu, m(theta) ascending quadratic, kappa)
_RIGHT: Dict[str, Tuple[int, List[int], int]] = {
    "a": (1, [2, 7, 7], -8),
    "b": (1, [3, 11, 11], -1),
    "c": (1, [3, 10, 10], 9),
    "d": (4, [1, 3, 3], 32),
    "f": (3, [1, 3, 3], 27),
    "g": (1, [6, 17, 17], 72),
    "e": (1, [12, 32, 32], 256),
    "h": (1, [21, 54, 54], 729),
    "i": (1, [52, 128, 128], 4096),
    "j": (1, [372, 864, 864], 186624),
}

_SHIFTED_SQUARE = poly_mul([1, 1], [1, 1])  # (theta+1)^2


def _second_order(name: str) -> ThetaOperator:
    mu, mid, kappa = _RIGHT[name] if name in _RIGHT else (*_LEFT[name], 0)
    return ThetaOperator(
        [[0, 0, 1],
         [-mu * c for c in mid],
         [kappa * c for c in _SHIFTED_SQUARE]],
        name=name,
    )


SECOND_ORDER: Dict[str, ThetaOperator] = {
    name: _second_order(name) for name in list(_LEFT) + list(_RIGHT)
}


def product_operator(left: str, right: str) -> ThetaOperator:
    """Fourth-order annihilator of the Hadamard product, factored-integer form."""
    lam, pair = _LEFT[left]
    mu, mid, kappa = _RIGHT[right]
    c0, c1, c2 = pair
    shifted = [c0 + c1 + c2, c1 + 2 * c2, c2]  # P(theta+1)
    row1 = [-lam * mu * c for c in poly_mul(pair, mid)]
    row2 = [kappa * lam * lam * c for c in poly_mul(pair, shifted)]
    name = f"{left}*{right}"
    return ThetaOperator([[0, 0, 0, 0, 1], row1, row2], name=name,
                         aesz=_AESZ.get(name))


# database numbers of the 24 products
_AESZ: Dict[str, int] = {
    "A*a": 45, "B*a": 15, "C*a": 68, "D*a": 62,
    "A*b": 25, "B*b": 24, "C*b": 51, "D*b": 63,
    "A*c": 58, "B*c": 70, "C*c": 69, "D*c": 64,
    "A*d": 36, "B*d": 48, "C*d": 38, "D*d": 65,
    "A*f": 133, "B*f": 134, "C*f": 135, "D*f": 136,
    "A*g": 137, "B*g": 138, "C*g": 139, "D*g": 140,
}

# distinguished singular points carrying an identified eta-product form:
# name -> {point, as ``frobcy catalog`` prints it: form label}
SPECIAL_POINTS: Dict[str, Dict[str, str]] = {
    "A*a": {"-1/16": "8/1"},
    "B*d": {"1/216": "9/1"},
}

# the 24 products, grouped by right factor then left factor
CATALOG: Dict[str, ThetaOperator] = {
    f"{left}*{right}": product_operator(left, right)
    for right in "abcdfg"
    for left in "ABCD"
}

# operator -> its catalog name: a product is recognised by its coefficients
# (``ThetaOperator`` hashes and compares by them), whatever its own name
_PRODUCT_NAMES: Dict[ThetaOperator, str] = {op: name for name, op in CATALOG.items()}


# -- the integer sequences --------------------------------------------------------


# terms of ``left_factor_residues`` that share one inverse
_BLOCK = 4096


def left_factor_residues(left: str, p: int, K: int, N: int) -> List[int]:
    """A_n mod p^K for n = 0 .. N of a left factor, n^2 A_n = lam P(n-1)
    A_(n-1): stepped as A_n = p^v u with u a unit mod p^K, so no digit is
    lost.  Each block of ``_BLOCK`` terms takes one inverse, that of the
    product of its p-free denominators, and walks back through the block:
    times each denominator in turn, it is the inverse of every prefix
    product.  So the scratch lists hold one block, not N terms."""
    lam, pair = _LEFT[left]
    pK, out, v, u = p**K, [1] * (N + 1), 0, 1
    for start in range(1, N + 1, _BLOCK):
        # p^v times u before its division, each p-free denominator, and d
        # the product of the denominators so far
        terms, dens, d = [], [], 1
        for n in range(start, min(start + _BLOCK, N + 1)):
            num, den = lam * (pair[0] + (n - 1) * (pair[1] + (n - 1) * pair[2])), n * n
            while num % p == 0:
                num, v = num // p, v + 1
            while den % p == 0:
                den, v = den // p, v - 1
            u, d = u * num % pK, d * den % pK
            terms.append(u * p**v if v < K else 0)
            dens.append(den)
        inv = pow(d, -1, pK)
        u = u * inv % pK
        for i in range(len(terms) - 1, -1, -1):
            out[start + i] = terms[i] * inv % pK
            inv = inv * dens[i] % pK
    return out


@lru_cache(maxsize=len(SECOND_ORDER))
def _factor_residues(name: str, targets: tuple) -> list:
    """``sequence_residues`` of one factor, memoized per process: one slot
    per second-order operator, the least recently used dropped first."""
    if name in _LEFT:
        return [left_factor_residues(name, *target) for target in targets]
    return solve_series(SECOND_ORDER[name], max(t[2] for t in targets),
                        targets=targets, integral=True)


def sequence_residues(name: str, targets: tuple) -> list:
    """c_0 .. c_N mod p^K of the catalog sequence ``name`` at each (p, K, N)
    target of a tuple: a list aligned with ``targets``.  A left factor is
    stepped (``left_factor_residues``), a right factor is one integral
    ``solve_series`` batch, both memoized, so callers must not change their
    lists; a product, named left*right, multiplies its factors' lists."""
    if name in SECOND_ORDER:
        return _factor_residues(name, targets)
    rows = zip(targets, *(_factor_residues(f, targets) for f in name.split("*")))
    return [[x * y % p**K for x, y in zip(a, b)] for (p, K, _), a, b in rows]


@lru_cache(maxsize=None)
def _stored_wedges() -> Dict[str, list]:
    """Name -> coefficient rows of its exterior square, read on first use."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog_wedges.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["wedges"]


def exterior_square(op: ThetaOperator) -> ThetaOperator:
    """``wedge_square(op)``: for a catalog product (same coefficients,
    whatever its name) its stored rows, made into ``op``'s square by
    ``check_wedge`` as built rows are, so a damaged entry raises
    UnexpectedOrder; for any other operator built.  Not memoized: each call
    loads or builds anew."""
    product = _PRODUCT_NAMES.get(op)
    if product is None:
        return wedge_square(op)
    return check_wedge(_stored_wedges()[product], op)


def operator_series(op: ThetaOperator, targets, wedge: bool = False) -> list:
    """The residues mod p^K, to degree p^K - 1, of the normalized solution
    of ``op``, or of its exterior square when ``wedge`` is true, at every
    (p, K) target: one ``solve_series`` batch, a list aligned with
    ``targets`` of residue lists (or the NonIntegralSolution of a target).

    A catalog product (same coefficients, whatever its name) has an integer
    series: the Hadamard product of its factors' integer sequences, from
    ``sequence_residues``; the runs of both roles, of itself and of its
    ``exterior_square``, may leave exact integers (``integral``).  Any other
    operator runs the exact recurrence.  For the exterior square the grant
    is an observation, not a theorem: its series is w = f0^2 theta(q)/q,
    integral when the mirror map q = z exp(g/f0) is.  That is one of the
    defining conditions of a Calabi-Yau operator in the AESZ list, but it is
    not proven here for every catalog product.  The exact runs of the full
    ``table`` sweep (p = 3 .. 17, to N = 4912) all came out integral.
    Beyond the N it reaches, a denominator at a prime that is no target
    goes unchecked: the residues at the targets stay right, but no
    NonIntegralSolution is raised for it."""
    full = tuple((p, K, p**K - 1) for p, K in targets)
    N = max(t[2] for t in full)
    product = _PRODUCT_NAMES.get(op)
    if wedge or product is None:
        return solve_series(exterior_square(op) if wedge else op, N,
                            targets=full, integral=product is not None)
    return sequence_residues(product, full)
