"""The operator catalog: 14 second-order operators, their integer sequences,
and the 24 fourth-order Hadamard products studied by the rest of the package.

Each second-order operator theta^2 - x (mu m(theta)) + kappa x^2 (theta+1)^2
annihilates the generating function of an explicit binomial-sum sequence; the
Hadamard (coefficientwise) product of two such series is annihilated by the
fourth-order operator

    theta^4 - lam mu x P(theta) m(theta) + kappa lam^2 x^2 P(theta) P(theta+1),

where theta^2 - lam x P(theta) is the left factor.  The catalog stores every
product in this factored-integer form together with its database number and
the labels of the modular forms attached to distinguished singular points; the
rational roots of its leading symbol are found when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, List, Tuple

from .diffop import NonIntegralSolution, ThetaOperator, leading_symbol, solve_series
from .polyrat import poly_mul, rational_roots


# -- left factors: theta^2 - lam x P(theta), P a product of two linear terms ----

# name -> (lam, P(theta) ascending, P(theta+1) ascending)
_LEFT: Dict[str, Tuple[int, List[int], List[int]]] = {
    "A": (4, poly_mul([1, 2], [1, 2]), poly_mul([3, 2], [3, 2])),    # (2t+1)^2
    "B": (3, poly_mul([1, 3], [2, 3]), poly_mul([4, 3], [5, 3])),    # (3t+1)(3t+2)
    "C": (4, poly_mul([1, 4], [3, 4]), poly_mul([5, 4], [7, 4])),    # (4t+1)(4t+3)
    "D": (12, poly_mul([1, 6], [5, 6]), poly_mul([7, 6], [11, 6])),  # (6t+1)(6t+5)
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
    if name in _LEFT:
        lam, pair, _ = _LEFT[name]
        return ThetaOperator([[0, 0, 1], [-lam * c for c in pair]], name=name)
    mu, mid, kappa = _RIGHT[name]
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
    lam, pair, pair1 = _LEFT[left]
    mu, mid, kappa = _RIGHT[right]
    row1 = [-lam * mu * c for c in poly_mul(pair, mid)]
    row2 = [kappa * lam * lam * c for c in poly_mul(pair, pair1)]
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

# distinguished singular points carrying an identified eta-product form
_SPECIAL_POINTS: Dict[str, Dict[Fraction, str]] = {
    "A*a": {Fraction(-1, 16): "8/1"},
    "B*d": {Fraction(1, 216): "9/1"},
}


@dataclass(frozen=True)
class CatalogEntry:
    """One fourth-order product operator with its bookkeeping data."""

    name: str
    aesz: int
    left: str
    right: str
    operator: ThetaOperator
    special_points: Dict[Fraction, str] = field(default_factory=dict)

    @property
    def singular_points(self) -> Tuple[Fraction, ...]:
        """The rational roots of the leading symbol, ascending.

        Computed on each read, so that importing the catalog runs no root
        search; only the ``catalog`` listing reads them.
        """
        roots, _ = rational_roots(leading_symbol(self.operator))
        return tuple(sorted(r for r, _m in roots))


def _build_entry(left: str, right: str) -> CatalogEntry:
    name = f"{left}*{right}"
    return CatalogEntry(
        name=name, aesz=_AESZ[name], left=left, right=right,
        operator=product_operator(left, right),
        special_points=dict(_SPECIAL_POINTS.get(name, {})),
    )


CATALOG: Dict[str, CatalogEntry] = {
    f"{left}*{right}": _build_entry(left, right)
    for right in ("a", "b", "c", "d", "f", "g")
    for left in ("A", "B", "C", "D")
}


def catalog() -> List[CatalogEntry]:
    """All 24 product entries, grouped by right factor then left factor."""
    return list(CATALOG.values())


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; expected one of {', '.join(CATALOG)}"
        ) from None


# -- the integer sequences --------------------------------------------------------


def _central_sum(x: Fraction, y: Fraction, scale: int) -> Callable[[int], Fraction]:
    """n -> scale^n * sum_k (-1)^k binom(-x, k) binom(-y, n-k)^2, with the
    binomial columns built incrementally."""
    def term(n: int) -> Fraction:
        bx, by = Fraction(1), Fraction(1)
        bxs, bys = [bx], [by]
        for k in range(1, n + 1):
            bx = bx * (-x - (k - 1)) / k
            by = by * (-y - (k - 1)) / k
            bxs.append(bx)
            bys.append(by)
        s = Fraction(0)
        for k in range(n + 1):
            t = bxs[k] * bys[n - k] ** 2
            s += -t if k & 1 else t
        return Fraction(scale) ** n * s
    return term


_CLOSED_FORMS: Dict[str, Callable[[int], object]] = {
    "A": lambda n: comb(2 * n, n) ** 2,
    "B": lambda n: factorial(3 * n) // factorial(n) ** 3,
    "C": lambda n: factorial(4 * n) // (factorial(2 * n) * factorial(n) ** 2),
    "D": lambda n: factorial(6 * n) // (factorial(3 * n) * factorial(2 * n)
                                        * factorial(n)),
    "a": lambda n: sum(comb(n, k) ** 3 for k in range(n + 1)),
    "b": lambda n: sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1)),
    "c": lambda n: sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1)),
    "d": lambda n: sum(comb(n, k) * comb(2 * k, k) * comb(2 * (n - k), n - k)
                       for k in range(n + 1)),
    "f": lambda n: sum((-1) ** k * 3 ** (n - 3 * k) * comb(n, 3 * k)
                       * factorial(3 * k) // factorial(k) ** 3
                       for k in range(n // 3 + 1)),
    "g": lambda n: sum(8 ** (n - i) * (-1) ** i * comb(n, i) * comb(i, j) ** 3
                       for i in range(n + 1) for j in range(i + 1)),
    "e": _central_sum(Fraction(1, 2), Fraction(1, 2), 16),
    "h": _central_sum(Fraction(2, 3), Fraction(1, 3), 27),
    "i": _central_sum(Fraction(3, 4), Fraction(1, 4), 64),
    "j": _central_sum(Fraction(5, 6), Fraction(1, 6), 432),
}

_CENTRAL_PARAMS: Dict[str, Tuple[Fraction, Fraction, int]] = {
    "e": (Fraction(1, 2), Fraction(1, 2), 16),
    "h": (Fraction(2, 3), Fraction(1, 3), 27),
    "i": (Fraction(3, 4), Fraction(1, 4), 64),
    "j": (Fraction(5, 6), Fraction(1, 6), 432),
}


def sequence_term(name: str, n: int) -> int:
    """n-th term of a catalog sequence by its closed binomial-sum form."""
    if name not in _CLOSED_FORMS:
        raise KeyError(f"unknown sequence {name!r}")
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    value = _CLOSED_FORMS[name](n)
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise NonIntegralSolution(f"{name}({n}) = {value} is not an integer")
        return value.numerator
    return int(value)


def sequence_terms(name: str, N: int) -> List[int]:
    """Terms 0..N by the closed form.

    Subexpressions that do not depend on the outer index (g's inner cube sum,
    d's central binomials) are computed once and shared; the formulas
    themselves are evaluated literally.
    """
    if name == "g":
        inner = [sum(comb(i, j) ** 3 for j in range(i + 1)) for i in range(N + 1)]
        pow8 = [8 ** m for m in range(N + 1)]
        out = []
        for n in range(N + 1):
            bni = 1
            acc = 0
            for i in range(n + 1):
                if i:
                    bni = bni * (n - i + 1) // i
                term = pow8[n - i] * bni * inner[i]
                acc += -term if i & 1 else term
            out.append(acc)
        return out
    if name == "d":
        central = [comb(2 * k, k) for k in range(N + 1)]
        out = []
        for n in range(N + 1):
            bnk = 1
            acc = 0
            for k in range(n + 1):
                if k:
                    bnk = bnk * (n - k + 1) // k
                acc += bnk * central[k] * central[n - k]
            out.append(acc)
        return out
    if name in _CENTRAL_PARAMS:  # share the binomial columns across terms
        x, y, scale = _CENTRAL_PARAMS[name]
        bxs, bys = [Fraction(1)], [Fraction(1)]
        for k in range(1, N + 1):
            bxs.append(bxs[-1] * (-x - (k - 1)) / k)
            bys.append(bys[-1] * (-y - (k - 1)) / k)
        bys2 = [b * b for b in bys]
        out = []
        power = Fraction(1)
        for n in range(N + 1):
            s = Fraction(0)
            for k in range(n + 1):
                t = bxs[k] * bys2[n - k]
                s += -t if k & 1 else t
            value = power * s
            if value.denominator != 1:
                raise NonIntegralSolution(f"{name}({n}) = {value} is not an integer")
            out.append(value.numerator)
            power *= scale
        return out
    return [sequence_term(name, n) for n in range(N + 1)]


def sequence_terms_via_recurrence(name: str, N: int) -> List[int]:
    """Terms 0..N by running the operator recurrence (independent route)."""
    if name not in SECOND_ORDER:
        raise KeyError(f"unknown sequence {name!r}")
    return solve_series(SECOND_ORDER[name], N).coeffs
