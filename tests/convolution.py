"""A convolution oracle for the a of every cell of a Hadamard product.

A Hadamard product L*R of two second-order families has as its trace a
multiplicative convolution of theirs (Katz, *Rigid local systems*, 1996):

    S_p(z) = sum over x in F_p^* of t_L(x) t_R(z / x),

where x and z/x are the variables of the factors' own series sum A_n x^n
and sum B_n y^n, whose termwise product is f0.  Each trace t is read off the
factor's own series mod p^2, to degree p^2 - 1, by the unit-root method on
the rank-2 factor at s = 2 (``traces``), for p >= 5.  With F_N the series
truncated at degree N:

* at a fibre where the factor's symbol vanishes mod p, t(x) is the balanced
  Hasse residue F_(p-1)(x) mod p;
* else, where F_(p-1)(x) == 0 mod p (a supersingular fibre), t(x) = 0, which
  is exact since |t| <= 2 sqrt(p) < p;
* else u = F_(p^2-1)(alpha) / F_(p-1)(alpha) mod p^2, at the Teichmueller
  lift alpha = x^p of x mod p^2, and t(x) is the balanced residue of
  u + p/u mod p^2.

A cell at z is predicted by c(p) + S_p(z) (``predictions``), with the offset
c(p) = (D/p) (p + 1) for a right factor of ``OFFSET_D`` and c(p) = 0 when
the second factor is hypergeometric (A-D).  The prediction is

* a, at a smooth or reducible cell;
* -(a_p + chi p), at a singular cell;
* within the Weil bound 4 p^(3/2), and divisible by p exactly where f0's
  probe sum_(n<p) A_n B_n z^n vanishes mod p (``probe_vanishes``), at a "-"
  cell.

D is fitted to the catalog, not derived; p = 3 is out, since a supersingular
t there is one of 0 and +-3; b is not predicted.  The oracle shares no code
with the package's series, unit roots or decode: its terms are the closed
forms of ``conftest.sequence_terms``, its symbols the catalog data of
``SECOND_ORDER`` and its truncations plain Horner passes.

Test modules import it as ``from convolution import ...``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from frobcy.catalog import SECOND_ORDER

from conftest import horner_mod, sequence_terms

# right factor -> D of its offset character (D/p)
OFFSET_D = {"a": 1, "b": 1, "c": -3, "f": -3, "g": -3, "h": -3,
            "d": -1, "e": -1, "j": -1, "i": -2}


def closed_forms(names: Iterable[str], top: int) -> Dict[str, List[int]]:
    """Each named factor's terms, by its closed form, to degree top^2 - 1:
    enough for ``predictions`` at every prime p <= top."""
    return {name: sequence_terms(name, top * top - 1) for name in names}


def _balanced(v: int, m: int) -> int:
    v %= m
    return v - m if v > m // 2 else v


def traces(name: str, p: int, forms: Dict[str, List[int]]) -> List[int]:
    """t(x) of the factor ``name`` at x = 0 .. p-1 (t(0) = 0 is unused), from
    its terms in ``forms``, by the rules of the module docstring."""
    m = p * p
    series = [c % m for c in forms[name][:m]]
    # the leading symbol: the theta^2 column of the operator's rows
    symbol = [row[2] if len(row) > 2 else 0 for row in SECOND_ORDER[name].coeffs]
    t = [0] * p
    for x in range(1, p):
        hasse = horner_mod(series[:p], x, p)
        if horner_mod(symbol, x, p) == 0:
            t[x] = _balanced(hasse, p)
        elif hasse:
            alpha = pow(x, p, m)
            u = (horner_mod(series, alpha, m)
                 * pow(horner_mod(series[:p], alpha, m), -1, m) % m)
            t[x] = _balanced(u + p * pow(u, -1, m), m)
    return t


def offset(right: str, p: int) -> int:
    """c(p): (D/p) (p + 1) for a right factor of ``OFFSET_D``, else 0."""
    if right not in OFFSET_D:
        return 0
    return (1 if pow(OFFSET_D[right], (p - 1) // 2, p) == 1 else -1) * (p + 1)


def predictions(left: str, right: str, p: int,
                forms: Dict[str, List[int]]) -> Dict[int, int]:
    """{z: c(p) + S_p(z)} for z in F_p^* of the product of ``left`` and
    ``right``, from their terms in ``forms``."""
    tl, tr, c = traces(left, p, forms), traces(right, p, forms), offset(right, p)
    return {z: c + sum(tl[x] * tr[z * pow(x, -1, p) % p] for x in range(1, p))
            for z in range(1, p)}


def probe_vanishes(left: str, right: str, p: int, z: int,
                   forms: Dict[str, List[int]]) -> bool:
    """Whether f0's probe sum_(n<p) A_n B_n z^n vanishes mod p."""
    terms = [a * b for a, b in zip(forms[left][:p], forms[right][:p])]
    return horner_mod(terms, z, p) == 0
