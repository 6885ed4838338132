"""Classification of Frobenius quartics over the catalog, and the eta-product
forms attached to split points.

Every ordinary point yields integers (a, b) and the split tag of
``frobenius.decode_frobenius``, whose docstring names the shapes of the
quartic; ``classify_ab`` reads the tag and the pair as a cell: smooth
"(a,b)", reducible "(a,b)'", split/singular "(a,b)*", or inconsistent
"(a,b)!" for a pair of no admissible shape, reported rather than silently
passed off as smooth.  A point outside the unit disk of either series is
the cell "-".

Each cell is one immutable ``PointClass``, built once by ``classify_operator``.

The a_p at split points are matched against stored forms: first the
built-in eta products, expanded from their factors once per prime,

    8/1:  eta(q^2)^4 eta(q^4)^4 = q - 4q^3 - 2q^5 + 24q^7 - ...
    9/1:  eta(q^3)^8           = q - 8q^4 + 20q^7 - ...

then the JSON fixtures in FROBCY_FORMS_DIR, read once per process.

``check_operator`` holds every refusal of an operator, due before any
series; the command line calls it where it loads an operator.
``classify_operator``, the one row pipeline, expects an operator it admits.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from math import isqrt
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import UsageError, read_input
from .congruence import OutsideUnitDisk
from .diffop import (ThetaOperator, is_self_dual, json_int,
                     symbol_roots_mod_p)
from .frobenius import (Uncertified, assemble_frobenius, required_precision,
                        unit_roots, weil_verify)
from .padic import is_odd_prime
from .series import cache_series

FORMS_DIR_ENV = "FROBCY_FORMS_DIR"


# -- stored forms -------------------------------------------------------------------


def eta_expansion(factors: Sequence[Tuple[int, int]], N: int) -> List[int]:
    """q-expansion coefficients c_0 .. c_N of prod eta(q^m)^e over the
    factors ((m, e), ...), whose leading power q^(sum m e / 24) must be
    integral: that power times (1 - q^k)^e for k = m, 2m, ... <= N, each
    factor multiplied out in place, top degree first."""
    total = sum(m * e for m, e in factors)
    if total % 24:
        raise ValueError("eta product with fractional leading power")
    out, shift = [0] * (N + 1), total // 24
    if shift <= N:
        out[shift] = 1
    for m, e in factors:
        for k in range(m, N + 1, m):
            for _ in range(e):
                for j in range(N, k - 1, -1):
                    out[j] -= out[j - k]
    return out


BUILTIN_FORMS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "8/1": ((2, 4), (4, 4)),
    "9/1": ((3, 8),),
}


@lru_cache(maxsize=None)
def _external_forms(directory: Optional[str]
                    ) -> Tuple[Tuple[str, Dict[int, int]], ...]:
    """(label, {p: a_p}) for every JSON fixture in ``directory`` (none when
    it is unset or empty), in file-name order, each read once by
    ``read_input``.  A ``directory`` that is not one is a UsageError naming
    it.  A fixture holds a non-empty string ``label`` and an object ``ap``
    from odd primes to integers; other fields are ignored.  One that cannot
    be read or breaks that shape is a UsageError naming the file."""
    if not directory:
        return ()
    if not os.path.isdir(directory):
        raise UsageError(f"{FORMS_DIR_ENV} {directory!r} is not a directory")

    def parse_fixture(text: str) -> Tuple[str, Dict[int, int]]:
        data = json.loads(text)
        label = data["label"]
        ap = {json_int(k): json_int(v) for k, v in data["ap"].items()}
        if not isinstance(label, str) or not label:
            raise ValueError(f"field 'label' must be a non-empty string, "
                             f"not {label!r}")
        for p in ap:
            if not is_odd_prime(p):
                raise ValueError(f"field 'ap' has key {p}, not an odd prime")
        return label, ap

    return tuple(read_input(path, "form fixture", parse_fixture)
                 for path in sorted(Path(directory).glob("*.json")))


@lru_cache(maxsize=None)
def _stored_ap(p: int, directory: Optional[str]
               ) -> Tuple[Tuple[str, Optional[int]], ...]:
    """(label, a_p) of every stored form at p, in lookup order: the built-in
    eta products, then the fixtures in ``directory`` (None where a fixture
    stores no a_p)."""
    builtin = tuple((label, eta_expansion(factors, p)[p])
                    for label, factors in BUILTIN_FORMS.items())
    return builtin + tuple((label, table.get(p))
                           for label, table in _external_forms(directory))


def match_singular_ap(p: int, ap: int) -> Optional[str]:
    """Label of the first stored form whose p-th coefficient equals ap, or
    None: the built-in eta products are tried first, then the fixtures in
    the directory named by the FROBCY_FORMS_DIR environment variable."""
    stored = _stored_ap(p, os.environ.get(FORMS_DIR_ENV))
    return next((label for label, c in stored if c == ap), None)


# -- point classification -----------------------------------------------------------


class PointClass(NamedTuple):
    """Classification of one cell z0 of a row, built once.

    It holds what varies by cell; the row's group holds its operator and p.
    ``status`` is smooth, reducible, singular, inconsistent or undefined;
    ``escalated`` marks a cell certified only above the row's starting
    precision, ``s`` the precision p^s the cell was settled at, and ``r1``,
    ``rh`` the unit roots mod p^s of the operator and of its exterior square
    (None when undefined).
    """

    z0: int
    status: str
    at_singular_fiber: bool
    a: Optional[int] = None
    b: Optional[int] = None
    alpha: Optional[int] = None
    beta: Optional[int] = None
    chi: Optional[int] = None
    ap: Optional[int] = None
    form: Optional[str] = None
    escalated: bool = False
    s: Optional[int] = None
    r1: Optional[int] = None
    rh: Optional[int] = None

    def cell(self) -> str:
        """Compact table cell: (a,b) / (a,b)' / (a,b)* / (a,b)! / - ."""
        if self.status == "undefined":
            return "-"
        mark = {"smooth": "", "reducible": "'", "singular": "*",
                "inconsistent": "!"}[self.status]
        return f"({self.a},{self.b}){mark}"


def classify_ab(a: int, b: int, p: int, at_singular_fiber: bool,
                split: Optional[Tuple[int, int]]) -> PointClass:
    """Classify a certified pair (a, b) with its split tag (no series work):
    a tag (chi, a_p) is singular, with its form looked up; an untagged pair
    that fails ``weil_verify`` is inconsistent; a Weil-shape pair is
    reducible when a^2 - 4 (b p - 2 p^3) = r^2, with alpha, beta =
    (a +- r) / 2, and smooth otherwise."""
    pc = PointClass(z0=0, status="smooth",
                    at_singular_fiber=at_singular_fiber, a=a, b=b)
    if split is not None:
        chi, ap = split
        return pc._replace(status="singular", chi=chi, ap=ap,
                           form=match_singular_ap(p, ap))
    if not weil_verify(a, b, p):
        return pc._replace(status="inconsistent")
    disc = a * a - 4 * (b * p - 2 * p**3)
    r = isqrt(disc)
    if r * r == disc:
        return pc._replace(status="reducible", alpha=(a + r) // 2,
                           beta=(a - r) // 2)
    return pc


def check_operator(op: ThetaOperator) -> None:
    """Raise the UsageError, naming ``op``, that refuses every row of it
    before any series: no theta^0 term in any row (L = M theta, so its
    series is the constant 1 and no cell can be right), an order other than
    4 or a P_0 other than theta^4, no self-duality (its exterior square
    would have no order-5 relation), or a broken form fixture in the
    directory named by FROBCY_FORMS_DIR."""
    if not any(row[0] for row in op.coeffs):
        raise UsageError(f"theta is a right factor of operator {op.name}, "
                         f"so its series is the constant 1")
    p0 = op.coeffs[0]
    if op.theta_order != 4 or any(p0[:4]):
        raise UsageError(f"operator {op.name} is not fourth-order MUM")
    if p0[4] != 1:
        raise UsageError(f"operator {op.name} has P_0 = {p0[4]} theta^4, "
                         f"not theta^4")
    if not is_self_dual(op):
        raise UsageError(f"operator {op.name} is not self-dual")
    _external_forms(os.environ.get(FORMS_DIR_ENV))


def classify_operator(op: ThetaOperator, primes: Sequence[int],
                      points: Optional[Sequence[int]] = None,
                      cache_dir: Optional[str] = None,
                      precision: Optional[int] = None) -> list:
    """The row pipeline: classify the distinct points z0 in ``points``
    (default: 1 .. p-1) of one operator at every prime in ``primes``.
    Returns a list aligned with ``primes`` holding each row's cells, in the
    order of ``points``, or the exception that the row raised.

    With ``precision`` None each row starts at ``required_precision(p)``,
    which settles every point off the singular fibers.  Both series of
    every pending row, at its (p, s), come from one ``cache_series`` call,
    through the disk cache in ``cache_dir`` or solved afresh when it is
    None, and are shared by the row's points; a row whose series fail takes
    their error.  Each point z0 takes the method's three steps: the unit
    roots mod p^s of both series (``unit_roots``; undefined outside the unit
    disk of either), the pair they decode to (``assemble_frobenius``) and
    its cell (``classify_ab``).  A point whose residues fit zero or several
    admissible pairs (split pairs count where the leading symbol vanishes
    at z0 mod p) escalates: it is classified again at s + 1 in the next
    batch (``escalated`` marks it), until ``box_precision``, where every
    balanced lift is settled.  With an integer ``precision`` every row runs
    at that s alone, and a point it does not settle makes ``Uncertified``
    its row's error.  ``op`` is one that ``check_operator`` admits.
    """
    out: list = [dict.fromkeys(range(1, p) if points is None else points)
                 for p in primes]
    roots = [set(symbol_roots_mod_p(op, p)) for p in primes]
    pending = {i: (required_precision(p) if precision is None else precision,
                   out[i]) for i, p in enumerate(primes)}
    escalated = False
    while pending:
        retry = {}
        targets = [(primes[i], s) for i, (s, _zs) in pending.items()]
        for i, got in zip(pending, cache_series(op, targets, cache_dir)):
            if isinstance(got, Exception):
                out[i] = got
                continue
            p, (s, zs), (F0, f0), later = primes[i], pending[i], got, []
            try:
                for z0 in zs:
                    fiber = z0 % p in roots[i]
                    try:
                        r1, rh = unit_roots(f0, F0, z0, p, s)
                        a, b, split = assemble_frobenius(
                            r1, rh, p, s, at_singular_fiber=fiber)
                    except OutsideUnitDisk:
                        out[i][z0] = PointClass(z0, "undefined", fiber,
                                                escalated=escalated, s=s)
                    except Uncertified:
                        if precision is not None:
                            raise
                        later.append(z0)
                    else:
                        out[i][z0] = classify_ab(a, b, p, fiber, split)._replace(
                            z0=z0, escalated=escalated, s=s, r1=r1, rh=rh)
            except Exception as exc:  # noqa: BLE001 - the row's outcome
                out[i] = exc
            else:
                if later:
                    retry[i] = (s + 1, later)
                else:
                    out[i] = list(out[i].values())
        pending, escalated = retry, True
    return out

