"""Dwork-type congruences and truncation ratios of series solutions.

For the normalized solution c of a catalog operator the ratio
c(n) / c(floor(n/p)) taken mod p^s depends only on n mod p^s:

    c(n + m p^s) / c(floor((n + m p^s)/p)) == c(n) / c(floor(n/p))  (mod p^s).

``check_dwork_congruence`` verifies this exhaustively over a range,
skipping (and reporting) indices whose denominator is not a p-adic unit, and
returns its verdict as the JSON-ready dict that ``frobcy congruence`` prints.

``dwork_ratio`` computes the fundamental unit-root approximation

    y^(p^s - 1)(alpha) / y^(p^(s-1) - 1)(alpha^p)   (mod p^s)

at the Teichmueller point alpha above an ordinary residue z0 (alpha^p = alpha
for prime-field points); ``OutsideUnitDisk`` signals y^(p-1)(z0) == 0 (mod p),
where no unit root exists.  As alpha^(p-1) == 1 (mod p^s), each truncation
is read off its (p-1)-fold, one slice sum per residue class r < p - 1:
y^(N)(alpha) == sum_r alpha^r sum_{n <= N, n == r mod p-1} c_n, evaluated by
``padic.horner`` over the classes that hold a term, r <= min(p - 2, N).
"""

from __future__ import annotations

from typing import Dict, Sequence

from . import FrobcyError
from .padic import horner, teichmueller_residue


class OutsideUnitDisk(FrobcyError, ArithmeticError):
    """The (p-1)-truncation vanishes mod p at the requested point."""


def check_dwork_congruence(coeffs: Sequence[int], p: int, s: int,
                           n_max: int) -> Dict[str, object]:
    """Exhaustively test the mod-p^s ratio congruence on c_0 .. c_n_max
    (n_max capped by the available coefficients).

    Ratios are grouped by n mod p^s and every member of a class must agree
    with the first computable one.  Indices with c(floor(n/p)) == 0 (mod p)
    are skipped and reported.  Returns the report that ``frobcy congruence``
    prints: ``power`` (s), ``n_max``, ``checked``, ``skipped``, ``failures``
    (each ``{"n", "got", "expected"}``), ``ok`` (no failure) and a one-line
    ``summary``.  When no ratio is compared the summary says so, and why:
    p^s > n_max puts every n in a class of its own, or else no two n with a
    unit denominator share a class (c(floor(n/p)) == 0 mod p for every
    n >= p, say).
    """
    if s < 1:
        raise ValueError("congruence power s must be >= 1")
    n_max = min(n_max, len(coeffs) - 1)
    ps = p**s
    checked, skipped, failures, first = 0, [], [], {}
    for n in range(n_max + 1):
        den = coeffs[n // p] % ps
        if den % p == 0:
            skipped.append(n)
            continue
        ratio = coeffs[n] % ps * pow(den, -1, ps) % ps
        key = n % ps
        if key not in first:
            first[key] = ratio
            continue
        checked += 1
        if ratio != first[key]:
            failures.append({"n": n, "got": ratio, "expected": first[key]})
    status = (f"nothing to compare since {p}^{s} = {ps} > n_max" if ps > n_max
              else f"nothing to compare since no two n with a unit "
                   f"denominator share a class mod {p}^{s} = {ps}" if not checked
              else f"{len(failures)} FAILURES" if failures else "ok")
    skip = f", {len(skipped)} skipped (non-unit denominator)" if skipped else ""
    return {"power": s, "n_max": n_max, "checked": checked, "skipped": skipped,
            "failures": failures, "ok": not failures,
            "summary": f"p={p} s={s} n<={n_max}: "
                       f"{checked} ratios checked, {status}{skip}"}


def dwork_ratio(series: Sequence[int], z0: int, p: int, s: int) -> int:
    """Unit-root approximation num * den^-1 mod p^s from truncation ratios
    at z0.

    ``series`` is the coefficient list c_0, c_1, ...: residues mod p^K with
    K >= s, or exact integers.  Evaluates the degree-(p^s - 1) truncation at
    the Teichmueller lift alpha of z0 and divides by the degree-(p^(s-1) - 1)
    truncation at alpha^p = alpha, all mod p^s.  Each truncation, the unit
    probe at z0 mod p too, is summed through its (p-1)-fold, exact since
    z0^(p-1) == 1 mod p (Fermat) and alpha^(p-1) == 1 mod p^s (the lift).
    Requires series coefficients through degree p^s - 1: a slice of a
    shorter list sums too few terms.  Raises OutsideUnitDisk when the
    (p-1)-truncation vanishes mod p at z0, or the denominator truncation
    does.  The second needs a series that breaks Dwork's congruences: where
    they give c(n) == c(n mod p) c(floor(n/p)) (mod p), the denominator is
    the (s-1)-st power of the (p-1)-truncation mod p.
    """
    if s < 1:
        raise ValueError("precision s must be >= 1")
    if not 0 < z0 < p:
        raise ValueError("z0 must be a nonzero residue mod p")
    ps = p**s
    if len(series) < ps:
        raise ValueError(
            f"need coefficients through degree {ps - 1}, have {len(series) - 1}")

    def truncation_at(N: int, x: int, m: int) -> int:  # x^(p-1) == 1 mod m
        return horner((sum(series[r:N + 1:p - 1])  # the nonempty classes
                       for r in reversed(range(min(p - 1, N + 1)))), x, m)

    if truncation_at(p - 1, z0, p) == 0:
        raise OutsideUnitDisk(
            f"(p-1)-truncation vanishes mod {p} at z0 = {z0}")

    alpha = teichmueller_residue(z0, p, ps)
    num = truncation_at(ps - 1, alpha, ps)
    den = truncation_at(p ** (s - 1) - 1, alpha, ps)
    if den % p == 0:  # the probe passed, so the series breaks Dwork's congruences
        raise OutsideUnitDisk(
            f"denominator truncation vanishes mod {p} at z0 = {z0}")
    return num * pow(den, -1, ps) % ps
