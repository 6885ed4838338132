"""Dwork-type congruences and truncation ratios of series solutions.

For the normalized solution c of a catalog operator the ratio
c(n) / c(floor(n/p)) taken mod p^s depends only on n mod p^s:

    c(n + m p^s) / c(floor((n + m p^s)/p)) == c(n) / c(floor(n/p))  (mod p^s).

``check_dwork_congruence`` verifies this exhaustively over a range,
skipping (and reporting) indices whose denominator is not a p-adic unit.

``dwork_ratio`` computes the fundamental unit-root approximation

    y^(p^s - 1)(alpha) / y^(p^(s-1) - 1)(alpha^p)   (mod p^s)

at the Teichmueller point alpha above an ordinary residue z0 (alpha^p = alpha
for prime-field points); ``OutsideUnitDisk`` signals y^(p-1)(z0) == 0 (mod p),
where no unit root exists.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import FrobcyError, Record
from .diffop import TruncatedSeries
from .padic import teichmueller_residue


class OutsideUnitDisk(FrobcyError, ArithmeticError):
    """The (p-1)-truncation vanishes mod p at the requested point."""


class CongruenceReport(Record):
    """Outcome of an exhaustive Dwork-congruence sweep; ``power`` is s, the
    congruence being tested mod prime^power."""

    __slots__ = ("prime", "power", "n_max", "checked", "skipped", "failures")

    def __init__(self, prime: int, power: int, n_max: int, checked: int = 0,
                 skipped: Optional[List[int]] = None,
                 failures: Optional[List[Tuple[int, int, int]]] = None):
        self.prime, self.power, self.n_max, self.checked = prime, power, n_max, checked
        self.skipped = [] if skipped is None else skipped
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        skip = f", {len(self.skipped)} skipped (non-unit denominator)" \
            if self.skipped else ""
        return (f"p={self.prime} s={self.power} n<={self.n_max}: "
                f"{self.checked} ratios checked, {status}{skip}")


def check_dwork_congruence(coeffs: Sequence[int], p: int, s: int,
                           n_max: Optional[int] = None) -> CongruenceReport:
    """Exhaustively test the mod-p^s ratio congruence on c_0 .. c_n_max.

    Ratios are grouped by n mod p^s and every member of a class must agree
    with the first computable one.  Indices with c(floor(n/p)) == 0 (mod p)
    are skipped and reported.  The default range is min(2000, p^4), capped by
    the available coefficients.
    """
    if s < 1:
        raise ValueError("congruence power s must be >= 1")
    if n_max is None:
        n_max = min(2000, p**4)
    n_max = min(n_max, len(coeffs) - 1)
    ps = p**s
    report = CongruenceReport(prime=p, power=s, n_max=n_max)
    first: dict = {}
    for n in range(n_max + 1):
        den = coeffs[n // p] % ps
        if den % p == 0:
            report.skipped.append(n)
            continue
        ratio = coeffs[n] % ps * pow(den, -1, ps) % ps
        key = n % ps
        if key in first:
            report.checked += 1
            if ratio != first[key][1]:
                report.failures.append((n, ratio, first[key][1]))
        else:
            first[key] = (n, ratio)
    return report


def dwork_ratio(series: TruncatedSeries, z0: int, p: int, s: int) -> int:
    """Unit-root approximation num * den^-1 mod p^s from truncation ratios
    at z0.

    Evaluates the degree-(p^s - 1) truncation at the Teichmueller lift alpha
    of z0 and divides by the degree-(p^(s-1) - 1) truncation at alpha^p =
    alpha, all mod p^s.  Requires series coefficients through degree p^s - 1.
    Raises OutsideUnitDisk when the (p-1)-truncation vanishes mod p at z0.
    """
    if s < 1:
        raise ValueError("precision s must be >= 1")
    if not 0 < z0 < p:
        raise ValueError("z0 must be a nonzero residue mod p")
    if series.prime is not None:
        if series.prime != p:
            raise ValueError("series was reduced at a different prime")
        if series.cap < s:
            raise ValueError(
                f"series holds residues mod p^{series.cap}, {s} digits needed")
    ps = p**s
    if series.order < ps - 1:
        raise ValueError(
            f"need coefficients through degree {ps - 1}, have {series.order}")

    unit_probe = series.truncate(p - 1).evaluate_mod(z0 % p, p)
    if unit_probe % p == 0:
        raise OutsideUnitDisk(
            f"(p-1)-truncation vanishes mod {p} at z0 = {z0}")

    alpha = teichmueller_residue(z0, p, ps)
    num = series.truncate(ps - 1).evaluate_mod(alpha, ps)
    den = series.truncate(p ** (s - 1) - 1).evaluate_mod(alpha, ps)
    if den % p == 0:  # cannot happen once the probe passed; guard anyway
        raise OutsideUnitDisk(
            f"denominator truncation vanishes mod {p} at z0 = {z0}")
    return num * pow(den, -1, ps) % ps
