"""
Ratio congruences that make truncation honest
=============================================

The unit-root pipeline evaluates infinite power series through finite
truncations.  That is justified by congruences between a solution's
coefficients: c(n) / c(floor(n/p)) is stable mod p^s along the base-p
expansion of n.  This script checks them for one catalog sequence, then
corrupts a single coefficient and watches the check locate it.
"""

from math import comb

from frobcy.catalog import SECOND_ORDER
from frobcy.congruence import check_dwork_congruence
from frobcy.diffop import solve_series

# the sequence named "c": terms by running the operator recurrence, and
# independently by the closed-form binomial sum  sum_k binom(n,k)^2 binom(2k,k)
N = 400
coeffs = solve_series(SECOND_ORDER["c"], N)
assert coeffs == [sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))
                  for n in range(N + 1)]
print("sequence c, first terms:", coeffs[:6])

# the congruence sweep for three primes and powers s = 1, 2, 3
for p in (3, 5, 7):
    for s in (1, 2, 3):
        report = check_dwork_congruence(coeffs, p, s, N)
        print(f"p = {p}, s = {s}: {report['summary']}")

# corrupt one coefficient: the sweep fails and names the first witness
bad = list(coeffs)
bad[35] += 1
report = check_dwork_congruence(bad, 7, 1, N)
first = report["failures"][0]
print(f"\nafter corrupting c[35]: ok = {report['ok']}; first counterexample "
      f"at n = {first['n']}: got {first['got']}, expected {first['expected']} "
      "(mod 7)")
