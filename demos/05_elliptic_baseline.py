"""
The elliptic baseline: unit roots against raw point counts
==========================================================

Before trusting the method on fourth-order operators, run it where the
answer is checkable by hand: the Legendre family y^2 = x(x-1)(x-s).  The
hypergeometric series (the case "e" of the second-order catalog) gives a
p-adic unit root pi; the trace a_p = pi + p/pi must equal p minus the number
of affine points, which a double loop over F_p counts directly.
"""

from frobcy.congruence import OutsideUnitDisk
from frobcy.frobenius import legendre_frobenius, legendre_precision
from frobcy.padic import balanced_residue

p = 11
print(f"p = {p}: unit roots certified mod {p}^{legendre_precision(p)}")
print(f"{'s0':>4} {'status':>14} {'pi':>6} {'a_p':>5} {'count':>6}")

for s0 in range(2, p):
    # brute force: a_p = p - #affine points of y^2 = x(x-1)(x-s0)
    affine = sum(1 for x in range(p) for y in range(p)
                 if (y * y - x * (x - 1) * (x - s0)) % p == 0)
    brute = p - affine
    try:
        root = legendre_frobenius(p, s0)[0]
    except OutsideUnitDisk:
        # no unit root: the fiber is supersingular and a_p is divisible by p
        print(f"{s0:>4} {'supersingular':>14} {'-':>6} {'-':>5} {brute:>6}")
        assert brute % p == 0
        continue
    ps = p ** legendre_precision(p)
    ap = balanced_residue(root + p * pow(root, -1, ps), ps)
    flag = "==" if ap == brute else "!="
    print(f"{s0:>4} {'ordinary':>14} {root:>6} {ap:>5} "
          f"{brute:>6}  {flag}")
    assert ap == brute
