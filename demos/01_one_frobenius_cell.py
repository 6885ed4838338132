"""
One Frobenius quartic, step by step
===================================

Walk the whole unit-root pipeline for the operator A*a at p = 7 and the
parameter z = 2, printing every intermediate value: the two truncated power
series, the Teichmüller lift, the four series evaluations, the two unit
roots, and the assembled quartic 1 + aT + bpT^2 + ap^3T^3 + p^6T^4.
"""

from frobcy.catalog import CATALOG
from frobcy.diffop import solve_series
from frobcy.frobenius import (assemble_frobenius, decode_frobenius,
                              frobenius_quartic, unit_roots, weil_verify)
from frobcy.padic import teichmueller_residue
from frobcy.wedge import wedge_square

p, z0, s = 7, 2, 4
mod = p**s
print(f"operator A*a, p = {p}, z = {z0}, working modulo {p}^{s} = {mod}")

# the fourth-order operator P and its exterior square Q; the unit roots come
# from the holomorphic solutions f0 of P and F0 of Q
op = CATALOG["A*a"]
q = wedge_square(op)
# one target (p, K, N): the coefficients through degree N, reduced mod p^K
f0, = solve_series(op, p**s - 1, targets=[(p, s, p**s - 1)])
F0, = solve_series(q, p**s - 1, targets=[(p, s, p**s - 1)])
print("f0 head:", f0[:5])
print("F0 head:", F0[:5])

# z is lifted to the Teichmüller representative: the unique root of unity in
# the p-adics reducing to z0 mod p
zhat = teichmueller_residue(z0, p, mod)
print(f"Teichmüller lift of {z0}: {zhat}  (check: zhat^{p} == zhat mod {mod}:",
      pow(zhat, p, mod) == zhat, ")")

# each unit root is a ratio of the series at zhat and at zhat^p, the
# denominator truncated one level lower (its first p^(s-1) coefficients)
def at(coeffs, x):
    return sum(c * pow(x, n, mod) for n, c in enumerate(coeffs)) % mod


top = at(f0, zhat)
bot = at(f0[: p ** (s - 1)], pow(zhat, p, mod))
print(f"f0(zhat) = {top},  f0^(lower)(zhat^p) = {bot},  "
      f"ratio = {top * pow(bot, -1, mod) % mod}")

Top = at(F0, zhat)
Bot = at(F0[: p ** (s - 1)], pow(zhat, p, mod))
print(f"F0(zhat) = {Top},  F0^(lower)(zhat^p) = {Bot},  "
      f"ratio = {Top * pow(Bot, -1, mod) % mod}")

# the library computes the same two ratios, as residues mod p^s
r1, rhat = unit_roots(f0, F0, z0, p, s)
print(f"unit roots: r1 = {r1}, rhat = {rhat}  "
      f"(each certified to {s} digits)")

# the two p-adic roots give (a, b) mod p^s; exactly one Weil-shape pair is
# congruent to those residues, which certifies the integer coefficients; its
# split tag is None, as for every pair that is not a split pair
a, b, split = assemble_frobenius(r1, rhat, p, s, at_singular_fiber=False)
print(f"(a, b, split) = ({a}, {b}, {split}), the only admissible candidate "
      f"of its residues mod {p}^{s}: {decode_frobenius(a, b, p, s)}")

quartic = frobenius_quartic(a, b, p)
print("P(T) coefficients [T^0 .. T^4]:", quartic)
print("all reciprocal roots on |T| = p^(-3/2):", weil_verify(a, b, p))
