"""
Weight-four eta products at the split points
============================================

Where the leading symbol vanishes mod p, the quartic degenerates into
(1 - chi p T)(1 - chi p^2 T)(1 - a_p T + p^3 T^2), and the extracted a_p
matches the q-expansion coefficient of a weight-four eta product.  This
script expands the two built-in products from their factor data, then walks
the catalog's split cells at small primes and reports which stored form each
a_p hits — including the cells whose form is absent from the built-in list.
"""

from frobcy.catalog import CATALOG
from frobcy.classify import (BUILTIN_FORMS, classify_operator, eta_expansion,
                             match_singular_ap)

# the two stored forms, expanded from their (scale, exponent) factors by
# multiplying out each (1 - q^k); eta(q^m)^e has weight e/2
for label, factors in BUILTIN_FORMS.items():
    weight = sum(e for _m, e in factors) // 2
    print(f"form {label}: eta factors {factors}, weight {weight}, "
          f"q-expansion {eta_expansion(factors, 12)[1:]}")

# split cells of A*a (the reduction of -1/16) and B*d (of 1/216)
print()
for name, p in (("A*a", 5), ("A*a", 7), ("B*d", 7)):
    row, = classify_operator(CATALOG[name], [p])
    for cell in row:
        if cell.status != "singular":
            continue
        hit = cell.form if cell.form is not None else "(no stored form)"
        print(f"{name} p={p} z={cell.z0}: chi = {cell.chi:+d}, "
              f"a_{p} = {cell.ap:>4}  ->  {hit}")

# a split whose form is not stored matches no label
print()
cell = classify_operator(CATALOG["D*c"], [5])[0][1]
print(f"D*c p=5 z=2 splits with a_5 = {cell.ap}, but:")
print("  stored form:", match_singular_ap(5, cell.ap))
