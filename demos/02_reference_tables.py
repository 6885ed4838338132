"""
Reproducing the reference tables
================================

Classify every parameter z in F_p* for one operator and several primes, print
the rows in the compact cell notation, and check them against the tables
stored with the package.  A trailing ' marks a quartic that factors into two
bounded quadratics, a trailing * marks a split at a vanishing leading symbol,
a dash marks a parameter where a series loses its unit root, and a trailing
! would flag a bounded pair that fits no factorization yet fails the
root-modulus pairing (none occurs in the stored tables).

The stored tables are kept verbatim; a separate errata file records every
cell where recomputation (at two precision levels) disagrees — dropped
markers, digit and sign typos, transposed pairs, and one phantom cell.
"""

import json
from importlib import resources

from frobcy.catalog import CATALOG
from frobcy.classify import classify_operator

tables = json.loads(resources.files("frobcy")
                    .joinpath("data/appendix_tables.json")
                    .read_text("utf-8"))["tables"]
errata = json.loads(resources.files("frobcy")
                    .joinpath("data/appendix_errata.json")
                    .read_text("utf-8"))["entries"]

# A*a agrees with its stored tables everywhere: one call classifies the rows
# of all three primes (a failed row would be its exception, not a list)
primes = (3, 5, 7)
for p, rows in zip(primes, classify_operator(CATALOG["A*a"], primes)):
    cells = [r.cell() for r in rows]
    stored = [tables["A*a"][str(p)][str(z)] for z in range(1, p)]
    print(f"A*a, p = {p}: {', '.join(cells)}   "
          f"{'== stored' if cells == stored else '!= stored'}")

# B*a's stored tables lost all their markers; the classifier restores them
print()
rows, = classify_operator(CATALOG["B*a"], [5])
for r in rows:
    stored = tables["B*a"]["5"][str(r.z0)]
    note = "" if r.cell() == stored else f"   (stored as {stored!r})"
    print(f"B*a, p = 5, z = {r.z0}: {r.cell():12s} status = {r.status}{note}")

# every such disagreement is a recorded erratum with a reason
print()
fixes = [e for e in errata if e["operator"] == "B*a" and e["p"] == 5]
for e in fixes:
    print(f"erratum: B*a p=5 z={e['z']}: stored {e['stored']!r} "
          f"-> corrected {e['corrected']!r} [{e['kind']}]")
print(f"\nerrata recorded across all tables: {len(errata)} "
      f"({sum(1 for e in errata if e['kind'] == 'marker')} markers, "
      f"{sum(1 for e in errata if e['kind'] == 'value')} values, "
      f"{sum(1 for e in errata if e['kind'] == 'phantom')} phantom)")
