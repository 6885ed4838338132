"""
Exterior squares and the self-duality identity
==============================================

Every fourth-order operator in the catalog is self-dual, and its exterior
square — the fifth-order operator annihilating the z-scaled Wronskians of
solution pairs — is anti-self-adjoint after conjugation.  This script builds
the exterior square of one operator by exact linear algebra over Z[z],
solves its series and checks the order-5 identity.  A fourth-order operator
without the self-duality has no order-5 companion at all.

The test suite checks the rest: acceptance criterion 11 the order-4
identity on all 24 catalog operators, criterion 10 the horizontal sections
of both operators with their negative controls, and tests/test_wedge.py the
exterior square's series against the Wronskian of the Frobenius pair.
"""

from frobcy.catalog import CATALOG, exterior_square
from frobcy.diffop import ThetaOperator, check_cy5, solve_series
from frobcy.wedge import UnexpectedOrder, wedge_square

op = CATALOG["A*a"]
q = wedge_square(op)
print("operator  :", op.name, f"(order {op.theta_order})")
print("ext square:", f"order {q.theta_order}, z-degree {q.z_degree}")

# the holomorphic solution of the exterior square: the z-Wronskian
# combination of the original Frobenius pair, integral like f0 itself
F0 = solve_series(q, 8)
print("F0 head   :", F0[:5])

# the order-5 self-duality identity, exact over Z[z]; the stored exterior
# squares of all 24 catalog products are loaded through the same check, and
# each equals the one built here
print("order-5 identity on Q        :", check_cy5(q))
print("24 stored squares = computed :",
      all(exterior_square(op) == wedge_square(op)
          for op in CATALOG.values()))

# theta^4 - z theta (theta + 1)^3 is MUM but not self-dual: the iterates of
# eta span the whole rank-6 module, so no order-5 relation exists
bent = ThetaOperator([[0, 0, 0, 0, 1], [0, -1, -3, -3, -1]])
try:
    wedge_square(bent)
except UnexpectedOrder as exc:
    print("not self-dual                :", exc)
