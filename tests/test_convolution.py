"""The convolution oracle against the stored full table and against live rows
of products that no stored table covers.

The oracle (``convolution.py``) predicts each cell's a from the traces of the
two factors alone, so it checks the decode without sharing any of its code.
"""

from __future__ import annotations

import csv
from collections import Counter
from math import isqrt
from pathlib import Path

from frobcy import catalog, congruence, diffop, frobenius
from frobcy.catalog import _LEFT, product_operator
from frobcy.classify import classify_operator
from frobcy.diffop import ThetaOperator
from frobcy.polyrat import poly_mul

import conftest
from convolution import closed_forms, predictions, probe_vanishes

FULL_TABLE = Path(__file__).parent / "data" / "full_table.csv"


def verdict(status, a, ap, chi, prediction, p, probe_zero) -> str:
    """The rule that one cell fits: "a" (smooth or reducible), "split"
    (singular), "probe zero" or "dash" (undefined, with f0's probe zero or
    not); "wrong" when the cell and the prediction disagree."""
    if status in ("smooth", "reducible"):
        return "a" if prediction == a else "wrong"
    if status == "singular":
        return "split" if prediction == -(ap + chi * p) else "wrong"
    if (status != "undefined" or abs(prediction) > isqrt(16 * p**3)
            or (prediction % p == 0) != probe_zero):
        return "wrong"
    return "probe zero" if probe_zero else "dash"


# the package's routes to a series or a unit root, which the oracle must not
# take: (module, name) of each binding
PACKAGE_ROUTES = [(module, name) for module, names in (
    (catalog, ("sequence_residues", "left_factor_residues", "solve_series",
               "operator_series")),
    (congruence, ("dwork_ratio",)),
    (diffop, ("solve_series",)),
    (frobenius, ("dwork_ratio", "sequence_residues")),
    (conftest, ("solve_series",))) for name in names]


def test_every_cell_of_the_full_table_from_p_5(monkeypatch):
    for module, name in PACKAGE_ROUTES:
        monkeypatch.setattr(module, name, conftest.refuse(
            "the oracle took a route of the package"))
    forms = closed_forms("ABCDabcdfg", 17)
    seen, rows, wrong = Counter(), {}, []
    with open(FULL_TABLE, encoding="utf-8", newline="") as fh:
        for cell in csv.DictReader(fh):
            p, z = int(cell["p"]), int(cell["z"])
            if p < 5:
                continue
            left, right = cell["operator"].split("*")
            if (left, right, p) not in rows:
                rows[left, right, p] = predictions(left, right, p, forms)
            ints = [int(cell[k]) if cell[k] else None for k in ("a", "ap", "chi")]
            kind = verdict(cell["status"], *ints, rows[left, right, p][z], p,
                           probe_vanishes(left, right, p, z, forms))
            seen[kind] += 1
            if kind == "wrong":
                wrong.append((cell["operator"], p, z))
    assert not wrong
    assert seen == {"a": 806, "split": 163, "probe zero": 110, "dash": 73}


def uncatalogued_products():
    """(left, right, operator): the 16 products of A-D with e, h, i, j, and
    the ten products L (.) L' = theta^4 - lam lam' z P(theta) P'(theta) of
    two left factors."""
    out = [(left, right, product_operator(left, right))
           for left in "ABCD" for right in "ehij"]
    for i, left in enumerate("ABCD"):
        for other in "ABCD"[i:]:
            (lam, pair), (lam2, pair2) = _LEFT[left], _LEFT[other]
            coeffs = [[0, 0, 0, 0, 1],
                      [-lam * lam2 * c for c in poly_mul(pair, pair2)]]
            out.append((left, other,
                        ThetaOperator(coeffs, name=f"{left}(.){other}")))
    return out


def test_live_rows_of_uncatalogued_products_at_5_and_7():
    forms = closed_forms("ABCDehij", 7)
    seen, wrong = Counter(), []
    for left, right, op in uncatalogued_products():
        for p, row in zip((5, 7), classify_operator(op, (5, 7))):
            assert not isinstance(row, Exception), (op.name, p, row)
            predicted = predictions(left, right, p, forms)
            for pc in row:
                kind = verdict(pc.status, pc.a, pc.ap, pc.chi, predicted[pc.z0],
                               p, probe_vanishes(left, right, p, pc.z0, forms))
                seen[kind] += 1
                if kind == "wrong":
                    wrong.append((op.name, p, pc.z0))
    assert not wrong
    assert seen == {"a": 165, "split": 17, "probe zero": 37, "dash": 41}
