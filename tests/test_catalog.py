"""The operator catalog: sequences, their operators, Hadamard products, the
24 fourth-order products, and the auxiliary quintic sequence."""

import json
import random
from fractions import Fraction

import pytest

from frobcy import catalog as catalog_module, cli, diffop
from frobcy.catalog import (CATALOG, SECOND_ORDER, SPECIAL_POINTS,
                            exterior_square, left_factor_residues,
                            operator_series, product_operator,
                            sequence_residues)
from frobcy.diffop import (NonIntegralSolution, ThetaOperator, check_mum,
                           leading_symbol, solve_series)
from frobcy.frobenius import required_precision
from frobcy.padic import is_odd_prime
from frobcy.polyrat import poly_gcd, rational_roots
from frobcy.wedge import UnexpectedOrder, wedge_square

from conftest import (hadamard_product, quintic_wedge_coefficients,
                      recurrence_terms, sequence_term, sequence_terms, spy)
from horizontal import poly_deriv

LEFT_NAMES = "ABCD"
RIGHT_NAMES = "abcdfg"
CENTRAL_NAMES = "ehij"
ALL_NAMES = tuple(LEFT_NAMES) + tuple("abcdefghij")


# -- sequence closed forms ---------------------------------------------------------


class TestSequenceTerm:
    def test_fixed_values(self):
        assert sequence_term("A", 2) == 36
        assert sequence_term("a", 2) == 10
        assert sequence_term("B", 2) == 90
        assert sequence_term("C", 2) == 420
        assert sequence_term("D", 2) == 13860

    def test_apery_head(self):
        # sum_k binom(n,k)^2 binom(n+k,k); at n = 2 the three summands are
        # 1, 12, 6, and the operator recurrence confirms the total
        assert [sequence_term("b", n) for n in range(4)] == [1, 3, 19, 147]
        assert recurrence_terms("b", 3) == [1, 3, 19, 147]

    def test_all_sequences_start_at_one(self):
        for name in ALL_NAMES:
            assert sequence_term(name, 0) == 1

    def test_central_sums_are_integers(self):
        # e, h, i, j come from fractional binomials scaled by 16, 27, 64, 432
        assert [sequence_term("e", n) for n in range(4)] == \
            recurrence_terms("e", 3)
        for name in CENTRAL_NAMES:
            assert isinstance(sequence_term(name, 7), int)

    def test_batched_terms_match_the_single_term_route(self):
        for name in ALL_NAMES:
            assert sequence_terms(name, 25) == \
                [sequence_term(name, n) for n in range(26)]


class TestSequenceRecurrence:
    # every closed form must satisfy its operator's recurrence; depth is
    # limited by closed-form cost (factorial ratios are cheap, binomial and
    # fractional-binomial sums are quadratic)
    @pytest.mark.parametrize("name", tuple(LEFT_NAMES))
    def test_factorial_forms_to_1000(self, name):
        assert sequence_terms(name, 1000) == \
            recurrence_terms(name, 1000)

    @pytest.mark.parametrize("name", tuple(RIGHT_NAMES))
    def test_binomial_sums_to_500(self, name):
        assert sequence_terms(name, 500) == \
            recurrence_terms(name, 500)

    @pytest.mark.parametrize("name", tuple(CENTRAL_NAMES))
    def test_central_sums_to_500(self, name):
        assert sequence_terms(name, 500) == \
            recurrence_terms(name, 500)


# -- second-order operators --------------------------------------------------------


class TestSecondOrderOperators:
    def test_fourteen_mum_operators(self):
        assert len(SECOND_ORDER) == 14
        assert set(SECOND_ORDER) == set(ALL_NAMES)
        for op in SECOND_ORDER.values():
            assert op.theta_order == 2
            assert check_mum(op)

    def test_left_factors_have_one_finite_singularity(self):
        for name in LEFT_NAMES:
            assert SECOND_ORDER[name].z_degree == 1

    def test_right_factor_discriminants(self):
        # a..g: the quadratic symbol is squarefree (two distinct extra
        # fibers); e, h, i, j: it is a perfect square (one doubled fiber)
        squares = {"e": 16, "h": 27, "i": 64, "j": 432}
        for name in "abcdefghij":
            sym = leading_symbol(SECOND_ORDER[name])
            assert len(sym) == 3
            repeated = len(poly_gcd(sym, poly_deriv(sym))) > 1
            if name in squares:
                assert repeated
                r = squares[name]
                assert sym == [1, -2 * r, r * r]
            else:
                assert not repeated


# -- the 24 products ---------------------------------------------------------------


def symbol_roots(op):
    """The rational roots of the leading symbol, ascending."""
    roots, _ = rational_roots(leading_symbol(op))
    return sorted(r for r, _m in roots)


class TestCatalogEntries:
    def test_twenty_four_entries_grouped_by_right_factor(self):
        names = list(CATALOG)
        assert len(names) == 24
        assert names[:4] == ["A*a", "B*a", "C*a", "D*a"]
        assert names[-4:] == ["A*g", "B*g", "C*g", "D*g"]

    def test_database_numbers_are_distinct(self):
        numbers = [op.aesz for op in CATALOG.values()]
        assert len(set(numbers)) == 24
        assert CATALOG["A*a"].aesz == 45
        assert CATALOG["B*a"].aesz == 15
        assert CATALOG["C*c"].aesz == 69
        assert CATALOG["D*g"].aesz == 140

    def test_entry_fields_are_consistent(self):
        for op in CATALOG.values():
            assert op.theta_order == 4
            assert check_mum(op)

    def test_product_rows_for_the_first_entry(self):
        op = product_operator("A", "a")
        assert op.coeffs == (
            (0, 0, 0, 0, 1),
            (-8, -60, -172, -224, -112),
            (-1152, -6144, -11264, -8192, -2048),
        )
        assert op == CATALOG["A*a"]

    def test_singular_points_of_the_first_entry(self):
        assert symbol_roots(CATALOG["A*a"]) == [Fraction(-1, 16), Fraction(1, 128)]

    def test_annotated_points_lie_on_the_singular_locus(self):
        annotated = 0
        for name, points in SPECIAL_POINTS.items():
            for point in points:
                assert Fraction(point) in symbol_roots(CATALOG[name])
                annotated += 1
        assert annotated == 2
        assert SPECIAL_POINTS == {"A*a": {"-1/16": "8/1"}, "B*d": {"1/216": "9/1"}}


# -- Hadamard products -------------------------------------------------------------


class TestHadamardProduct:
    def test_all_ones_is_the_identity(self):
        xs = sequence_terms("c", 10)
        assert hadamard_product(xs, [1] * 11) == xs


# -- the series of a catalog operator through its factors --------------------------


def full_sweep_targets(name):
    """The op-role (p, s) targets of ``table --primes 3..17`` for one
    operator, plus the one escalated cell's s = 4 series (A*d at p = 5)."""
    targets = [(p, required_precision(p)) for p in (3, 5, 7, 11, 13, 17)]
    return targets + [(5, 4)] if name == "A*d" else targets


def solve_to(op, targets):
    """``solve_series`` of ``op`` at the (p, K) targets of ``operator_series``,
    each to degree p^K - 1, as one exact batch."""
    full = [(p, K, p**K - 1) for p, K in targets]
    return solve_series(op, max(N for _p, _K, N in full), targets=full)


class TestOperatorSeries:
    @pytest.fixture
    def runs(self, monkeypatch):
        """The order of the operator of every series run the dispatch makes."""
        return spy(monkeypatch, catalog_module, "solve_series",
                   lambda op, *args, **kwargs: op.theta_order)

    @pytest.mark.parametrize("left", LEFT_NAMES)
    def test_left_factor_residues_match_the_exact_terms(self, left):
        # degrees to p^K - 1 <= 342 span several carries of p-adic valuation
        # for p = 3, 5, 7; a degree beyond p^K - 1 is stepped on as well
        exact = sequence_terms(left, 342)
        for p, K, N in [(3, 1, 2), (3, 2, 8), (3, 4, 80), (3, 5, 242),
                        (5, 1, 4), (5, 2, 24), (5, 3, 124), (7, 1, 6),
                        (7, 2, 48), (7, 3, 342), (11, 1, 10), (11, 2, 120),
                        (3, 2, 342), (5, 1, 200)]:
            assert left_factor_residues(left, p, K, N) == \
                [a % p**K for a in exact[:N + 1]], (p, K, N)

    @pytest.mark.parametrize("block", [1, 2, 7, 100])
    def test_left_factor_blocks_leave_the_residues(self, block, monkeypatch):
        # blocks of any length, their ends on and off the carries of the
        # valuation, give the exact terms' residues
        monkeypatch.setattr(catalog_module, "_BLOCK", block)
        for left in LEFT_NAMES:
            assert left_factor_residues(left, 3, 5, 242) == \
                [a % 3**5 for a in sequence_terms(left, 242)]

    @pytest.mark.parametrize("name", list(CATALOG) + list(SECOND_ORDER))
    def test_sequence_residues_equal_the_exact_run(self, name):
        # the former congruence route: one exact run of the sequence's own
        # operator, a product's of fourth order
        op = CATALOG[name] if name in CATALOG else SECOND_ORDER[name]
        for p in (3, 5, 7):
            targets = ((p, 2, 60),)
            assert sequence_residues(name, targets) == \
                solve_series(op, 60, targets=list(targets)), (name, p)

    def test_full_sweep_factor_route_equals_generic(self, runs):
        ran = []
        for name, op in CATALOG.items():
            targets = full_sweep_targets(name)
            fast = operator_series(op, targets)
            assert runs in ([], [2]), name  # the right factor alone, or none
            ran += [name] * len(runs)
            del runs[:]
            generic = solve_to(op, targets)
            for t, got, want in zip(targets, fast, generic):
                assert got == want, (name, t)
        # one run per right factor and batch of targets: the first operator
        # of each right factor runs it, and A*d's extra target (5, 4) makes
        # its batch differ from B*d's
        assert ran == ["A*a", "A*b", "A*c", "A*d", "B*d", "A*f", "A*g"]

    def test_changed_coefficient_takes_the_generic_route(self, runs):
        data = json.loads(CATALOG["A*a"].to_json())
        data["coeffs"][1][4] = str(int(data["coeffs"][1][4]) + 1)
        op = ThetaOperator.from_json(json.dumps(data))
        assert op.name == "A*a"
        targets = [(5, 2), (7, 2)]
        got = operator_series(op, targets)
        assert runs == [4]
        # the changed operator has no integral solution: the generic run
        # reports it, where the factors of A*a would have answered
        assert all(isinstance(g, NonIntegralSolution) for g in got)
        assert [repr(g) for g in got] == \
            [repr(w) for w in solve_to(op, targets)]

    def test_renamed_copy_takes_the_factor_route(self, runs, monkeypatch):
        # a product is recognised by its coefficients, whatever its name: a
        # renamed copy runs B*c's right factor, and the copy and B*c share it
        op = CATALOG["B*c"]
        copy = ThetaOperator(op.coeffs, name="mine")
        targets = [(7, 3)]
        got, = operator_series(copy, targets)
        assert runs == [2]
        assert operator_series(op, targets) == [got]
        assert runs == [2]
        assert [got] == solve_to(op, targets)
        # and loads B*c's stored square under its own name, building none
        monkeypatch.setattr(catalog_module, "wedge_square", None)
        square = exterior_square(copy)
        assert square.coeffs == exterior_square(op).coeffs
        assert square.name == "wedge(mine)"

    @pytest.fixture
    def grants(self, monkeypatch):
        """(operator order, integral) of every series run the dispatch makes."""
        return spy(monkeypatch, catalog_module, "solve_series",
                   lambda op, *args, **kwargs: (op.theta_order,
                                                kwargs.get("integral", False)))

    @pytest.mark.parametrize("names, targets", [
        (("B*a", "B*g"), [(13, 3)]),
        (("A*a", "D*c"), [(3, 4), (5, 3), (7, 3)]),
    ], ids=["table_deep", "table_wide"])
    def test_residue_phase_equals_the_exact_run(self, grants, names, targets):
        for name in names:
            op = CATALOG[name]
            for wedge in (False, True):
                got = operator_series(op, targets, wedge)
                want = solve_to(wedge_square(op) if wedge else op, targets)
                assert got == want, (name, wedge)
        # the right factor's run and the exterior square's, both integral
        assert grants == [(2, True), (5, True)] * len(names)

    def test_deep_batch_enters_the_residue_phase(self, monkeypatch):
        entered = spy(monkeypatch, diffop, "_unscale",
                      lambda out, us, n0, m: (n0, len(out) - 1, m))
        op = CATALOG["B*g"]
        for wedge in (False, True):
            operator_series(op, [(13, 3)], wedge)
        assert [(last, m) for _n0, last, m in entered] == [(2196, 13**3)] * 2
        assert all(0 < n0 < 2196 for n0, _last, _m in entered), entered

    def test_switch_before_the_short_targets_finish(self, monkeypatch):
        # At the default margin the table_wide batch switches after N = 124;
        # a low one makes it switch before N = 80, so the short targets
        # finish in the residue phase and each is unscaled over its own
        # degrees only.
        monkeypatch.setattr(diffop, "SWITCH_MARGIN", 0.5)
        entered = spy(monkeypatch, diffop, "_unscale",
                      lambda out, us, n0, m: (n0, len(out) - 1))
        targets = [(3, 4), (5, 3), (7, 3)]
        for name in ("A*a", "D*c"):
            op = CATALOG[name]
            for wedge in (False, True):
                entered.clear()
                got = operator_series(op, targets, wedge)
                want = solve_to(wedge_square(op) if wedge else op, targets)
                assert got == want, (name, wedge)
                assert [last for _n0, last in entered] == [80, 124, 342]
                assert all(0 < n0 < 80 for n0, _last in entered), entered

    def test_changed_coefficient_takes_the_exact_route_for_its_wedge(
            self, grants, monkeypatch):
        built = []
        monkeypatch.setattr(catalog_module, "wedge_square",
                            lambda op: built.append(op.name) or wedge_square(op))
        data = json.loads(CATALOG["A*a"].to_json())
        data["coeffs"][1][0] = str(int(data["coeffs"][1][0]) + 1)
        op = ThetaOperator.from_json(json.dumps(data))
        assert op.name == "A*a"
        targets = [(5, 2), (7, 2)]
        got = operator_series(op, targets, wedge=True)
        # the file named A*a builds its own exterior square
        assert grants == [(5, False)] and built == ["A*a"]
        assert [repr(g) for g in got] == \
            [repr(w) for w in solve_to(wedge_square(op), targets)]
        assert all(isinstance(g, NonIntegralSolution) for g in got)
        # the catalog's A*a solves its stored one and builds none
        operator_series(CATALOG["A*a"], targets, wedge=True)
        assert grants == [(5, False), (5, True)] and built == ["A*a"]

    def test_residue_targets_equal_the_exact_coefficients(self, runs):
        # exact coefficients come from solve_series itself; the dispatch
        # takes residue targets only, through the factors for a product
        op = CATALOG["C*d"]
        got, = operator_series(op, [(5, 2)])
        assert runs == [2]
        assert got == [c % 25 for c in solve_series(op, 24)]


# -- the stored exterior squares and the shared factor runs ------------------------


class TestStoredWedges:
    @pytest.mark.parametrize("row, col", [(0, 4), (1, 0), (4, 5)],
                             ids=["not_mum", "linear", "leading"])
    def test_tampered_rows_raise_unexpected_order(self, row, col, monkeypatch):
        stored = catalog_module._stored_wedges()
        rows = [list(r) for r in stored["A*a"]]
        rows[row][col] = str(int(rows[row][col]) + 1)
        monkeypatch.setattr(catalog_module, "_stored_wedges",
                            lambda: {**stored, "A*a": rows})
        with pytest.raises(UnexpectedOrder):
            operator_series(CATALOG["A*a"], [(7, 2)], wedge=True)

    def test_stored_rows_of_order_four_raise_unexpected_order(self, capsys,
                                                              monkeypatch):
        # A*a's own rows stored as its square: MUM, but of order 4, so
        # check_wedge refuses them before check_cy5's precondition trips
        stored = catalog_module._stored_wedges()
        monkeypatch.setattr(catalog_module, "_stored_wedges", lambda: {
            **stored, "A*a": [list(r) for r in CATALOG["A*a"].coeffs]})
        with pytest.raises(UnexpectedOrder):
            operator_series(CATALOG["A*a"], [(7, 2)], wedge=True)
        code = cli.main(["table", "--operator", "A*a", "--primes", "5",
                         "--no-cache"])
        assert code == 1 and capsys.readouterr().err == \
            "error: exterior square fails its structural checks\n"


WIDE_OPERATORS = ("A*a", "A*b", "A*c", "B*a", "B*b", "B*c",
                  "C*a", "C*b", "C*c", "D*a", "D*b", "D*c")
WIDE_TARGETS = [(3, 4), (5, 3), (7, 3)]


class TestSharedFactorRuns:
    def test_shared_runs_equal_the_unshared(self):
        shared = {name: operator_series(CATALOG[name], WIDE_TARGETS)
                  for name in WIDE_OPERATORS}
        for name in WIDE_OPERATORS:
            catalog_module._factor_residues.cache_clear()
            alone = operator_series(CATALOG[name], WIDE_TARGETS)
            assert shared[name] == alone, name

    def test_memo_stays_within_the_catalog_factor_count(self):
        memo = catalog_module._factor_residues
        for name, op in CATALOG.items():
            targets = full_sweep_targets(name)
            operator_series(op, targets)
            info = memo.cache_info()
            assert info.currsize <= info.maxsize == len(SECOND_ORDER)
        # 24 operators, two factors each, over two batches of targets: the
        # 6 right and 4 left factors of the common batch, and A and d at
        # A*d's batch, which adds (5, 4), each built once
        assert (memo.cache_info().hits, memo.cache_info().misses) == (36, 12)

    @pytest.mark.parametrize("order", ["catalog", "reversed", "shuffled"])
    def test_wide_sweep_builds_each_factor_batch_once(self, order,
                                                       monkeypatch):
        # a sweep past eight primes, p = 3 .. 61 at their starting
        # precisions, with the stepping and the runs stubbed: every left
        # factor is stepped once per prime, whatever the operator order
        stepped, ran = [], []
        monkeypatch.setattr(catalog_module, "left_factor_residues",
                            lambda *key: stepped.append(key) or [1])
        monkeypatch.setattr(
            catalog_module, "solve_series",
            lambda op, N, *, targets, integral: ran.append(op.name)
            or [[1] for _ in targets])
        names = list(CATALOG)
        if order == "reversed":
            names.reverse()
        elif order == "shuffled":
            random.Random(47).shuffle(names)
        primes = [p for p in range(3, 62) if is_odd_prime(p)]
        targets = [(p, required_precision(p)) for p in primes]
        for name in names:
            operator_series(CATALOG[name], targets)
        assert len(primes) == 17
        assert len(stepped) == len(set(stepped)) == 4 * 17
        assert sorted(ran) == list(RIGHT_NAMES)


# -- the auxiliary quintic sequence -------------------------------------------------


class TestQuinticWedgeCoefficients:
    def test_first_term_is_one(self):
        assert quintic_wedge_coefficients(0) == [1]

    def test_second_term_by_hand(self):
        # (5k)!/k!^5 is 1, 120; the k = 1 weight is
        # 1 + (-5 H_1 + 5 H_0 + 5 H_5 - 5 H_0) = 1 - 5 + 137/12 = 89/12,
        # so A_1 = 120 * 1 + 120 * 89/12 = 120 + 890
        h5 = sum(Fraction(1, i) for i in range(1, 6))
        weight = 1 + (Fraction(-5) + 5 * h5)
        expected = 120 + int(120 * weight)
        assert quintic_wedge_coefficients(1) == [1, expected]
        assert expected == 1010

    def test_integrality_through_A20(self):
        values = quintic_wedge_coefficients(20)
        assert len(values) == 21
        assert all(isinstance(v, int) for v in values)
