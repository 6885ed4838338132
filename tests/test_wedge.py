"""Exterior squares: the rank-6 module, the order-5 companion, the Wronskian
route to its solution, rational exponentials, and horizontal sections."""

from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from frobcy import UsageError, wedge
from frobcy.catalog import CATALOG, _LEFT, _RIGHT
from frobcy.classify import check_operator
from frobcy.diffop import (ThetaOperator, check_cy5, check_mum, is_self_dual,
                           solve_series)
from frobcy.polyrat import (NoSolution, poly_add, poly_exact_div, poly_gcd,
                            poly_mul, poly_primitive, poly_scale, poly_sub,
                            solve_linear_system)
from frobcy.wedge import (UnexpectedOrder, _module_action, _theta_step,
                          _wedge_action, wedge_square)

from conftest import BAD_OPERATORS, self_dual_p
from horizontal import (Laurent, NotRationalY, f0_wedge_via_wronskian,
                        poly_deriv, rational_exp_integral, to_monic,
                        verify_horizontal_u4, verify_horizontal_u5)

AA = CATALOG["A*a"]

BIG_F0_HEAD = [1, 44, 3652, 337712, 33909700, 3567877424]

# binom(2n,n)^2: theta^2 - 4z(2 theta + 1)^2, the rank-2 testbed
LEG16 = ThetaOperator([[0, 0, 1], [-4, -16, -16]], name="legendre16")

# theta^4 applied after multiplication by (1 - z): all four solutions are
# spanned by log^k(z)/(1 - z).  The function eta = (1 - z)^(-2) satisfies an
# order-1 relation, but the module element e0 ^ e1 still pairs with all five
# log-levels, so its minimal operator is theta^5 applied after (1 - z)^2
GEOMETRIC4 = ThetaOperator([[0, 0, 0, 0, 1], [-1, -4, -6, -4, -1]])
GEOMETRIC4_WEDGE_ROWS = (
    (0, 0, 0, 0, 0, 1),
    (-2, -10, -20, -20, -10, -2),
    (32, 80, 80, 40, 10, 1),
)

# theta^4 - z theta (theta + 1)^3 is MUM but not self-dual, so eta generates
# the full rank-6 module and no order-5 relation exists
NOT_SELF_DUAL = ThetaOperator([[0, 0, 0, 0, 1], [0, -1, -3, -3, -1]])


# -- Q(z) as unreduced pairs (numerator, denominator) of integer lists -------------

Z = ([0, 1], [1])


def q_add(f, g):
    return (poly_add(poly_mul(f[0], g[1]), poly_mul(g[0], f[1])),
            poly_mul(f[1], g[1]))


def q_mul(f, g):
    return poly_mul(f[0], g[0]), poly_mul(f[1], g[1])


def q_scale(f, c: Fraction):
    return poly_scale(f[0], c.numerator), poly_scale(f[1], c.denominator)


def q_deriv(f):
    num, den = f
    return (poly_sub(poly_mul(poly_deriv(num), den), poly_mul(num, poly_deriv(den))),
            poly_mul(den, den))


def q_equal(f, g) -> bool:
    return poly_mul(f[0], g[1]) == poly_mul(g[0], f[1])


def q_proportional(f, g) -> bool:
    """f = c g for a nonzero rational constant c."""
    return poly_primitive(poly_mul(f[0], g[1])) == \
        poly_primitive(poly_mul(g[0], f[1]))


# -- the differential module and its exterior square ------------------------------


class TestDifferentialModule:
    """The rank-n module of an operator and its exterior square, as integer
    columns over the leading symbol Delta: theta(e_j) = sum_i A[j][i] e_i / Delta."""

    def test_from_operator_shifts_the_basis(self):
        delta, action = _module_action(AA)
        assert len(action) == 4 and delta == AA.z_poly(4)
        for j in range(3):
            col = action[j]
            assert [bool(c) for c in col].count(True) == 1
            assert col[j + 1] == delta

    def test_top_column_carries_the_operator(self):
        _, action = _module_action(AA)
        for i in range(4):
            assert action[3][i] == [-c for c in AA.z_poly(i)]

    def test_theta_of_a_function_times_basis_vector(self):
        # theta(z e0) = z e0 + z e1, here over Delta^1
        delta, action = _module_action(AA)
        out = _theta_step([[0, 1], [], [], []], 0, delta, action)
        z_delta = [0] + delta
        assert out[0] == z_delta and out[1] == z_delta
        assert out[2] == [] and out[3] == []

    def test_theta_step_differentiates_the_denominator(self):
        # theta(e0 / Delta) = (-theta(Delta) e0 + Delta e1) / Delta^2
        delta, action = _module_action(AA)
        out = _theta_step([[1], [], [], []], 1, delta, action)
        assert out[0] == [-i * c for i, c in enumerate(delta)]
        assert out[1] == delta and out[2] == [] and out[3] == []
        assert q_equal((out[0], poly_mul(delta, delta)),
                       q_mul(Z, q_deriv(([1], delta))))

    def test_wedge_module_rank_and_basis_order(self):
        _, action = _module_action(AA)
        waction, pairs = _wedge_action(action)
        assert len(waction) == 6
        assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_rank2_wedge_recovers_the_wronskian_relation(self):
        # theta(e0 ^ e1) = -(q1/q2) e0 ^ e1: the order-2 analogue of the
        # construction, i.e. the classical first-order Wronskian relation
        delta, action = _module_action(LEG16)
        waction, pairs = _wedge_action(action)
        assert len(waction) == 1 and pairs == [(0, 1)]
        assert delta == [1, -16] and waction[0][0] == [0, 16]  # 16z / (1 - 16z)

    def test_rank2_wedge_matches_the_monic_trace_coefficient(self):
        # the d/dz Wronskian obeys W_hat' = -a1 W_hat, so W = z W_hat obeys
        # theta W = (1 - z a1) W: the rank-1 action must equal 1 - z a1
        delta, action = _module_action(LEG16)
        waction, _ = _wedge_action(action)
        nums, den = to_monic(LEG16)
        z_a1 = q_mul(Z, (nums[1], den))
        assert q_equal((waction[0][0], delta),
                       q_add(([1], [1]), q_scale(z_a1, Fraction(-1))))


# -- the order-5 companion ---------------------------------------------------------


class TestWedgeSquare:
    def test_first_coefficient_is_minus_the_constant_of_row_one(self, wedge_of):
        # F0 = 1 + 44 z + ... for A*a, and in general the degree-1 solution
        # coefficient times the leading constant is -Q_1(0)
        for name in ("A*a", "B*a", "C*c", "D*g", "A*b", "B*d"):
            q = wedge_of(name)
            f1 = solve_series(q, 1)[1]
            assert f1 * q.coeffs[0][5] == -q.theta_poly(1)[0]
        assert solve_series(wedge_of("A*a"), 1)[1] == 44

    def test_scaling_the_input_rows_does_not_change_the_output(self, wedge_of):
        scaled = ThetaOperator([[7 * v for v in row] for row in AA.coeffs])
        assert wedge_square(scaled).coeffs == wedge_of("A*a").coeffs

    # wedge_square's input is a fourth-order MUM operator: check_operator,
    # where the command line loads an operator, refuses any other
    def test_rejects_wrong_order(self):
        with pytest.raises(UsageError, match="legendre16 is not fourth-order"):
            check_operator(LEG16)

    def test_rejects_non_mum_input(self):
        bumpy = ThetaOperator([[0, 0, 1, 0, 1], [-1, -4, -6, -4, -1]],
                              name="bumpy")
        with pytest.raises(UsageError, match="bumpy is not fourth-order MUM"):
            check_operator(bumpy)

    def test_no_order5_relation_raises_unexpected_order(self):
        with pytest.raises(UnexpectedOrder):
            wedge_square(NOT_SELF_DUAL)

    def test_a_kernel_raises_unexpected_order(self, monkeypatch):
        # no operator of the suite has iterates dependent before order 5,
        # so the kernel is reported by a patched solver
        real = wedge.solve_linear_system

        def with_kernel(matrix, rhs):
            numerators, det, _kernel_dim = real(matrix, rhs)
            return numerators, det, 1

        monkeypatch.setattr(wedge, "solve_linear_system", with_kernel)
        with pytest.raises(UnexpectedOrder, match="kernel dimension 1"):
            wedge_square(AA)

    def test_degenerate_input_still_has_an_order5_companion(self):
        q = wedge_square(GEOMETRIC4)
        assert q.coeffs == GEOMETRIC4_WEDGE_ROWS
        assert solve_series(q, 6) == [1, 2, 3, 4, 5, 6, 7]


# -- self-duality decides whether the exterior square has order 5 ----------------


def square_iff_self_dual(op):
    """``wedge_square(op)`` when ``is_self_dual(op)``, after checking that it
    returns; otherwise None, after checking that it raises UnexpectedOrder.
    ``check_operator`` admits a fourth-order MUM operator by this verdict."""
    if is_self_dual(op):
        return wedge_square(op)
    with pytest.raises(UnexpectedOrder):
        wedge_square(op)
    return None


def left_multiple(g, op):
    """g(z) L, whose twist rho is L's minus theta(g)/g."""
    return ThetaOperator([[sum(g[k] * op.coeffs[i - k][j]
                               for k in range(len(g))
                               if 0 <= i - k < len(op.coeffs))
                           for j in range(op.theta_order + 1)]
                          for i in range(len(op.coeffs) + len(g) - 1)])


class TestSelfDualityDecidesTheSquare:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_products(self, name):
        assert square_iff_self_dual(CATALOG[name]) is not None

    def test_bad_operators(self):
        ops = {key: op for key, op in BAD_OPERATORS.items()
               if op.theta_order == 4 and check_mum(op)}
        verdicts = {key: square_iff_self_dual(op) is not None
                    for key, op in ops.items()}
        assert verdicts == {"not_self_dual": False, "theta_factor": False,
                            "theta_factor_self_dual": True, "theta4": True,
                            "theta_unnamed": True, "wedge_not_integral": True}

    @seed(7)
    @settings(max_examples=60, deadline=None)
    @given(P=st.one_of(self_dual_p(),
                       st.lists(st.integers(-16, 16), min_size=5,
                                max_size=5)))
    def test_fuzzed_operators(self, P):
        # theta^4 - z P(theta): both symmetric shapes of the operator-file
        # fuzz, and an arbitrary quartic P, mostly not symmetric
        square_iff_self_dual(ThetaOperator([[0, 0, 0, 0, 1], [-c for c in P]]))

    @pytest.mark.parametrize("g", [[1, 1], [1, -3, 2], [1, 0, 0, 5]])
    @pytest.mark.parametrize("name", ["A*a", "B*f", "D*g"])
    def test_left_multiples_have_the_same_square(self, name, g, wedge_of):
        # g(0) = 1: a nontrivial twist, the same solutions and so the same
        # minimal operator of eta
        square = square_iff_self_dual(left_multiple(g, CATALOG[name]))
        assert square is not None and square.coeffs == wedge_of(name).coeffs

    def test_pullback_of_aa(self):
        # A*a along w = z + z^2 (tests/data/aa_pullback.json): its series is
        # A*a's at w = z + z^2, and its square has z-degree 18
        op = ThetaOperator.from_json(
            (Path(__file__).parent / "data" / "aa_pullback.json").read_text())
        assert (op.theta_order, op.z_degree) == (4, 10) and check_mum(op)
        square = square_iff_self_dual(op)
        assert square is not None and square.z_degree == 18
        w, composed, power = [0, 1, 1], [0] * 9, [1]
        for c in solve_series(AA, 8):
            composed = poly_add(composed, poly_scale(power[:9], c))
            power = poly_mul(power, w)
        assert solve_series(op, 8) == composed


def wedge_over_delta5(op):
    """The exterior square by the plain route: theta^k eta = v_k / Delta^k,
    every column scaled to the common denominator Delta^5, one Bareiss solve,
    and the relation divided by the gcd of its six coefficients over Q[z]."""
    delta, action = _module_action(op)
    waction, pairs = _wedge_action(action)
    eta = [[] for _ in pairs]
    eta[pairs.index((0, 1))] = [1]
    iterates = [eta]
    for m in range(5):
        iterates.append(_theta_step(iterates[-1], m, delta, waction))
    cols = []
    scale = [1]
    for k in range(5, -1, -1):
        cols.append([poly_mul(scale, v) for v in iterates[k]])
        scale = poly_mul(scale, delta)
    cols.reverse()
    matrix = [[cols[k][i] for k in range(5)] for i in range(len(pairs))]
    try:
        numerators, det, kernel_dim = solve_linear_system(matrix, cols[5])
    except NoSolution as exc:
        raise UnexpectedOrder("no order-5 relation") from exc
    if kernel_dim > 0:
        raise UnexpectedOrder("relation of order < 5")
    relation = [poly_scale(x, -1) for x in numerators] + [det]
    g = []
    for c in relation:
        g = poly_gcd(g, c)
    if len(g) > 1:
        relation = [poly_exact_div(c, g) for c in relation]
    z_deg = max(len(c) for c in relation) - 1
    return ThetaOperator([[c[i] if i < len(c) else 0 for c in relation]
                          for i in range(z_deg + 1)])


class TestDeltaOracle:
    """``wedge_square`` solves the relation on the theta-iterates in lowest
    Delta-terms; the Delta^5-scaled solve must give the same operator."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_wedge_equals_the_delta5_oracle(self, name, wedge_of):
        assert wedge_of(name).coeffs == \
            wedge_over_delta5(CATALOG[name]).coeffs

    def test_determinant_has_the_degree_of_the_wedge(self, monkeypatch):
        # over Delta^5 the Bareiss determinant has z-degree 50 on the
        # catalog; in lowest Delta-terms it stays near the wedge's degree 4
        degrees = []
        real = wedge.solve_linear_system

        def counting(matrix, rhs):
            out = real(matrix, rhs)
            degrees.append(len(out[1]) - 1)
            return out

        monkeypatch.setattr(wedge, "solve_linear_system", counting)
        for name in CATALOG:
            wedge_square(CATALOG[name])
        assert len(degrees) == len(CATALOG)
        assert max(degrees) <= 8


# -- generated catalog-shape operators ---------------------------------------------


def catalog_shape(lam, mu, kappa, pair, mid):
    """theta^4 - lam mu z P(theta) m(theta) + kappa lam^2 z^2 P(theta) P(theta+1)."""
    shifted = [sum(pair[k] * comb(k, j) for k in range(j, len(pair)))
               for j in range(len(pair))]
    return ThetaOperator([[0, 0, 0, 0, 1],
                          [-lam * mu * c for c in poly_mul(pair, mid)],
                          [kappa * lam * lam * c for c in poly_mul(pair, shifted)]])


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_shape_is_the_catalog_table(name):
    # the binomial shift above, against ``product_operator``'s P(theta+1)
    left, right = name.split("*")
    lam, pair = _LEFT[left]
    mu, mid, kappa = _RIGHT[right]
    assert catalog_shape(lam, mu, kappa, pair, mid).coeffs == CATALOG[name].coeffs


def monic_cy4_identity(op):
    """Order-4 self-duality (b_1 = b_2' for the conjugated operator) in closed
    form over Q(z), in the monic coefficients a_j:
    a_1 = (1/2) a_2 a_3 - (1/8) a_3^3 + a_2' - (3/4) a_3 a_3' - (1/2) a_3''."""
    nums, den = to_monic(op)
    a0, a1, a2, a3 = [(n, den) for n in nums]
    d3 = q_deriv(a3)
    terms = [(q_mul(a2, a3), Fraction(1, 2)), (q_mul(q_mul(a3, a3), a3), Fraction(-1, 8)),
             (q_deriv(a2), Fraction(1)), (q_mul(a3, d3), Fraction(-3, 4)),
             (q_deriv(d3), Fraction(-1, 2))]
    rhs = ([], [1])
    for term, c in terms:
        rhs = q_add(rhs, q_scale(term, c))
    return q_equal(a1, rhs)


class TestGeneratedCatalogShapes:
    """P(theta) = (u theta + v)(u theta + u - v) and m(theta) = c + b theta (theta + 1)
    are symmetric under theta -> -1 - theta, which makes the operator
    self-dual; m(theta) + delta theta breaks the symmetry at order z, which no
    choice of P can repair."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(-300, 300),
           st.integers(1, 6), st.integers(0, 6), st.integers(1, 20),
           st.integers(-30, 30), st.integers(-3, 3).filter(bool))
    def test_self_duality_wedge_and_perturbation(self, lam, mu, kappa, u, v, b,
                                                 c, delta):
        pair = poly_mul([v, u], [u - v, u])
        op = catalog_shape(lam, mu, kappa, pair, [c, b, b])
        assert is_self_dual(op) and monic_cy4_identity(op)
        q = wedge_square(op)
        assert check_cy5(q)
        assert q.coeffs == wedge_over_delta5(op).coeffs

        bent = catalog_shape(lam, mu, kappa, pair, [c, b + delta, b])
        assert not is_self_dual(bent) and not monic_cy4_identity(bent)
        with pytest.raises(UnexpectedOrder):
            wedge_square(bent)
        with pytest.raises(UnexpectedOrder):
            wedge_over_delta5(bent)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(_LEFT)), st.sampled_from(sorted(_RIGHT)),
           st.integers(-4, 4).filter(bool))
    def test_wedge_series_equals_the_wronskian(self, left, right, scale):
        # integral series: Hadamard products of the catalog's second-order
        # sequences, with z -> scale z
        lam, pair = _LEFT[left]
        mu, mid, kappa = _RIGHT[right]
        op = catalog_shape(scale * lam, mu, kappa, pair, mid)
        assert is_self_dual(op) == monic_cy4_identity(op) is True
        q = wedge_square(op)
        assert check_cy5(q)
        assert q.coeffs == wedge_over_delta5(op).coeffs
        assert solve_series(q, 20) == f0_wedge_via_wronskian(op, 20)


# -- the Wronskian route to F0 -----------------------------------------------------


class TestWronskianRoute:
    def test_head_values(self):
        w = f0_wedge_via_wronskian(AA, 5)
        assert w == [Fraction(v) for v in BIG_F0_HEAD]

    def test_agrees_with_the_solved_series_to_degree_200(self, wedge_of):
        # two independent routes: exact linear algebra + series recurrence
        # versus the log-pair Wronskian; they must agree coefficientwise
        w = f0_wedge_via_wronskian(AA, 200)
        f = solve_series(wedge_of("A*a"), 200)
        assert w == [Fraction(v) for v in f]

    def test_coefficients_are_integral_fractions(self):
        w = f0_wedge_via_wronskian(AA, 40)
        assert all(isinstance(v, Fraction) for v in w)
        assert all(v.denominator == 1 for v in w)

    def test_rank2_wronskian_is_geometric(self):
        # for binom(2n,n)^2 the normalized Wronskian is 1/(1 - 16z)
        w = f0_wedge_via_wronskian(LEG16, 40)
        assert w == [Fraction(16) ** n for n in range(41)]

    def test_requires_mum(self):
        with pytest.raises(ValueError):
            f0_wedge_via_wronskian(
                ThetaOperator([[0, 0, 1, 0, 1], [-1, -4, -6, -4, -1]]), 10)


# -- truncated Laurent series ------------------------------------------------------


class TestLaurent:
    def test_from_ratfun_expands_a_geometric_series(self):
        s = Laurent.from_ratfun([1], [1, -1], 10)
        assert s.val == 0 and s.prec == 10
        assert all(s.coefficient(k) == 1 for k in range(10))

    def test_coefficient_beyond_precision_raises(self):
        s = Laurent.from_ratfun([1], [1, -1], 10)
        with pytest.raises(ValueError):
            s.coefficient(10)

    def test_negative_valuation(self):
        s = Laurent.from_ratfun([1], [0, 1], 5)  # 1/z
        assert s.val == -1
        assert s.coefficient(-1) == 1 and s.coefficient(0) == 0

    def test_positive_valuation(self):
        s = Laurent.from_ratfun([0, 0, 1], [1, -1], 6)  # z^2/(1-z)
        assert s.val == 2
        assert s.coefficient(1) == 0 and s.coefficient(2) == 1

    def test_normalization_strips_leading_zeros(self):
        s = Laurent(0, [Fraction(0), Fraction(0), Fraction(3)], 8)
        assert s.val == 2 and s.coeffs == [Fraction(3)]

    def test_zero_series_has_valuation_at_precision(self):
        s = Laurent(0, [Fraction(0)] * 4, 9)
        assert s.val == 9 and s.coeffs == []

    def test_multiplication_tracks_the_weakest_precision(self):
        a = Laurent(1, [Fraction(1)], 5)       # z, known through z^4
        b = Laurent(-1, [Fraction(1)], 5)      # 1/z, known through z^4
        prod = a * b
        assert prod.coefficient(0) == 1
        assert prod.prec == 4  # a.prec + b.val = 4 is the binding bound
        with pytest.raises(ValueError):
            prod.coefficient(4)

    def test_derivative_drops_one_order_of_precision(self):
        s = Laurent.from_series([1, 1, 1, 1])
        d = s.derivative()
        assert d.prec == 3
        assert [d.coefficient(k) for k in range(3)] == [1, 2, 3]

    def test_derivative_of_a_constant_is_certified_zero(self):
        d = Laurent.from_series([5], prec=3).derivative()
        assert d.is_zero_up_to(1)
        with pytest.raises(ValueError):
            d.is_zero_up_to(2)

    def test_is_zero_up_to_sees_the_first_nonzero_term(self):
        s = Laurent(3, [Fraction(2)], 10)
        assert s.is_zero_up_to(2)
        assert not s.is_zero_up_to(3)

    def test_addition_aligns_valuations(self):
        a = Laurent(-1, [Fraction(1)], 6)
        b = Laurent(-1, [Fraction(-1), Fraction(4)], 6)
        c = a + b
        assert c.val == 0 and c.coefficient(0) == 4

    def test_subtraction_of_equal_series_is_zero(self):
        a = Laurent.from_series([2, 3, 5, 7])
        assert (a - a).is_zero_up_to(3)


# -- rational exponentials ---------------------------------------------------------


class TestRationalExpIntegral:
    @staticmethod
    def check(num, den, want=None):
        y = rational_exp_integral(num, den)
        assert q_equal(q_deriv(y), q_mul((num, den), y))     # Y' = g Y
        if want is not None:
            assert q_proportional(y, want)
        return y

    def test_simple_pole_with_integer_residue(self):
        self.check([3], [0, 1], ([0, 0, 0, 1], [1]))       # 3/z: z^3

    def test_two_poles(self):
        # 1/(z-1) + 2/(z+1)
        g = q_add(([1], [-1, 1]), ([2], [1, 1]))
        self.check(*g, (poly_mul([-1, 1], poly_mul([1, 1], [1, 1])), [1]))

    def test_negative_exponent(self):
        self.check([-2], [0, 1], ([1], [0, 0, 1]))         # -2/z: 1/z^2

    def test_irreducible_quadratic_factor(self):
        # 4z/(z^2+1) = 2 * (z^2+1)'/(z^2+1)
        self.check([0, 4], [1, 0, 1], ([1, 0, 2, 0, 1], [1]))

    def test_mixed_linear_and_quadratic_factors(self):
        # (z(z^2+1))'/(z(z^2+1)) = (3z^2+1)/(z^3+z)
        self.check([1, 0, 3], [0, 1, 0, 1], ([0, 1, 0, 1], [1]))

    def test_unreduced_input_is_reduced_first(self):
        # (2z + 2)/(z^2 + z) = 2/z
        self.check([2, 2], [0, 1, 1], ([0, 0, 1], [1]))

    def test_zero_input_gives_one(self):
        assert rational_exp_integral([], [1]) == ([1], [1])

    def test_half_integer_residue_raises(self):
        with pytest.raises(NotRationalY):
            rational_exp_integral([1], [0, 2])             # 1/(2z)

    def test_double_pole_raises(self):
        with pytest.raises(NotRationalY):
            rational_exp_integral([1], [0, 0, 1])          # 1/z^2

    def test_polynomial_part_raises(self):
        with pytest.raises(NotRationalY):
            rational_exp_integral([0, 1], [1])             # z

    def test_irrational_residues_on_a_quadratic_raise(self):
        with pytest.raises(NotRationalY):
            rational_exp_integral([1, 1], [1, 0, 1])       # (z+1)/(z^2+1)

    def test_two_quadratics_with_different_exponents_raise(self):
        # 2z/(z^2+1) + 4z/(z^2+2) = ((z^2+1)(z^2+2)^2)'/(...): the rootless
        # cofactor (z^2+1)(z^2+2) takes a single exponent
        with pytest.raises(NotRationalY):
            self.check(*q_add(([0, 2], [1, 0, 1]), ([0, 4], [2, 0, 1])))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9),
                              st.integers(-3, 3))
                    .filter(lambda abm: gcd(abm[0], abm[1]) == 1),
                    max_size=3, unique_by=lambda abm: Fraction(abm[0], abm[1])),
           st.integers(1, 9), st.integers(-3, 3))
    def test_round_trip_on_products_of_powers(self, linear, c, m_quad):
        # Y = prod (b z - a)^m * (z^2 + c)^m_quad; g = Y'/Y, unreduced
        y = ([1], [1])
        for f, m in [([-a, b], m) for a, b, m in linear] + [([c, 0, 1], m_quad)]:
            for _ in range(abs(m)):
                y = q_mul(y, (f, [1]) if m > 0 else ([1], f))
        g = (poly_sub(poly_mul(poly_deriv(y[0]), y[1]),
                      poly_mul(y[0], poly_deriv(y[1]))),
             poly_mul(y[0], y[1]))
        self.check(*g, y)


# -- horizontal sections -----------------------------------------------------------


class TestHorizontalSections:
    def test_u4_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            verify_horizontal_u4(AA, 4)

    def test_u5_rejects_tiny_truncation(self, wedge_of):
        with pytest.raises(ValueError):
            verify_horizontal_u5(wedge_of("A*a"), 4)
