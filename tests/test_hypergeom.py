import math
import sys
import threading

import mpmath
import pytest

from hyplegendre import (
    DegenerateCase,
    DomainError,
    Error,
    Hyp2F1,
    InvalidParams,
    NoConvergence,
    PoleError,
    gamma,
    hyp2f1,
    pfaff_transform,
    pochhammer,
    rgamma,
)
from hyplegendre.hypergeom import (
    _MAX_TERMS,
    _UNKNOWN,
    DEFAULT_POLE_TOL,
    _hyp2f1_jet,
    _zeros_overflow,
)
from hyplegendre.rng import SplitMix64

from identities import inversion_15_8_6, quadratic_15_8_20
from oracles import central_diff, direct_2f1, rising
from test_kummer_set import row_jet

SQRT_PI = 1.7724538509055160273  # high-precision constant, 20 digits


def row_sum(p, z):
    """sin(pi(c-a-b))/pi * 2F1(a,b;c;z) from the 1-z side: the row of w1 in
    the Kummer plan of p without its pi/sin factor, summed as hyp2f1's
    0.5 < z < 1 route sums it."""
    plan = p._plan
    _, g, alpha, beta = plan.row(0)
    near, far, e = plan.triple(2), plan.triple(3), plan.powers[3]
    w = 1.0 - z
    return g * (alpha * hyp2f1(near, w) - beta * (w ** e * hyp2f1(far, w)))


def outcome(f, *args):
    """f(*args), or the type of the library error it raises."""
    try:
        return f(*args)
    except Error as exc:
        return type(exc)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(2.5, 0) == 1.0

    def test_product_loop_oracle(self):
        # independent oracle: explicit product 3*4*5*6
        expected = 1.0
        for k in range(4):
            expected *= 3.0 + k
        assert expected == 360.0
        assert pochhammer(3.0, 4) == expected

    def test_zero_factor(self):
        assert pochhammer(-2.0, 3) == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    def test_nan_rejected_infinities_kept(self):
        # as in gamma, nan has no value and the error is typed; an overflow
        # or an infinite x is an infinity
        with pytest.raises(DomainError):
            pochhammer(math.nan, 3)
        assert pochhammer(math.inf, 2) == math.inf
        assert pochhammer(-math.inf, 3) == -math.inf
        assert pochhammer(1e200, 2) == math.inf


class TestGamma:
    def test_one(self):
        assert abs(gamma(1.0) - 1.0) <= 1e-14

    def test_half(self):
        assert abs(gamma(0.5) - SQRT_PI) / SQRT_PI <= 1e-13

    def test_factorial(self):
        assert abs(gamma(6.0) - math.factorial(5)) / 120.0 <= 1e-13

    def test_against_libm(self):
        # scipy's gamma as an independent oracle (gamma itself is math.gamma)
        scipy_special = pytest.importorskip("scipy.special")
        for i in range(391):
            x = 0.5 + i * 0.05
            want = float(scipy_special.gamma(x))
            assert abs(gamma(x) - want) / want <= 1e-13

    def test_reflection_region(self):
        scipy_special = pytest.importorskip("scipy.special")
        for x in (-0.25, -1.3, -3.7, 0.2):
            want = float(scipy_special.gamma(x))
            assert abs(gamma(x) - want) / abs(want) <= 1e-12

    def test_finite_up_to_overflow(self):
        # Gamma(142.3) ~ 8.4e243 is finite; a Lanczos fit overflowed there
        scipy_special = pytest.importorskip("scipy.special")
        want = float(scipy_special.gamma(142.3))
        assert math.isfinite(gamma(142.3))
        assert abs(gamma(142.3) - want) / want <= 1e-15

    def test_overflow_has_the_sign_of_x(self):
        # math.gamma overflows past 171.6 and next to 0, where the pole
        # check comes first: an overflow is always +inf
        assert gamma(171.7) == math.inf
        for x in (1e-320, -1e-320):
            with pytest.raises(PoleError):
                gamma(x)

    def test_poles(self):
        for x in (0.0, -1.0, -5.0, -2.0 + 1e-12):
            with pytest.raises(PoleError):
                gamma(x)

    def test_duplication(self):
        for i in range(96):
            x = 0.5 + i * 0.1
            lhs = gamma(2.0 * x)
            rhs = 2.0 ** (2.0 * x - 1.0) * gamma(x) * gamma(x + 0.5) / SQRT_PI
            assert abs(lhs - rhs) / abs(lhs) <= 1e-11

    def test_rgamma_zero_at_poles(self):
        assert rgamma(0.0) == 0.0
        assert rgamma(-4.0) == 0.0
        assert abs(rgamma(3.0) - 0.5) <= 1e-14

    def test_rgamma_never_raises_where_gamma_underflows(self):
        # Gamma underflows to +-0 below about -171; 1/Gamma keeps its sign
        assert rgamma(-200.5) == -math.inf
        assert rgamma(-180.3) == -math.inf
        assert rgamma(-171.5) == math.inf

    def test_infinities_and_nan(self):
        # Gamma overflows to +inf at +inf, so 1/Gamma is 0 there; at -inf
        # and nan neither has a value, and the error is typed
        assert gamma(math.inf) == math.inf
        assert rgamma(math.inf) == 0.0
        for f in (gamma, rgamma):
            for x in (-math.inf, math.nan):
                with pytest.raises(DomainError):
                    f(x)


class TestHyp2F1Type:
    def test_terminating_degree_from_a(self):
        assert Hyp2F1(-2.0, 3.0, 1.0).terminating_degree == 2

    def test_terminating_degree_smallest(self):
        assert Hyp2F1(-5.0, -2.0, 1.3).terminating_degree == 2

    def test_non_terminating(self):
        assert Hyp2F1(0.5, 1.5, 2.0).terminating_degree is None

    def test_non_finite_parameters_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            for abc in ((bad, 1.0, 1.0), (0.5, bad, 1.5), (0.5, 1.0, bad)):
                with pytest.raises(InvalidParams):
                    Hyp2F1(*abc)

    def test_pole_in_c_rejected(self):
        with pytest.raises(PoleError):
            Hyp2F1(0.5, 1.5, -1.0)

    def test_pole_in_c_saved_by_termination(self):
        p = Hyp2F1(-1.0, 1.5, -2.0)
        assert p.terminating_degree == 1

    def test_no_series_reaches_a_pole_in_c(self):
        # every c within DEFAULT_POLE_TOL of -n is rejected, or its series
        # stops before term n, so the summation never meets the pole
        for n in range(6):
            for frac in (-0.999, -0.1, 0.0, 0.1, 0.999):
                c = -n + frac * DEFAULT_POLE_TOL
                for d in range(8):
                    for a, b in ((-float(d), 0.7), (0.5, -d + 1e-11), (0.5, 0.7)):
                        try:
                            p = Hyp2F1(a, b, c)
                        except PoleError:
                            continue
                        assert p.terminating_degree is not None
                        assert p.terminating_degree < n, (a, b, c)
                        assert math.isfinite(hyp2f1(p, 0.3))


class TestHyp2F1Eval:
    def test_at_zero(self):
        assert hyp2f1(Hyp2F1(1.7, -0.3, 2.2), 0.0) == 1.0

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_typed(self, z):
        # named before a route is chosen: a terminating sum would be nan,
        # and the other routes would reject z for their domain alone
        for p in (Hyp2F1(-2.0, 3.0, 1.0), Hyp2F1(0.4, 0.7, 1.9)):
            with pytest.raises(DomainError, match=f"^argument must be finite, got z={z!r}$"):
                hyp2f1(p, z)

    def test_polynomial_oracle(self):
        # 2F1(-2,3;1;z) = 1 - 6z + 6z^2
        z = 0.5
        assert hyp2f1(Hyp2F1(-2.0, 3.0, 1.0), z) == pytest.approx(
            1.0 - 6.0 * z + 6.0 * z * z, abs=1e-15
        )
        assert hyp2f1(Hyp2F1(-2.0, 3.0, 1.0), 0.5) == -0.5

    def test_degree_one_oracle(self):
        r = 0.3
        z = (1.0 - r) / 2.0
        assert hyp2f1(Hyp2F1(-1.0, 2.0, 1.0), z) == pytest.approx(r, abs=1e-15)

    def test_direct_sum_agreement(self):
        rng = SplitMix64(7)
        for _ in range(200):
            a = rng.uniform(-4.0, 4.0)
            b = rng.uniform(-4.0, 4.0)
            c = rng.uniform(0.2, 5.0)
            z = rng.uniform(-0.3, 0.3)
            got = hyp2f1(Hyp2F1(a, b, c), z)
            want = direct_2f1(a, b, c, z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_symmetry_bitwise(self):
        rng = SplitMix64(11)
        for _ in range(50):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 3.0)
            c = rng.uniform(0.3, 4.0)
            z = rng.uniform(-0.9, 0.95)
            assert hyp2f1(Hyp2F1(a, b, c), z) == hyp2f1(Hyp2F1(b, a, c), z)

    @pytest.mark.parametrize("route, lo, hi", [
        ("series", -0.5, 0.5), ("pfaff", -1.0, -0.5), ("connection", 0.5, 1.0)])
    def test_symmetry_bitwise_on_every_route(self, route, lo, hi):
        # (a, b; c) and (b, a; c), each built afresh, give the same bits or
        # the same error: values on each non-terminating route, and the jets
        # of the routes that have one (the series, and the row of w1)
        jets = {"series": _hyp2f1_jet, "connection": row_jet}.get(route)
        rng = SplitMix64(29)
        for _ in range(500):
            a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            c = rng.uniform(0.3, 4.0)
            z = rng.uniform(lo, hi)
            for f in (hyp2f1, jets) if jets else (hyp2f1,):
                given, swapped = (outcome(f, Hyp2F1(*abc), z) for abc in ((a, b, c), (b, a, c)))
                assert given == swapped, (route, f.__name__, a, b, c, z)

    def test_terminating_exact_and_stable(self):
        # a polynomial is summed whole far outside the disc of convergence,
        # and a warm memo gives the same bits as a fresh one
        p = Hyp2F1(-3.0, 2.2, 1.4)
        got = hyp2f1(p, 7.3)
        want = direct_2f1(-3.0, 2.2, 1.4, 7.3, terms=4)
        assert abs(got - want) <= 1e-13 * abs(want)
        assert hyp2f1(p, 7.3) == got == hyp2f1(Hyp2F1(-3.0, 2.2, 1.4), 7.3)

    def test_dispatch_region_against_oracle(self):
        # 0.5 < z < 1 goes through the connection formula; the fixed-length
        # direct sum still converges at z = 0.8 and is fully independent
        p = Hyp2F1(0.4, 0.7, 1.9)
        got = hyp2f1(p, 0.8)
        want = direct_2f1(0.4, 0.7, 1.9, 0.8, terms=400)
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_negative_argument_against_oracle(self):
        p = Hyp2F1(0.4, 0.7, 1.9)
        got = hyp2f1(p, -0.8)
        want = direct_2f1(0.4, 0.7, 1.9, -0.8, terms=400)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_gauss_point(self):
        a, b, c = 0.3, 0.4, 2.0
        got = hyp2f1(Hyp2F1(a, b, c), 1.0)
        want = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_gauss_point_past_the_float_range_typed(self):
        # Gamma(1202) / Gamma(601.5)^2 = 7.9e359 (mpmath) itself overflows
        p = Hyp2F1(-600.5, -600.5, 1.0)
        with pytest.raises(DomainError, match="float range"):
            hyp2f1(p, 1.0)

    @pytest.mark.parametrize("a, b, c", [
        (-200.5, 0.25, 0.5),  # Gamma(200.75) overflows, 1/Gamma(201) underflows
        (1.0, -200.25, 0.5),  # the same, and Gamma(c-a) = Gamma(-0.5) < 0
        (-0.5, -700.25, 1.5),
        (-50.25, 190.5, 150.0),  # 1/Gamma(200.25) underflows: the product read 0
        (3.5, -175.25, 0.5),  # 1/Gamma(c-a) = 1/Gamma(-3) = 0 beside an inf
    ])
    def test_gauss_point_with_a_gamma_past_the_float_range(self, a, b, c):
        # the value itself is a float: formed from lgamma and the signs
        with mpmath.workdps(40):
            want = [float(mpmath.hyp2f1(a, b, c, 1))]
        p = Hyp2F1(a, b, c)
        got = hyp2f1(p, 1.0)
        assert abs(got - want[0]) <= 1e-11 * abs(want[0]) and (got == 0.0) == (want[0] == 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1(Hyp2F1(0.3, 0.4, 0.5), 1.2)
        with pytest.raises(DomainError):
            hyp2f1(Hyp2F1(0.3, 3.4, 0.5), 1.0)  # c-a-b < 0 at z=1
        with pytest.raises(DomainError):
            hyp2f1(Hyp2F1(0.3, 0.4, 0.5), -1.5)

    def test_no_convergence(self):
        # large upper parameters need more than the 500-term budget at 0.5
        with pytest.raises(NoConvergence, match="did not reach"):
            hyp2f1(Hyp2F1(150.3, 150.7, 1.1), 0.5)

    def test_overflow_raises(self):
        # the partial sums pass the float range; inf then meets the
        # relative stopping test, so only a finiteness check catches it
        with pytest.raises(NoConvergence, match="leaves the float range"):
            hyp2f1(Hyp2F1(400.3, 400.7, 0.5), 0.5)
        with pytest.raises(NoConvergence, match="leaves the float range"):
            hyp2f1(Hyp2F1(-300.0, 400.5, 0.5), 2.0)  # terminating

    def test_degenerate_dispatch(self):
        # integer c-a-b blocks the connection path for non-terminating series
        with pytest.raises(DegenerateCase):
            hyp2f1(Hyp2F1(0.3, 0.7, 2.0), 0.8)


class TestDerivative:
    def test_leading_coefficient(self):
        assert _hyp2f1_jet(Hyp2F1(-2.0, 3.0, 1.0), 0.0)[1] == -6.0
        p = Hyp2F1(1.3, 0.4, 2.7)
        assert _hyp2f1_jet(p, 0.0)[1] == pytest.approx(
            p.a * p.b / p.c, abs=1e-15
        )

    def test_degree_one(self):
        assert _hyp2f1_jet(Hyp2F1(-1.0, 2.0, 1.0), 0.4)[1] == -2.0

    def test_against_central_differences(self):
        p = Hyp2F1(0.6, 1.4, 2.3)
        f = lambda z: hyp2f1(p, z)
        for z in (0.1, 0.3, -0.2):
            fd = central_diff(f, z, 1e-6)
            assert abs(_hyp2f1_jet(p, z)[1] - fd) <= 1e-8 * (1.0 + abs(fd))


class TestPfaff:
    def test_parameter_swap(self):
        q, power = pfaff_transform(Hyp2F1(-2.0, 3.0, 1.0))
        assert (q.a, q.b, q.c) == (3.0, -2.0, 1.0)
        assert power == 0.0

    def test_power(self):
        q, power = pfaff_transform(Hyp2F1(0.5, 0.5, 1.5))
        assert (q.a, q.b, q.c) == (1.0, 1.0, 1.5)
        assert power == 0.5

    def test_numeric_consistency(self):
        p = Hyp2F1(0.5, 0.5, 1.5)
        q, power = pfaff_transform(p)
        z = 0.3
        lhs = hyp2f1(p, z)
        rhs = (1.0 - z) ** power * hyp2f1(q, z)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_involution_exact_on_dyadic_grid(self):
        # dyadic parameters make the subtractions exact, so the double
        # transform must reproduce the triple bitwise
        vals = [k / 8.0 for k in range(-20, 21)]
        for a in vals[::5]:
            for b in vals[::7]:
                for c in (0.25, 1.5, 2.125, 3.75):
                    p = Hyp2F1(a, b, c)
                    q, _ = pfaff_transform(p)
                    back, _ = pfaff_transform(q)
                    assert (back.a, back.b, back.c) == (p.a, p.b, p.c)

    def test_prefactor_past_the_float_range_typed(self):
        # (1-z)^(-a) = 1.8^1500.25 is past the float range (mpmath's 2F1 is
        # 5.19e376): DomainError, not the bare OverflowError of the power
        with pytest.raises(DomainError, match="float range"):
            hyp2f1(Hyp2F1(0.01, -1500.25, 1.5), -0.8)


class TestConnection:
    def test_terminating_case(self):
        # terminating series evaluate directly on both sides
        p = Hyp2F1(-2.0, 3.0, 1.3)
        z = 0.6
        lhs = math.sin(math.pi * (p.c - p.a - p.b)) / math.pi * hyp2f1(p, z)
        rhs = row_sum(p, z)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_degree_one_polynomials(self):
        # hyp2f1 sums a polynomial directly at every z; the row of w1 gives
        # it on both sides of the split of its non-terminating routes
        p = Hyp2F1(-1.0, 2.4, 1.7)
        for z in (0.2, 0.5, 0.9):
            lhs = math.sin(math.pi * (p.c - p.a - p.b)) / math.pi * hyp2f1(p, z)
            assert abs(row_sum(p, z) - lhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_non_terminating_against_direct_sum(self):
        a, b, c = 0.4, 0.7, 1.9
        z = 0.6
        lhs = math.sin(math.pi * (c - a - b)) / math.pi * direct_2f1(a, b, c, z, 400)
        rhs = row_sum(Hyp2F1(a, b, c), z)
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))

    def test_finite_limit_near_one(self):
        p = Hyp2F1(0.3, 0.4, 2.0)  # c-a-b > 0
        val = row_sum(p, 1.0 - 1e-8)
        lim = math.sin(math.pi * (p.c - p.a - p.b)) / math.pi * hyp2f1(p, 1.0)
        assert abs(val - lim) <= 1e-6 * (1.0 + abs(lim))

    def test_integer_difference_degenerate(self):
        with pytest.raises(DegenerateCase):
            row_sum(Hyp2F1(0.3, 0.7, 2.0), 0.6)

    def test_zero_difference_typed(self):
        # c-a-b exactly 0: the check runs before pi/sin(pi(c-a-b)) is formed
        with pytest.raises(DegenerateCase):
            hyp2f1(Hyp2F1(0.5, 0.25, 0.75), 0.8)

    def test_power_past_the_float_range_typed(self):
        # w^(c-a-b) = 0.001^-109.8 overflows: DomainError, not the bare
        # OverflowError of the power
        with pytest.raises(DomainError, match="float range"):
            hyp2f1(Hyp2F1(50.3, 60.2, 0.7), 0.999)


class TestConnectionPlan:
    def test_equality_and_hash_ignore_plan(self):
        p, q = Hyp2F1(0.4, 0.7, 1.9), Hyp2F1(0.4, 0.7, 1.9)
        hyp2f1(p, 0.8)
        assert "_plan" in vars(p)
        assert p == q and hash(p) == hash(q)
        assert {p: "x"}[q] == "x"
        assert p != Hyp2F1(0.4, 0.7, 2.0)

    def test_shared_with_connection_identity(self):
        # one plan serves hyp2f1 and a row summed apart alike
        a, b, c = 0.4, 0.7, 1.9
        used = Hyp2F1(a, b, c)
        for z in (0.6, 0.8, 0.95):
            value = hyp2f1(used, z)
            got = row_sum(used, z)
            assert value == used._plan.row(0)[0] * got
            assert got == row_sum(Hyp2F1(a, b, c), z)
            lhs = math.sin(math.pi * (c - a - b)) / math.pi * value
            assert abs(got - lhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_unrepresentable_coefficient_raises(self):
        # 1/Gamma(a+b-c+1) = 1/Gamma(-200.9) is past the float range while
        # 1/Gamma(c-a) = 1/Gamma(202.2) rounds to 0: a plan must not hand
        # their product, nan, to the connection formula
        p = Hyp2F1(-200.5, 0.3, 1.7)
        with pytest.raises(DomainError):
            hyp2f1(p, 0.7)
        with pytest.raises(DomainError):
            p._plan.jet(0, _UNKNOWN)  # a jet's row, before any jet is read


class TestSeriesMemo:
    """Each Hyp2F1 keeps the coefficients c_k it has summed; a warm
    instance must return what a fresh one returns."""

    TRIPLES = [(0.6, 1.4, 2.3), (-1.7, 2.9, 0.6), (0.4, 0.7, 1.9), (-3.0, 2.2, 1.4)]
    # series, connection and Pfaff points, in the order the memo grows
    # least to most and back
    ZS = [0.45, 0.05, 0.49, -0.3, 0.8, -0.8, 0.95, 0.0]

    def test_warm_equals_fresh_in_any_order(self):
        for abc in self.TRIPLES:
            fresh = {z: hyp2f1(Hyp2F1(*abc), z) for z in self.ZS}
            for order in (self.ZS, self.ZS[::-1], sorted(self.ZS)):
                p = Hyp2F1(*abc)
                for z in order:
                    assert hyp2f1(p, z) == fresh[z], (abc, z)
                    assert hyp2f1(p, z) == fresh[z], (abc, z)

    def test_term_budget_holds_past_a_warm_memo(self):
        # the series converges at 0.45 and leaves its c_k in the memo; at
        # 0.5 it reads them, grows on and still stops at the budget
        abc = (150.3, 150.7, 1.1)
        with pytest.raises(NoConvergence) as fresh:
            hyp2f1(Hyp2F1(*abc), 0.5)
        p = Hyp2F1(*abc)
        hyp2f1(p, 0.45)
        assert 1 < len(vars(p)["_coefs"]) < _MAX_TERMS + 1
        with pytest.raises(NoConvergence) as warm:
            hyp2f1(p, 0.5)
        assert str(warm.value) == str(fresh.value)

    def test_memo_never_exceeds_the_budget(self):
        p = Hyp2F1(150.3, 150.7, 1.1)
        with pytest.raises(NoConvergence):
            hyp2f1(p, 0.5)
        assert len(vars(p)["_coefs"]) == _MAX_TERMS + 1
        # a terminating series longer than the budget is still summed whole
        q = Hyp2F1(-700.0, 0.5, 1.5)
        value = hyp2f1(q, 1e-3)
        memo = vars(q)["_coefs"]
        assert len(memo) == q.terminating_degree + 1
        # a warm call finds every coefficient, so nothing is republished
        assert hyp2f1(q, 1e-3) == value
        assert vars(q)["_coefs"] is memo
        want = direct_2f1(-700.0, 0.5, 1.5, 1e-3, terms=701)
        assert abs(value - want) <= 1e-14 * abs(want)

    def test_memo_stops_where_the_coefficients_leave_the_float_range(self):
        # c_k of (-1e6, 0.5; 1.5) passes the float range at k = 68, a million
        # terms short of the degree: the memo stops there, and values and
        # jets raise without summing a prefix, on every call
        p = Hyp2F1(-1e6, 0.5, 1.5)
        for _ in range(2):
            with pytest.raises(NoConvergence, match="leaves the float range"):
                hyp2f1(p, 0.3)
            with pytest.raises(NoConvergence, match="leaves the float range"):
                _hyp2f1_jet(p, 0.3)
            assert len(vars(p)["_coefs"]) < 1000

    def test_terminating_memo_ends_at_its_first_zero(self):
        # c_k of (-1e6, 0.5; 1e7) underflows to 0.0 at k = 323: the memo
        # ends there, not at the degree, with the values of the full sum
        p = Hyp2F1(-1e6, 0.5, 1e7)
        assert hyp2f1(p, 0.3) == 0.9853292778194882
        assert len(vars(p)["_coefs"]) <= 400 and vars(p)["_coefs"][-1] == 0.0
        # past |z| = 1 the zero terms still meet z^k: where it overflows the
        # full sum is nan, so a short memo raises as the full one did
        q = Hyp2F1(-1e4, 0.5, 1e5)
        for z, want in ((0.3, 0.9853292436839564), (-0.9, 1.0482844137694778),
                        (1.0, 0.9534622641995145), (1.0001, 0.9534579302505796)):
            assert hyp2f1(q, z) == want == _hyp2f1_jet(q, z)[0], z
        for z in (2.0, -3.0):
            with pytest.raises(NoConvergence, match="leaves the float range"):
                hyp2f1(q, z)
            with pytest.raises(NoConvergence, match="leaves the float range"):
                _hyp2f1_jet(q, z)
        assert len(vars(q)["_coefs"]) <= 400

    def test_zeros_overflow_matches_the_direct_product(self):
        # next to |z| = max^(1/n) the logarithms alone cannot tell whether
        # z^n, formed one factor at a time as the sums form it, overflows:
        # there the products decide, and every answer is the product's
        log_max = math.log(sys.float_info.max)
        answers, logs_wrong = set(), 0
        for n in [*range(2, 40), 100, 499]:
            edge = math.exp(log_max / n)
            below, above = [edge], [edge]
            for _ in range(20):  # 20 floats on each side
                below.append(math.nextafter(below[-1], 0.0))
                above.append(math.nextafter(above[-1], math.inf))
            for z in below + above[1:]:
                want = math.prod([z] * n) == math.inf
                assert _zeros_overflow(z, n) is want is _zeros_overflow(-z, n), (z, n)
                answers.add(want)
                logs_wrong += want != (n * math.log(z) > log_max)
        assert answers == {True, False} and logs_wrong > 0

    def test_equality_and_hash_ignore_memo(self):
        p, q = Hyp2F1(0.4, 0.7, 1.9), Hyp2F1(0.4, 0.7, 1.9)
        hyp2f1(p, 0.3)
        hyp2f1(p, -0.8)
        assert "_coefs" in vars(p) and "_coefs" in vars(p._pfaff)
        assert p == q and hash(p) == hash(q)
        assert {p: "x"}[q] == "x"

    def test_published_memo_is_never_mutated(self):
        p = Hyp2F1(0.6, 1.4, 2.3)
        hyp2f1(p, 0.05)
        short = vars(p)["_coefs"]
        kept = list(short)
        hyp2f1(p, 0.49)  # needs more terms than z = 0.05
        longer = vars(p)["_coefs"]
        assert longer is not short and list(short) == kept
        assert len(longer) > len(kept) and list(longer[:len(kept)]) == kept

    def test_threads_sharing_instances(self):
        # threads growing the memos of shared instances, switching often,
        # must each see the values of a fresh instance
        abc = (0.6, 1.4, 2.3)
        zs = [0.03 * i for i in range(17)]
        fresh = [hyp2f1(Hyp2F1(*abc), z) for z in zs]
        shared = [Hyp2F1(*abc) for _ in range(60)]
        wrong = []

        def work(step):
            for p in shared:
                for i in range(len(zs)):
                    j = (i * step) % len(zs)
                    if hyp2f1(p, zs[j]) != fresh[j]:
                        wrong.append((step, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(step,)) for step in (1, 3, 5, 16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestInversion:
    def test_order_zero(self):
        assert inversion_15_8_6(0, 2.0, 0.5, 0.7) == 1.0

    def test_hand_expanded_degree_one(self):
        # m=1, b=2, c=0.5: lhs = -(0.5/2)(1-4z), rhs = z(1 - 0.25/z)
        z = 0.7
        lhs = -(0.5 / 2.0) * (1.0 - 4.0 * z)
        rhs = inversion_15_8_6(1, 2.0, 0.5, z)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_degree_two_oracle(self):
        m, b, c, z = 2, 3.0, 0.5, 2.0
        lhs = (-1.0) ** m * rising(c, m) / rising(b, m) * direct_2f1(-m, b, c, z, m + 1)
        rhs = inversion_15_8_6(m, b, c, z)
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))


class TestQuadratic:
    def test_trivial_at_zero(self):
        assert quadratic_15_8_20(0.7, 1.3, 0.0) == 1.0

    def test_degree_one_polynomial_oracle(self):
        # a=-1, c=0.5: lhs = 2F1(-1,2;0.5;z) = 1 - 4z
        a, c, z = -1.0, 0.5, 0.2
        lhs = 1.0 - 4.0 * z
        rhs = quadratic_15_8_20(a, c, z)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_generic_below_half(self):
        for a, c, z in ((0.3, 1.4, 0.2), (1.2, 0.8, 0.3), (0.3, 1.4, 0.45)):
            lhs = hyp2f1(Hyp2F1(a, 1.0 - a, c), z)
            rhs = quadratic_15_8_20(a, c, z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_scipy_cross_check():
    scipy_special = pytest.importorskip("scipy.special")
    rng = SplitMix64(23)
    for _ in range(60):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.3, 4.0)
        z = rng.uniform(-0.95, 0.95)
        p = Hyp2F1(a, b, c)
        if p.terminating_degree is None and abs(z) > 0.5:
            cab = c - a - b
            if abs(cab - round(cab)) < 0.05:
                continue
        want = float(scipy_special.hyp2f1(a, b, c, z))
        got = hyp2f1(p, z)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
