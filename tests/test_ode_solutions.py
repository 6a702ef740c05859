import math

import pytest

from hyplegendre import (
    BranchId,
    ComplexExponent,
    CoordinateMap,
    DegenerateC,
    DegenerateCase,
    DomainError,
    Hyp2F1,
    InvalidParams,
    MapVariant,
    OdeParams,
    RootMismatch,
    SolutionBranch,
    build_branch,
    connection_check,
    evaluate,
    indicial_exponents,
    reduced_equation_coefficients,
    residual,
)
from hyplegendre.ode_solutions import root_residual, value_and_derivatives
from hyplegendre.rng import SplitMix64, _pair_safe, draw_nondegenerate, draw_ode_params

from oracles import central_diff, chebyshev_points


NON_FINITE_EXPONENTS = ((math.nan, math.nan), (math.nan, 0.0), (0.0, math.inf),
                        (-math.inf, 0.0))


def classical_params(k: int) -> OdeParams:
    return OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                     lam=float(k * (k + 1)), xi1=-1.0, xi2=1.0)


class TestOdeParams:
    def test_interval_invariant(self):
        with pytest.raises(InvalidParams):
            OdeParams(a1=0, b1=0, a2=0, b2=0, a3=0, b3=0, c3=0,
                      lam=0, xi1=1.0, xi2=1.0)

    def test_json_round_trip(self):
        p = classical_params(2)
        d = p.to_dict()
        assert d["lambda"] == 6.0
        assert OdeParams.from_dict(d) == p


class TestIndicial:
    def test_classical(self):
        exps = indicial_exponents(classical_params(2))
        assert exps.mu1.as_tuple() == (0.0, 0.0)
        assert exps.mu2.as_tuple() == (0.0, 0.0)
        assert exps.mu_inf.as_tuple() == (-2.0, 3.0)
        assert not exps.mu_inf.is_complex

    def test_all_zero_infinity_roots(self):
        p = OdeParams(a1=0, b1=0, a2=0, b2=0, a3=0, b3=0, c3=0,
                      lam=0.0, xi1=-1.0, xi2=1.0)
        assert indicial_exponents(p).mu_inf.as_tuple() == (-1.0, 0.0)

    def test_universal_embedding_half_root(self):
        from hyplegendre import UniversalParams, universal_ode_embedding

        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        p = universal_ode_embedding(u)
        exps = indicial_exponents(p)
        assert any(abs(r - 0.5) <= 1e-12 for r in exps.mu1.as_tuple())
        assert root_residual(p, "mu1", 0.5) <= 1e-12

    def test_root_property_seeded(self):
        rng = SplitMix64(3)
        for _ in range(100):
            p = draw_ode_params(rng)
            exps = indicial_exponents(p)
            for name, pair in (("mu1", exps.mu1), ("mu2", exps.mu2),
                               ("mu_inf", exps.mu_inf)):
                if pair.is_complex:
                    continue
                for root in pair.as_tuple():
                    assert root_residual(p, name, root) <= 1e-10

    def test_ordering(self):
        rng = SplitMix64(4)
        for _ in range(50):
            exps = indicial_exponents(draw_ode_params(rng))
            for pair in (exps.mu1, exps.mu2, exps.mu_inf):
                if not pair.is_complex:
                    assert pair.first <= pair.second

    def test_complex_pair_flagged(self):
        p = OdeParams(a1=0, b1=0, a2=0, b2=10.0, a3=0, b3=0, c3=0,
                      lam=1.0, xi1=-1.0, xi2=1.0)
        exps = indicial_exponents(p)
        assert exps.mu1.is_complex
        re, im = exps.mu1.first, exps.mu1.second
        assert im > 0
        # conjugate pair satisfies the quadratic in complex arithmetic
        from hyplegendre.ode_solutions import _quadratic_coeffs

        b, c = _quadratic_coeffs(p)[0]
        z = complex(re, im)
        assert abs(z * z + b * z + c) <= 1e-10

    @pytest.mark.parametrize("field, value, message", [
        ("xi2", 1e200, r"^1e\+200\^2 leaves the float range$"),  # the squared width
        ("a1", 1e200, r"^mu2 roots \(0\.0, inf\) are not finite$"),  # B^2 of a monic
    ])
    def test_past_the_float_range_typed(self, field, value, message):
        # a bare OverflowError, and roots inf with residuals nan, before
        p = OdeParams(**{**dict(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                                lam=1.0, xi1=0.0, xi2=1.0), field: value})
        with pytest.raises(DomainError, match=message):
            indicial_exponents(p)


class TestReducedCoefficients:
    def test_classical(self):
        p = classical_params(2)
        assert reduced_equation_coefficients(p, 0.0, 0.0) == (-2.0, 0.0, 6.0)

    def test_balanced_slope(self):
        rng = SplitMix64(5)
        for _ in range(20):
            p, exps = draw_nondegenerate(rng)
            mu1, mu2 = exps.mu1.second, exps.mu2.second
            a_coef, _, c_coef = reduced_equation_coefficients(p, mu1, mu2)
            # slope collapses to -2 exactly when a1 = 2(mu1+mu2-1)
            assert a_coef == pytest.approx(p.a1 - 2.0 * (mu1 + mu2), abs=1e-12)
            if p.a3 == 0.0 and abs(mu1 + mu2) < 1e-14:
                assert c_coef == pytest.approx(p.lam, abs=1e-12)

    def test_root_mismatch(self):
        with pytest.raises(RootMismatch):
            reduced_equation_coefficients(classical_params(2), 0.3, 0.0)

    def test_non_finite_exponents(self):
        # a nan root residual compares false with the tolerance; the
        # exponents are checked first
        for mu1, mu2 in NON_FINITE_EXPONENTS:
            with pytest.raises(InvalidParams):
                reduced_equation_coefficients(classical_params(2), mu1, mu2)


class TestCoordinateMap:
    def test_endpoints_exact(self):
        for xi1, xi2 in ((-1.0, 1.0), (0.0, 1.0), (-2.7, 0.43)):
            m1 = CoordinateMap(MapVariant.MAP_I, xi1, xi2)
            m2 = CoordinateMap(MapVariant.MAP_II, xi1, xi2)
            assert m1.z(xi1) == 0.0 and m1.z(xi2) == 1.0
            assert m2.z(xi2) == 0.0 and m2.z(xi1) == 1.0


class TestBuildBranch:
    def test_classical_hat1(self):
        br = build_branch(classical_params(2), 0.0, 0.0, BranchId.HAT1)
        assert (br.hyp.a, br.hyp.b, br.hyp.c) == (-2.0, 3.0, 1.0)
        assert br.map.variant is MapVariant.MAP_I
        assert br.extra_power == 0.0

    def test_classical_breve1(self):
        br = build_branch(classical_params(2), 0.0, 0.0, BranchId.BREVE1)
        assert (br.hyp.a, br.hyp.b, br.hyp.c) == (3.0, -2.0, 1.0)
        assert br.map.variant is MapVariant.MAP_II

    def test_square_past_the_float_range_typed(self):
        # ((a1 + 1)/2)^2 of the square root's argument: was a bare OverflowError
        p = OdeParams(a1=1e200, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=1.0, xi1=-1.0, xi2=1.0)
        with pytest.raises(DomainError, match=r"^5e\+199\^2 leaves the float range$"):
            build_branch(p, 0.0, 0.0, BranchId.HAT1)

    def test_classical_hat2_degenerate(self):
        with pytest.raises(DegenerateC):
            build_branch(classical_params(2), 0.0, 0.0, BranchId.HAT2)

    def test_non_finite_exponents(self):
        p = classical_params(2)
        for mu1, mu2 in NON_FINITE_EXPONENTS:
            for bid in BranchId:
                with pytest.raises(InvalidParams):
                    build_branch(p, mu1, mu2, bid)
            for hat in (BranchId.HAT1, BranchId.HAT2):
                with pytest.raises(InvalidParams):
                    connection_check(p, mu1, mu2, 0.3, hat=hat)

    def test_complex_exponent(self):
        p = OdeParams(a1=-2.0, b1=0, a2=0, b2=0, a3=0, b3=0, c3=0,
                      lam=-5.0, xi1=-1.0, xi2=1.0)
        with pytest.raises(ComplexExponent):
            build_branch(p, 0.0, 0.0, BranchId.HAT1)

    def test_second_kind_parameters(self):
        rng = SplitMix64(6)
        p, exps = draw_nondegenerate(rng)
        mu1, mu2 = exps.mu1.second, exps.mu2.second
        hat1 = build_branch(p, mu1, mu2, BranchId.HAT1)
        hat2 = build_branch(p, mu1, mu2, BranchId.HAT2)
        assert hat2.hyp.c == pytest.approx(2.0 - hat1.hyp.c, abs=1e-12)
        assert hat2.extra_power == pytest.approx(1.0 - hat1.hyp.c, abs=1e-12)
        assert hat2.hyp.a == pytest.approx(hat1.hyp.a - hat1.hyp.c + 1.0, abs=1e-12)
        breve1 = build_branch(p, mu1, mu2, BranchId.BREVE1)
        breve2 = build_branch(p, mu1, mu2, BranchId.BREVE2)
        assert breve2.hyp.c == pytest.approx(2.0 - breve1.hyp.c, abs=1e-12)
        assert breve2.extra_power == pytest.approx(1.0 - breve1.hyp.c, abs=1e-12)


class TestEvaluate:
    def test_classical_k1_branches(self):
        p = classical_params(1)
        hat1 = build_branch(p, 0.0, 0.0, BranchId.HAT1)
        breve1 = build_branch(p, 0.0, 0.0, BranchId.BREVE1)
        # the two first-kind branches are the degree-1 polynomial in the two
        # opposite orientations of the interval
        assert evaluate(breve1, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert evaluate(hat1, 0.3) == pytest.approx(-0.3, abs=1e-15)

    def test_classical_k2_value(self):
        br = build_branch(classical_params(2), 0.0, 0.0, BranchId.HAT1)
        assert evaluate(br, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_vanishing_prefactor(self):
        from hyplegendre import UniversalParams, universal_ode_embedding

        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        p = universal_ode_embedding(u)
        br = build_branch(p, 0.5, 0.5, BranchId.BREVE1)
        assert abs(evaluate(br, -1.0 + 1e-12)) <= 1e-5

    def test_domain_error(self):
        br = build_branch(classical_params(2), 0.0, 0.0, BranchId.HAT1)
        for r in (-1.0, 1.0, -3.0, 2.4):
            with pytest.raises(DomainError):
                evaluate(br, r)

    def test_edge_factor_past_the_float_range_typed(self):
        # 4.9^700 overflows: DomainError, for values and jets alike, not the
        # bare OverflowError of the power
        p = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=1.0, xi1=0.0, xi2=5.0)
        br = build_branch(p, 700.0, 0.0, BranchId.HAT1)
        for call in (evaluate, value_and_derivatives):
            with pytest.raises(DomainError, match="float range"):
                call(br, 4.9)

    def test_extra_power_of_an_underflowed_z_typed(self):
        # a branch built by hand carries z^extra_power; next to xi1 = 0 on
        # a width of 4, z = r/4 underflows to 0.0 and z^-0.5 diverges:
        # DomainError, not the ZeroDivisionError of the power
        p = OdeParams(a1=0.0, b1=6.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=1.0, xi1=0.0, xi2=4.0)
        built = build_branch(p, 0.0, 0.0, BranchId.HAT2)
        br = SolutionBranch(mu1=0.0, mu2=0.0, extra_power=built.extra_power, hyp=built.hyp,
                            map=built.map, branch_id=BranchId.HAT2)
        assert br.extra_power == -0.5
        with pytest.raises(DomainError, match=r"^0\.0\^-0\.5 diverges$"):
            evaluate(br, 5e-324)
        assert evaluate(br, 0.5) == pytest.approx(evaluate(built, 0.5), rel=1e-14)

    def test_member_power_past_the_float_range_typed(self):
        # hat2 carries z^(1-c_hat) = z^-200.5, past the float range at
        # z = 0.001: DomainError naming the power, for values and for jets,
        # where it joins the edge factor's, alike
        p = OdeParams(a1=0.0, b1=3.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=1.0, xi1=-1.0, xi2=1.0)
        br = build_branch(p, 100.0, 0.0, BranchId.HAT2)
        assert br.extra_power == -200.5
        with pytest.raises(DomainError, match="float range"):
            evaluate(br, -1.0 + 0.002)
        message = r"^0\.0010000000000000009\^-200\.5 leaves the float range$"
        with pytest.raises(DomainError, match=message):
            value_and_derivatives(br, -0.998)
        with pytest.raises(DomainError, match=message):
            residual(br, p, -0.998)

    @pytest.mark.parametrize("call", [evaluate, value_and_derivatives])
    def test_extra_power_past_the_float_range_typed(self, call):
        # a branch built by hand carries z^-2, past the float range at the
        # least subnormal z: DomainError, not the OverflowError of the power
        br = SolutionBranch(0.0, 0.0, -2.0, Hyp2F1(0.3, 0.7, 1.9),
                            CoordinateMap(MapVariant.MAP_I, 0.0, 1.0), BranchId.HAT1)
        with pytest.raises(DomainError, match=r"^5e-324\^-2\.0 leaves the float range$"):
            call(br, 5e-324)

    @pytest.mark.parametrize("bid, k", [(BranchId.HAT1, 0), (BranchId.HAT2, 1)])
    def test_value_past_the_float_range_typed(self, bid, k):
        # each power is in range, but their product, the edge factor
        # 0.1^-299 1.9^301, is not: evaluate returned inf for hat1 and nan
        # for hat2, where the jet already raised
        p = OdeParams(a1=0.0, b1=600.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=2.0, xi1=-1.0, xi2=1.0)
        br = build_branch(p, -299.0, 301.0, bid)
        with pytest.raises(DomainError, match=rf"^value of member {k} at r=-0\.9 is not finite$"):
            evaluate(br, -0.9)
        with pytest.raises(DomainError, match=rf"^jet of member {k} at r=-0\.9 is not finite$"):
            value_and_derivatives(br, -0.9)

    def test_jet_on_an_interval_past_1e154(self):
        # (r-xi1)^2 and (xi2-r)^2 of the edge factor's jet leave the float
        # range here; the jet stays finite, F as evaluate gives it and F'
        # as a central difference does.  The equation's own coefficients
        # leave it too, which residual reports
        p = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=1.0, xi1=0.0, xi2=1e200)
        r, h = 5e199, 1e196
        for bid in BranchId:
            br = build_branch(p, 0.3, 0.2, bid)
            f, f1, f2 = value_and_derivatives(br, r)
            assert all(map(math.isfinite, (f, f1, f2))), bid
            assert f == pytest.approx(evaluate(br, r), rel=1e-13), bid
            slope = (evaluate(br, r + h) - evaluate(br, r - h)) / (2.0 * h)
            assert f1 == pytest.approx(slope, rel=1e-6), bid
            with pytest.raises(DomainError, match="float range"):
                residual(br, p, r)


class TestDerivatives:
    def test_against_central_differences(self):
        rng = SplitMix64(9)
        for _ in range(10):
            p, exps = draw_nondegenerate(rng)
            br = build_branch(p, exps.mu1.second, exps.mu2.second, BranchId.HAT1)
            r = p.xi1 + 0.41 * p.width
            h = 1e-6 * p.width
            f, f1, f2 = value_and_derivatives(br, r)
            g = lambda x: evaluate(br, x)
            assert f == pytest.approx(g(r), rel=1e-12)
            assert f1 == pytest.approx(central_diff(g, r, h), rel=1e-6, abs=1e-8)
            # the raw double difference is noise-limited at this step, so
            # check the second derivative against the differenced first
            g1 = lambda x: value_and_derivatives(br, x)[1]
            assert f2 == pytest.approx(central_diff(g1, r, h), rel=1e-6, abs=1e-8)


class TestResidual:
    def test_classical_points(self):
        p = classical_params(2)
        br = build_branch(p, 0.0, 0.0, BranchId.HAT1)
        for r in (-0.5, 0.1, 0.7):
            assert residual(br, p, r) <= 1e-10

    def test_seeded_branches(self):
        rng = SplitMix64(12)
        for _ in range(20):
            p, exps = draw_nondegenerate(rng)
            mu1, mu2 = exps.mu1.second, exps.mu2.second
            pts = chebyshev_points(p.xi1, p.xi2, 20)
            for branch_id in BranchId:
                br = build_branch(p, mu1, mu2, branch_id)
                assert max(residual(br, p, r) for r in pts) <= 1e-8

    def test_exponent_pair_symmetry(self):
        rng = SplitMix64(13)
        for _ in range(8):
            # redraw until every root pair, not only the upper one, is safe
            p, exps = draw_nondegenerate(rng)
            while not all(_pair_safe(p, mu1, mu2) for mu1 in exps.mu1.as_tuple()
                          for mu2 in exps.mu2.as_tuple()):
                p, exps = draw_nondegenerate(rng)
            pts = chebyshev_points(p.xi1, p.xi2, 8)
            for mu1 in exps.mu1.as_tuple():
                for mu2 in exps.mu2.as_tuple():
                    br = build_branch(p, mu1, mu2, BranchId.HAT1)
                    assert max(residual(br, p, r) for r in pts) <= 1e-8


class TestConnectionCheck:
    def test_seeded_draws(self):
        rng = SplitMix64(15)
        for _ in range(15):
            p, exps = draw_nondegenerate(rng)
            mu1, mu2 = exps.mu1.second, exps.mu2.second
            r = p.xi1 + 0.2 * p.width
            lhs, rhs = connection_check(p, mu1, mu2, r)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_second_variant_seeded(self):
        rng = SplitMix64(16)
        for _ in range(15):
            p, exps = draw_nondegenerate(rng)
            mu1, mu2 = exps.mu1.second, exps.mu2.second
            r = p.xi1 + 0.35 * p.width
            lhs, rhs = connection_check(p, mu1, mu2, r, hat=BranchId.HAT2)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_reciprocal_gamma_zeroes_terminating_term(self):
        # engineer a terminating first-kind branch: lambda chosen so the
        # lower upper-parameter lands exactly on -2, while the lower
        # parameters stay away from integers
        xi1, xi2 = -1.0, 1.0
        a1, b1, c3 = -2.0, 0.4, -0.3
        mu_hi = lambda t, b: ((1.0 - b) + math.sqrt((b - 1.0) ** 2 - 4 * (c3 / 4.0))) / 2.0
        t1 = (a1 * xi1 + b1) / 2.0
        t2 = (a1 * xi2 + b1) / 2.0
        mu1 = ((1.0 - t1) + math.sqrt((t1 - 1.0) ** 2 - c3)) / 2.0
        mu2 = ((t2 + 1.0) + math.sqrt((t2 + 1.0) ** 2 - c3)) / 2.0
        m_mid = mu1 + mu2 - (a1 + 1.0) / 2.0
        s = m_mid + 2.0  # forces a = m_mid - s = -2
        lam = s * s - ((a1 + 1.0) / 2.0) ** 2
        p = OdeParams(a1=a1, b1=b1, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=c3,
                      lam=lam, xi1=xi1, xi2=xi2)
        br = build_branch(p, mu1, mu2, BranchId.HAT1)
        assert br.hyp.terminating_degree == 2
        lhs, rhs = connection_check(p, mu1, mu2, 0.2)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_member_power_past_the_float_range_typed(self):
        # hat2's z^-104.5 at z = 1e-4: was a bare OverflowError
        p = OdeParams(a1=0.0, b1=3.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=1.0, xi1=-1.0, xi2=1.0)
        message = r"^9\.999999999998899e-05\^-104\.5 leaves the float range$"
        with pytest.raises(DomainError, match=message):
            connection_check(p, 52.0, 0.0, -1.0 + 2e-4, hat=BranchId.HAT2)

    def test_gamma_pole_of_a_terminating_hat_is_degenerate(self):
        # hat1 is F(-1.3, -1; -3), a polynomial that stops before its pole
        # in c, while G(c) in the coefficient of its row has the pole
        p = OdeParams(a1=1.3, b1=-4.7, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=-1.3, xi1=-1.0, xi2=1.0)
        exps = indicial_exponents(p)
        mu1, mu2 = exps.mu1.first, exps.mu2.second
        hat1 = build_branch(p, mu1, mu2, BranchId.HAT1)
        assert hat1.hyp.c == -3.0 and hat1.hyp.terminating_degree == 1
        with pytest.raises(DegenerateCase):
            connection_check(p, mu1, mu2, 0.2)
        lhs, rhs = connection_check(p, mu1, mu2, 0.2, hat=BranchId.HAT2)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_terms_kept_per_exponents(self):
        # the branches and coefficients are built once per (mu1, mu2, hat)
        # and give what a fresh parameter pack gives
        p, exps = draw_nondegenerate(SplitMix64(17))
        fresh = lambda: OdeParams.from_dict(p.to_dict())
        points = [p.xi1 + t * p.width for t in (0.2, 0.5, 0.8)]
        for mu1 in exps.mu1.as_tuple():
            for hat in (BranchId.HAT1, BranchId.HAT2, BranchId.HAT1):
                got = [connection_check(p, mu1, exps.mu2.second, r, hat=hat) for r in points]
                kept = vars(p)["_connection"]
                assert [connection_check(p, mu1, exps.mu2.second, r, hat=hat)
                        for r in points] == got
                assert vars(p)["_connection"] is kept
                q = fresh()
                assert [connection_check(q, mu1, exps.mu2.second, r, hat=hat)
                        for r in points] == got
        assert p == fresh() and hash(p) == hash(fresh())

    def test_degenerate_sine(self):
        p = classical_params(2)
        with pytest.raises(DegenerateCase):
            connection_check(p, 0.0, 0.0, 0.3)

    def test_only_hat_branches(self):
        p, exps = draw_nondegenerate(SplitMix64(15))
        mu1, mu2 = exps.mu1.second, exps.mu2.second
        for bid in (BranchId.BREVE1, BranchId.BREVE2):
            with pytest.raises(InvalidParams):
                connection_check(p, mu1, mu2, p.xi1 + 0.2 * p.width, hat=bid)
