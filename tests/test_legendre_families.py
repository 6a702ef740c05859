import math

import pytest

from hyplegendre import (
    BranchId,
    DegenerateC,
    DomainError,
    InvalidParams,
    LegendreTriple,
    NoConvergence,
    OdeParams,
    UniversalParams,
    build_branch,
    evaluate,
    generalized_solutions,
    indicial_exponents,
    kuipers_reduction_check,
    map_to_triple,
    quadratic_15_8_20,
    quadratic_path_check,
    universal_hypergeometric,
    universal_ode_embedding,
    universal_ode_residual,
    universal_sum,
)
from hyplegendre.legendre_families import universal_sum_derivatives
from hyplegendre.ode_solutions import root_residual

from oracles import legendre_recurrence


def classical_params(k: float) -> OdeParams:
    return OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                     lam=k * (k + 1.0), xi1=-1.0, xi2=1.0)


class TestMapToTriple:
    def test_generic_exponents(self):
        k0, n0, m0 = 2.0, 1.2, 0.7
        p = classical_params(k0)
        t = map_to_triple(p, n0 / 2.0, -m0 / 2.0)
        assert t.k == pytest.approx(-1.0 - k0, abs=1e-12)
        assert t.n == pytest.approx(n0, abs=1e-12)
        assert t.m == pytest.approx(m0, abs=1e-12)

    def test_zero_exponents(self):
        t = map_to_triple(classical_params(2.0), 0.0, 0.0)
        assert t.n == 0.0 and t.m == 0.0
        assert t.k == -3.0

    def test_vanishing_square_root(self):
        p = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.5, b3=0.0, c3=0.0,
                      lam=0.5 - 0.25, xi1=-1.0, xi2=1.0)
        # lam = a3 - ((1+a1)/2)^2 makes the root vanish
        assert map_to_triple(p, 0.1, 0.1).k == -0.5


class TestGeneralizedSolutions:
    def test_degree_one_value(self):
        p = classical_params(1.0)
        t = LegendreTriple(k=1.0, m=0.0, n=0.0)
        f1, f2 = generalized_solutions(t, 0.0, 0.0, p, 0.4)
        assert f1 == pytest.approx(0.4, abs=1e-15)
        assert f2 == pytest.approx(0.4, abs=1e-15)

    def test_edge_value(self):
        # at r = xi2 the argument hits 0 and only the prefactor survives
        p = classical_params(1.5)
        t = LegendreTriple(k=1.5, m=0.3, n=0.0)
        f1, _ = generalized_solutions(t, 0.0, 0.0, p, 1.0)
        assert f1 == pytest.approx(1.0, abs=1e-15)

    def test_matches_breve_branch(self):
        from hyplegendre.rng import SplitMix64, draw_nondegenerate

        rng = SplitMix64(21)
        for _ in range(5):
            p, exps = draw_nondegenerate(rng)
            mu1, mu2 = exps.mu1.second, exps.mu2.second
            t = map_to_triple(p, mu1, mu2)
            breve1 = build_branch(p, mu1, mu2, BranchId.BREVE1)
            breve2 = build_branch(p, mu1, mu2, BranchId.BREVE2)
            scale2 = p.width ** t.m  # edge-power convention differs by this
            for i in range(10):
                r = p.xi1 + (i + 0.5) / 10.0 * p.width
                f1, f2 = generalized_solutions(t, mu1, mu2, p, r)
                v1 = evaluate(breve1, r)
                v2 = evaluate(breve2, r) * scale2
                assert abs(f1 - v1) <= 1e-10 * (1.0 + abs(v1))
                assert abs(f2 - v2) <= 1e-10 * (1.0 + abs(v2))

    def test_classical_reduction_grid(self):
        for k in range(7):
            p = classical_params(float(k))
            t = LegendreTriple(k=float(k), m=0.0, n=0.0)
            for i in range(21):
                r = -0.95 + i * 0.095
                f1, _ = generalized_solutions(t, 0.0, 0.0, p, r)
                assert abs(f1 - legendre_recurrence(k, r)) <= 1e-11


    def test_triples_built_once(self):
        p = classical_params(1.5)
        t = LegendreTriple(k=1.5, m=0.3, n=0.2)
        got = [generalized_solutions(t, 0.1, -0.15, p, r) for r in (-0.5, 0.2, 0.7)]
        first, second = t._first, t._second
        assert [generalized_solutions(t, 0.1, -0.15, p, r) for r in (-0.5, 0.2, 0.7)] == got
        assert t._first is first and t._second is second
        fresh = LegendreTriple(k=1.5, m=0.3, n=0.2)
        assert [generalized_solutions(fresh, 0.1, -0.15, p, r) for r in (-0.5, 0.2, 0.7)] == got
        assert t == fresh and hash(t) == hash(fresh)

    def test_pole_in_one_triple_leaves_the_other(self):
        # m = -1 puts the lower parameter 1 + m of F2 on the pole; F1 and
        # the Kuipers check, which needs F1 only, are unaffected
        t = LegendreTriple(k=1.5, m=-1.0, n=0.4)
        with pytest.raises(DegenerateC):
            generalized_solutions(t, 0.0, 0.0, classical_params(1.5), 0.3)
        assert kuipers_reduction_check(t, -1.0, 1.0, 0.3) <= 1e-8


class TestKuipersReduction:
    def test_classical_point(self):
        t = LegendreTriple(k=2.0, m=0.0, n=0.0)
        assert kuipers_reduction_check(t, -1.0, 1.0, 0.25) <= 1e-10

    def test_half_integer_orders(self):
        t = LegendreTriple(k=2.5, m=0.5, n=1.5)
        assert kuipers_reduction_check(t, -1.0, 1.0, 0.5) <= 1e-8

    def test_shifted_interval(self):
        t = LegendreTriple(k=2.5, m=0.5, n=1.5)
        assert kuipers_reduction_check(t, 0.0, 1.0, 0.6) <= 1e-8
        t2 = LegendreTriple(k=1.7, m=-0.3, n=0.4)
        assert kuipers_reduction_check(t2, -0.5, 1.3, 0.33) <= 1e-8


class TestUniversalParams:
    def test_from_degrees(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)
        assert u.n_index == 2
        assert u.lam == 12.0
        assert u.m == 1.0

    def test_inconsistent_rejected(self):
        with pytest.raises(InvalidParams):
            UniversalParams(ell=3.0, mprime=1.0, a=0.0, b=0.0, c=0.0, m=1.0,
                            lam=5.0, n_index=2)
        with pytest.raises(InvalidParams):
            UniversalParams(ell=3.0, mprime=1.0, a=0.0, b=1.0, c=0.0, m=1.0,
                            lam=12.0, n_index=2)
        with pytest.raises(InvalidParams):
            UniversalParams.from_degrees(ell=3.3, mprime=1.0)

    def test_potential_split(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=2.0, a=1.0, c=2.0, m=1.0)
        assert u.mprime == 2.0
        assert u.lam == 10.0

    def test_json_round_trip(self):
        u = UniversalParams.from_degrees(ell=2.5, mprime=0.5)
        d = u.to_dict()
        assert d["lambda"] == u.lam
        assert UniversalParams.from_dict(d) == u


class TestUniversalSum:
    def test_single_term_value(self):
        # hand oracle: sqrt(3)/2 * sqrt(1-0.36)
        u = UniversalParams.from_degrees(ell=1.0, mprime=1.0)
        want = math.sqrt(3.0) / 2.0 * math.sqrt(1.0 - 0.36)
        assert want == pytest.approx(0.6928203230275509, abs=1e-15)
        assert universal_sum(u, 0.6) == pytest.approx(want, rel=1e-13)

    def test_edge_zero(self):
        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        assert universal_sum(u, 1.0) == 0.0
        assert universal_sum(u, -1.0) == 0.0

    def test_parity(self):
        for ell, mprime in ((3.0, 1.0), (4.5, 0.5), (4.0, 1.0)):
            u = UniversalParams.from_degrees(ell=ell, mprime=mprime)
            sign = (-1.0) ** u.n_index
            for i in range(10):
                r = 0.05 + i * 0.09
                assert abs(universal_sum(u, -r) - sign * universal_sum(u, r)) <= 1e-12
            if u.n_index % 2 == 1:
                assert universal_sum(u, 0.0) == 0.0

    def test_domain(self):
        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        with pytest.raises(DomainError):
            universal_sum(u, 1.2)

    def test_cancellation_raises(self):
        # the alternating terms cancel more as the degree grows: from about
        # degree 40 the error estimate exceeds the bound (finite but wrong
        # values, or inf and nan past ell ~ 71, before the check)
        for ell in (40.0, 60.0, 80.0):
            u = UniversalParams.from_degrees(ell=ell, mprime=1.0)
            for r in (-0.8, 0.5, 0.8):
                with pytest.raises(NoConvergence):
                    universal_sum(u, r)

    def test_coefficients_past_the_float_range_typed(self):
        # n_index = 180: math.factorial(180) does not convert to float
        u = UniversalParams.from_degrees(ell=181.0, mprime=1.0)
        for fn in (universal_sum, universal_sum_derivatives, universal_hypergeometric):
            with pytest.raises(NoConvergence):
                fn(u, 0.5)

    def test_moderate_degrees_accepted_and_accurate(self):
        # n_index <= 16 and |r| <= 0.95 pass the check, and what passes is
        # within the check's bound of a 40-digit oracle
        mpmath = pytest.importorskip("mpmath")
        for n in range(17):
            for mprime in (0.5, 1.0, 2.5):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                for r in (-0.95, -0.6, -0.2, 0.35, 0.7, 0.95):
                    got = universal_sum(u, r)
                    want = _universal_sum_mp(mpmath, u, r)
                    assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def _universal_sum_mp(mpmath, u, r):
    with mpmath.workdps(40):
        return float(_universal_sum_at(mpmath, u, mpmath.mpf(r)))


def _universal_sum_at(mpmath, u, x):
    """The sum form at the working precision of the caller."""
    n = u.n_index
    ell = mpmath.mpf(u.ell)
    poly = mpmath.fsum(
        (-1) ** nu * mpmath.gamma(2 * ell - 2 * nu + 1) * x ** (n - 2 * nu)
        / (2 ** ell * mpmath.factorial(nu) * mpmath.factorial(n - 2 * nu)
           * mpmath.gamma(ell - nu + 1))
        for nu in range(n // 2 + 1)
    )
    norm = mpmath.sqrt((2 * ell + 1) * mpmath.factorial(n)
                       / (2 * mpmath.gamma(ell + u.mprime + 1)))
    return norm * (1 - x * x) ** (mpmath.mpf(u.mprime) / 2) * poly


class TestUniversalSumDerivatives:
    def test_cancellation_raises(self):
        # at ell 61, r = 0.8 the unchecked sums gave F = 388 for 0.918
        u = UniversalParams.from_degrees(ell=61.0, mprime=1.0)
        with pytest.raises(NoConvergence):
            universal_sum_derivatives(u, 0.8)
        with pytest.raises(NoConvergence):
            universal_ode_residual(u, 0.8)

    def test_moderate_degrees_accepted(self):
        for n in range(17):
            for mprime in (0.5, 1.0, 2.0, 2.5):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                for i in range(-19, 20):
                    r = i * 0.05
                    f, _, _ = universal_sum_derivatives(u, r)
                    assert f == universal_sum(u, r)

    def test_derivatives_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for n in (0, 5, 16):
            for mprime in (0.5, 2.5):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                for r in (-0.9, -0.3, 0.45, 0.8):
                    got = universal_sum_derivatives(u, r)
                    with mpmath.workdps(40):
                        want = [mpmath.diff(lambda x: _universal_sum_at(mpmath, u, x),
                                            mpmath.mpf(r), k) for k in range(3)]
                    for g, w in zip(got, want):
                        assert abs(g - w) <= 1e-8 * (1.0 + abs(w))


class TestUniversalHypergeometric:
    def test_cancellation_raises(self):
        # the terminating series cancels as the degree grows: at r = 0.8 it
        # was off by 2.7e-5 at ell 41 and had the wrong sign at ell 61
        for ell in (41.0, 61.0):
            u = UniversalParams.from_degrees(ell=ell, mprime=1.0)
            with pytest.raises(NoConvergence):
                universal_hypergeometric(u, 0.8)

    def test_moderate_degrees_accepted(self):
        for n in range(0, 17, 2):
            for mprime in (0.5, 1.0, 2.0, 2.5):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                for i in range(-20, 21):
                    s = universal_sum(u, i * 0.05)
                    h = universal_hypergeometric(u, i * 0.05)
                    assert abs(s - h) <= 1e-8 * (1.0 + abs(s))

    def test_reduces_to_single_term(self):
        # at n = 0 both forms are the bare weight times the same constant
        for mprime in (0.5, 1.0, 2.0):
            u = UniversalParams.from_degrees(ell=mprime, mprime=mprime)
            for r in (0.0, 0.3, -0.8):
                assert universal_hypergeometric(u, r) == pytest.approx(
                    universal_sum(u, r), rel=1e-13
                )

    def test_matches_sum(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)
        s = universal_sum(u, 0.5)
        h = universal_hypergeometric(u, 0.5)
        assert abs(s - h) <= 1e-12 * max(1.0, abs(s))

    def test_grid_equivalence(self):
        for mprime in (0.5, 1.0, 1.5, 2.0):
            for n in range(0, 11, 2):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                worst = 0.0
                scale = 0.0
                for i in range(21):
                    r = -0.95 + i * 0.095
                    s = universal_sum(u, r)
                    h = universal_hypergeometric(u, r)
                    worst = max(worst, abs(s - h))
                    scale = max(scale, abs(s))
                assert worst <= 1e-10 * scale

    def test_odd_offset_rejected(self):
        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        with pytest.raises(DomainError):
            universal_hypergeometric(u, 0.3)

    def test_at_zero_is_prefactor(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)
        # 2F1(...; 0) = 1, weight is 1 at r = 0
        from hyplegendre import Hyp2F1, hyp2f1

        val = universal_hypergeometric(u, 0.0)
        ratio = universal_hypergeometric(u, 0.5) / (
            (1 - 0.25) ** 0.5
            * hyp2f1(Hyp2F1((1 + 3.0 + 1.0) / 2.0, -1.0, 0.5), 0.25)
        )
        assert val == pytest.approx(ratio, rel=1e-12)


class TestUniversalEmbedding:
    def test_classical_collapse(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=0.0, a=0.0, c=0.0, m=0.0)
        p = universal_ode_embedding(u)
        assert p == classical_params(3.0)

    def test_residual_points(self):
        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        assert u.lam == pytest.approx(6.0 - u.c)
        for r in (-0.7, 0.1, 0.8):
            assert universal_ode_residual(u, r) <= 1e-9

    def test_residual_with_potential_terms(self):
        u = UniversalParams.from_degrees(
            ell=3.5, mprime=1.5, a=0.5, c=1.0, m=math.sqrt(0.75)
        )
        for r in (-0.6, 0.2, 0.75):
            assert universal_ode_residual(u, r) <= 1e-9

    def test_indicial_roots_contain_half_mprime(self):
        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        p = universal_ode_embedding(u)
        exps = indicial_exponents(p)
        assert any(abs(x - 0.5) <= 1e-12 for x in exps.mu1.as_tuple())
        assert any(abs(x - 0.5) <= 1e-12 for x in exps.mu2.as_tuple())
        assert root_residual(p, "mu1", u.mprime / 2.0) <= 1e-10

    def test_membership_sweep(self):
        for mprime in (0.5, 1.0, 2.0):
            for n in range(0, 9):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                worst = max(
                    universal_ode_residual(u, -0.95 + i * 0.095) for i in range(21)
                )
                assert worst <= 1e-8


class TestQuadraticPath:
    def test_zero_offset_constant_ratio(self):
        u = UniversalParams.from_degrees(ell=1.0, mprime=1.0)
        p = universal_ode_embedding(u)
        ratios = [
            quadratic_path_check(u, p, r)[0] / quadratic_path_check(u, p, r)[1]
            for r in (0.2, 0.5, -0.4)
        ]
        for rat in ratios[1:]:
            assert rat == pytest.approx(ratios[0], rel=1e-12)

    def test_even_offset_constant_ratio(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)
        p = universal_ode_embedding(u)
        ratios = []
        for r in (0.2, 0.4, 0.6):
            lhs, rhs = quadratic_path_check(u, p, r)
            ratios.append(lhs / rhs)
        for rat in ratios[1:]:
            assert abs(rat - ratios[0]) <= 1e-9 * abs(ratios[0])

    def test_intermediate_quadratic_identity(self):
        # the transformed-argument rewrite agrees with the first-kind
        # reversed-interval series where the transform converges
        u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)
        s = u.ell + 0.5
        c_breve = 1.0 + u.mprime
        r = 0.3
        zb = (1.0 - r) / 2.0
        from hyplegendre import Hyp2F1, hyp2f1

        direct = hyp2f1(Hyp2F1(0.5 + s, 0.5 - s, c_breve), zb)
        transformed = quadratic_15_8_20(0.5 + s, c_breve, zb)
        assert abs(direct - transformed) <= 1e-10 * (1.0 + abs(direct))

    def test_odd_offset_rejected(self):
        u = UniversalParams.from_degrees(ell=2.0, mprime=1.0)
        p = universal_ode_embedding(u)
        with pytest.raises(DomainError):
            quadratic_path_check(u, p, 0.3)

    def test_wrong_interval_rejected(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)
        p = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0,
                      c3=-1.0, lam=u.lam, xi1=-1.0, xi2=2.0)
        with pytest.raises(InvalidParams):
            quadratic_path_check(u, p, 0.3)
