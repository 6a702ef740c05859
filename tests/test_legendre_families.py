import math
import random
import re

import pytest

from hyplegendre import (
    BranchId,
    DegenerateC,
    DegenerateCase,
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
    universal_hypergeometric,
    universal_ode_embedding,
    universal_ode_residual,
    universal_sum,
)
from hyplegendre import hypergeom
from hyplegendre.legendre_families import universal_sum_derivatives
from hyplegendre.ode_solutions import root_residual

from identities import quadratic_15_8_20, quadratic_path
from oracles import gegenbauer_table, legendre_recurrence


def shifted_params(k: float, xi1: float, xi2: float) -> OdeParams:
    return OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                     lam=k * (k + 1.0), xi1=xi1, xi2=xi2)


def classical_params(k: float) -> OdeParams:
    return shifted_params(k, -1.0, 1.0)


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

    @pytest.mark.parametrize("mu1, mu2", [(math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.1)])
    def test_non_finite_exponents_rejected(self, mu1, mu2):
        t = LegendreTriple(k=2.0, m=0.3, n=0.5)
        with pytest.raises(InvalidParams):
            generalized_solutions(t, mu1, mu2, classical_params(2.0), 0.2)

    def test_prefactor_past_the_float_range_typed(self):
        # 4.9^700 overflows at zb = 0.02: DomainError, not a bare OverflowError
        p = shifted_params(0.3, 0.0, 5.0)
        with pytest.raises(DomainError, match="float range"):
            generalized_solutions(LegendreTriple(0.3, 0.3, 0.4), 700.0, 0.0, p, 4.9)

    def test_width_power_past_the_float_range_typed(self):
        # zb = 0.7 on (0, 1e6): F2 carries (3e5)^60.5, past the float range
        t = LegendreTriple(k=1.3, m=60.5, n=0.4)
        with pytest.raises(DomainError, match="float range"):
            generalized_solutions(t, 0.0, 0.0, shifted_params(1.3, 0.0, 1e6), 3e5)

    def test_product_past_the_float_range_typed(self):
        # each power, 5e-4^-60.3, is in range, their product is not: the
        # pair came back (-inf, inf)
        p = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=2.99, xi1=0.0, xi2=1e-3)
        message = r"^generalized solutions at r=0\.0005 are not finite: \(-inf, inf\)$"
        with pytest.raises(DomainError, match=message):
            generalized_solutions(LegendreTriple(1.3, 0.3, 0.4), -60.3, -60.3, p, 5e-4)

    @pytest.mark.parametrize("r, mu1, mu2", [(-1.0, -0.5, 0.0), (1.0, 0.0, -0.25)])
    def test_zero_to_a_negative_power_at_an_end_typed(self, r, mu1, mu2):
        # 0^e with e < 0 diverges: DomainError, not the ZeroDivisionError
        # of 0.0 ** e
        t = LegendreTriple(k=2.0, m=0.3, n=0.5)
        message = r"^0\.0\^-0\.\d+ diverges$"
        with pytest.raises(DomainError, match=message):
            generalized_solutions(t, mu1, mu2, classical_params(2.0), r)


def _pair_route_points():
    """(t, mu1, mu2, p, r) over the benchmark's families box (k in [0.2, 6],
    |m| <= 0.9, |n| in [0.05, 0.95]) on (-1, 1) and on (-0.3, 2.4), with
    generic exponents: every sixth triple has F1 terminating, every sixth F2
    and every sixth m = 0; zb runs over [0.02, 0.98]."""
    rnd = random.Random(2018)
    points = []
    for i in range(24):
        n = rnd.choice((-1.0, 1.0)) * rnd.uniform(0.05, 0.95)
        m = 0.0 if i % 6 == 5 else rnd.uniform(-0.9, 0.9)
        k = rnd.uniform(0.2, 6.0)
        if i % 6 in (1, 2):  # -k + (n -+ m)/2 = -j: F1, then F2, terminates
            k = (n - m if i % 6 == 1 else n + m) / 2.0 + rnd.randint(1, 6)
        t = LegendreTriple(k, m, n)
        p = shifted_params(k, *((-1.0, 1.0) if i % 2 else (-0.3, 2.4)))
        mu1, mu2 = rnd.uniform(-0.5, 1.5), rnd.uniform(-0.5, 1.5)
        for j in range(12):
            zb = 0.02 + 0.96 * (j + rnd.random()) / 12.0
            points.append((t, mu1, mu2, p, p.xi2 - zb * p.width))
    return points


def exact_solutions(t, mu1, mu2, p, r):
    """(F1, F2) at r from mpmath at 30 digits, every parameter and zb formed
    from the floats given."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        k, m, n = map(mpmath.mpf, (t.k, t.m, t.n))
        x, xi1, xi2 = map(mpmath.mpf, (r, p.xi1, p.xi2))
        zb = (xi2 - x) / (xi2 - xi1)
        edge = (x - xi1) ** mu1 * (xi2 - x) ** mu2
        f1 = edge * mpmath.hyp2f1(-k + (n - m) / 2, k + 1 + (n - m) / 2, 1 - m, zb)
        f2 = (edge * (xi2 - x) ** m
              * mpmath.hyp2f1(-k + (n + m) / 2, k + 1 + (n + m) / 2, 1 + m, zb))
        return float(f1), float(f2)


@pytest.fixture(scope="module")
def pair_route_table():
    """The sweep's points with F1 and F2 from mpmath, built once."""
    return [(t, mu1, mu2, p, r, *exact_solutions(t, mu1, mu2, p, r))
            for t, mu1, mu2, p, r in _pair_route_points()]


class TestKummerPairRoute:
    """Past zb = 1/2 both solutions come from F1's pair (w3, w4), unless
    F2's series terminates."""

    def test_f1_unchanged_f2_within_bound(self, pair_route_table):
        # F1 and F2 are each within 1e-11 (1 + |F|) of mpmath; past zb = 1/2
        # F1 is w1's row on w formed from r, not hyp2f1's on 1 - zb
        for t, mu1, mu2, p, r, want1, want2 in pair_route_table:
            f1, f2 = generalized_solutions(t, mu1, mu2, p, r)
            assert abs(f1 - want1) <= 1e-11 * (1.0 + abs(want1)), (t, p.xi1, r)
            assert abs(f2 - want2) <= 1e-11 * (1.0 + abs(want2)), (t, p.xi1, r)

    def test_w_formed_from_r_next_to_xi1(self):
        # the families box at r = -1 + 10^U(-12, -6): zb rounds next to 1,
        # so a pair summed on 1 - zb would lose up to 1e-5 there unseen
        rnd = random.Random(7)
        for _ in range(300):
            k, m = rnd.uniform(0.2, 6.0), rnd.uniform(-0.9, 0.9)
            n = rnd.choice((-1.0, 1.0)) * rnd.uniform(0.05, 0.95)
            r = -1.0 + 10.0 ** rnd.uniform(-12.0, -6.0)
            t, p = LegendreTriple(k, m, n), classical_params(k)
            got = generalized_solutions(t, n / 2.0, -m / 2.0, p, r)
            for g, w in zip(got, exact_solutions(t, n / 2.0, -m / 2.0, p, r)):
                assert abs(g - w) <= 1e-10 * (1.0 + abs(w)), (k, m, n, r)

    def test_series_per_point(self, monkeypatch):
        # a generic pair sums 2 non-terminating series at zb = 0.7 (4 when
        # each solution took its own row), and a pair whose F1 terminates 1,
        # its F1 and w3 terminating; one whose F2 terminates sums F1's pair
        # for F1 alone and F2 on its own; at zb = 0.3 each 2F1 is its own sum
        calls = []

        def counted(p, z, nterms, _real=hypergeom._series):
            calls.append(nterms is None)
            return _real(p, z, nterms)
        monkeypatch.setattr(hypergeom, "_series", counted)
        n, m = 0.4, 0.3
        generic = LegendreTriple(1.7, m, n)
        first_ends = LegendreTriple((n - m) / 2.0 + 2.0, m, n)
        second_ends = LegendreTriple((n + m) / 2.0 + 2.0, m, n)
        assert first_ends._first.terminating_degree == 2
        assert second_ends._second.terminating_degree == 2
        for t, zb, full, terminating in ((generic, 0.7, 2, 0), (first_ends, 0.7, 1, 2),
                                         (second_ends, 0.7, 2, 1), (generic, 0.3, 2, 0),
                                         (first_ends, 0.3, 1, 1), (second_ends, 0.3, 1, 1)):
            calls.clear()
            generalized_solutions(t, 0.1, 0.2, classical_params(t.k), 1.0 - 2.0 * zb)
            assert (calls.count(True), calls.count(False)) == (full, terminating), (t, zb)

    @pytest.mark.parametrize("k, m, n, r, error", [
        (2.5, 0.5, 1.0, -0.6, DegenerateCase),  # c-a-b = -n of both rows
        (2.5, 0.5, 2.0, -0.9, DegenerateCase),
        (1.5, 1.0, 0.4, -0.6, DegenerateC),
        (1.5, -1.0, 0.4, -0.6, DegenerateC),
        (180.0, 0.3, 0.6, -0.6, DomainError),  # row coefficients overflow
        (180.0, 0.3, 0.6, 0.3, NoConvergence),
        (1.3, 0.3, 25.5, -1.0 + 4.4e-16, DomainError),  # the pair's w^(-25.5) overflows
    ])
    def test_errors_unchanged(self, k, m, n, r, error):
        with pytest.raises(error):
            generalized_solutions(LegendreTriple(k, m, n), n / 2.0, -m / 2.0,
                                  classical_params(k), r)


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

    @pytest.mark.parametrize("xi1, xi2", [(-math.inf, 1.0), (-1.0, math.inf)])
    def test_infinite_interval_end_rejected(self, xi1, xi2):
        t = LegendreTriple(k=2.0, m=0.3, n=0.5)
        with pytest.raises(InvalidParams):
            kuipers_reduction_check(t, xi1, xi2, 0.3)
        assert kuipers_reduction_check(t, -1.0, 1.0, 0.3) <= 1e-8


@pytest.mark.parametrize("family, r", [
    (generalized_solutions, 1.25), (generalized_solutions, -1.0000000000000002),
    (kuipers_reduction_check, -1.0), (kuipers_reduction_check, 1.5),
    (universal_sum_derivatives, 1.0), (universal_sum_derivatives, -1.5),
    (universal_hypergeometric, 1.0000000000000002), (universal_hypergeometric, -2.0),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_r_outside_the_interval_typed(family, r):
    # each family names r and its own interval, closed where the edge
    # values are defined, before anything is summed
    t = LegendreTriple(k=2.0, m=0.3, n=0.5)
    u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)  # n_index 2, even
    args, interval = {
        generalized_solutions: ((t, 0.25, 0.15, classical_params(2.0), r), "[-1.0, 1.0]"),
        kuipers_reduction_check: ((t, -1.0, 1.0, r), "(-1.0, 1.0)"),
        universal_sum_derivatives: ((u, r), "(-1, 1)"),
        universal_hypergeometric: ((u, r), "[-1, 1]"),
    }[family]
    message = f"^r={re.escape(repr(r))} outside {re.escape(interval)}$"
    with pytest.raises(DomainError, match=message):
        family(*args)


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
        # each pack below breaks one link alone
        for kwargs, why in [
            (dict(ell=1.0, mprime=-1.0, lam=2.0), "nonnegative square root"),
            (dict(a=1.0), r"sqrt\(a \+ c \+ m\^2\)"),
            (dict(n_index=1), r"mprime \+ n_index"),
        ]:
            with pytest.raises(InvalidParams, match=why):
                UniversalParams(**{**dict(ell=3.0, mprime=1.0, a=0.0, b=0.0, c=0.0, m=1.0,
                                          lam=12.0, n_index=2), **kwargs})
        # with m = mprime taken for the missing m, a + c = 0 would pass
        for a, c in ((1.0, 0.0), (0.0, 0.5), (1.0, -1.0)):
            with pytest.raises(InvalidParams, match="give m explicitly"):
                UniversalParams.from_degrees(ell=3.0, mprime=1.0, a=a, c=c)

    def test_square_past_the_float_range_typed(self):
        # m^2 of the consistency check: was a bare OverflowError
        with pytest.raises(DomainError, match=r"^1e\+200\^2 leaves the float range$"):
            UniversalParams.from_degrees(ell=3.0, mprime=1.0, m=1e200)

    def test_potential_split(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=2.0, a=1.0, c=2.0, m=1.0)
        assert u.mprime == 2.0
        assert u.lam == 10.0

    def test_json_round_trip(self):
        u = UniversalParams.from_degrees(ell=2.5, mprime=0.5)
        d = u.to_dict()
        assert d["lambda"] == u.lam
        assert UniversalParams.from_dict(d) == u

    @pytest.mark.parametrize("ell, mprime", [
        (math.nan, 1.0), (3.0, math.nan), (math.inf, 1.0), (3.0, -math.inf),
        (math.inf, math.inf), (1e300, 1.0), (1001.5, 0.5)])
    def test_non_finite_or_capped_degrees_rejected(self, ell, mprime):
        # nan ended in an untyped ValueError, inf in an OverflowError, and
        # 1e300 asked for a recurrence of 1e300 steps
        with pytest.raises(InvalidParams):
            UniversalParams.from_degrees(ell=ell, mprime=mprime)

    @pytest.mark.parametrize("name", ["ell", "mprime", "a", "c", "m", "lambda"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, name, bad):
        d = UniversalParams.from_degrees(ell=3.0, mprime=1.0).to_dict()
        d[name] = bad
        with pytest.raises(InvalidParams):
            UniversalParams.from_dict(d)

    def test_n_index_must_be_an_integer_within_the_cap(self):
        d = UniversalParams.from_degrees(ell=3.0, mprime=1.0).to_dict()
        for bad in (2.7, math.nan, math.inf, 1001, -1):
            with pytest.raises(InvalidParams):
                UniversalParams.from_dict(dict(d, n_index=bad))
        # from_dict truncated 2.7 to 2; an integral float is still taken
        assert UniversalParams.from_dict(dict(d, n_index=2.0)).n_index == 2
        with pytest.raises(InvalidParams):
            UniversalParams(ell=3.0, mprime=1.0, a=0.0, b=0.0, c=0.0, m=1.0,
                            lam=12.0, n_index=2.0)
        top = UniversalParams.from_degrees(ell=1000.5, mprime=0.5)
        assert top.n_index == 1000


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
        # the alternating sum lost its digits here and raised NoConvergence
        # from degree 40; the recurrence keeps them: within the stated
        # 2e-12 (1 + |F|) of a 50-digit oracle
        mpmath = pytest.importorskip("mpmath")
        for ell in (40.0, 60.0, 80.0):
            u = UniversalParams.from_degrees(ell=ell, mprime=1.0)
            for r in (-0.8, 0.5, 0.8):
                want = _universal_rec_mp(mpmath, u, r)
                assert abs(universal_sum(u, r) - want) <= 2e-12 * (1.0 + abs(want))

    def test_coefficients_past_the_float_range_typed(self):
        # n_index = 180: math.factorial(180) does not convert to float.  The
        # sum form's constant is built in log space and stays accurate; the
        # closed form's is not, and still raises
        mpmath = pytest.importorskip("mpmath")
        u = UniversalParams.from_degrees(ell=181.0, mprime=1.0)
        want = _universal_rec_mp(mpmath, u, 0.5)
        assert abs(universal_sum(u, 0.5) - want) <= 2e-12 * (1.0 + abs(want))
        got = universal_sum_derivatives(u, 0.5)
        with mpmath.workdps(40):
            jet = mpmath.diffs(lambda x: _universal_rec_at(mpmath, u, x), mpmath.mpf(0.5), 2)
            want = [float(w) for w in jet]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-11 * (1.0 + abs(w))
        with pytest.raises(NoConvergence):
            universal_hypergeometric(u, 0.5)

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


def _universal_rec_at(mpmath, u, x):
    """The sum form as norm K (1-x^2)^(mprime/2) C_n^(mprime+1/2)(x), with
    K = 2^mprime Gamma(mprime+1/2)/sqrt(pi) and C from its recurrence, at the
    working precision of the caller."""
    mp = mpmath.mpf(u.mprime)
    return (_universal_const_mp(mpmath, u) * (1 - x * x) ** (mp / 2)
            * gegenbauer_table(u.n_index, mp + 0.5, x)[-1])


def _universal_const_mp(mpmath, u):
    mp, ell = mpmath.mpf(u.mprime), mpmath.mpf(u.ell)
    return (2 ** mp * mpmath.gamma(mp + 0.5) / mpmath.sqrt(mpmath.pi)
            * mpmath.sqrt((2 * ell + 1) * mpmath.factorial(u.n_index)
                          / (2 * mpmath.gamma(ell + mp + 1))))


def _universal_rec_mp(mpmath, u, r):
    with mpmath.workdps(50):
        return float(_universal_rec_at(mpmath, u, mpmath.mpf(r)))


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
        # at ell 61, r = 0.8 the unchecked sums gave F = 388 for 0.918, and
        # the checked ones raised NoConvergence; the recurrence gives 0.918
        # and a solution of the embedded equation
        mpmath = pytest.importorskip("mpmath")
        u = UniversalParams.from_degrees(ell=61.0, mprime=1.0)
        f = universal_sum_derivatives(u, 0.8)[0]
        want = _universal_rec_mp(mpmath, u, 0.8)
        assert want == pytest.approx(0.918, abs=5e-4)
        assert abs(f - want) <= 2e-12 * (1.0 + abs(want))
        assert universal_ode_residual(u, 0.8) <= 1e-9

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


class TestUniversalRecurrence:
    """universal_sum and universal_sum_derivatives against independent
    oracles, each with the bound it is held to."""

    MPRIMES = (0.0, 0.5, 1.0, 2.3, 5.0)

    def test_mpmath_sweep(self):
        # n_index 0-1000 (every 9th and the cap), both ends and next to
        # them: within 2e-12 (1 + |F|) of a 50-digit recurrence
        mpmath = pytest.importorskip("mpmath")
        degrees = list(range(0, 1001, 9)) + [1000]
        for mprime in self.MPRIMES:
            packs = {n: UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                     for n in degrees}
            with mpmath.workdps(50):
                consts = {n: _universal_const_mp(mpmath, u) for n, u in packs.items()}
            for r in (-1.0, -0.999, -0.93, -0.5, -0.1, 0.0, 0.3, 0.77, 0.999, 1.0):
                with mpmath.workdps(50):
                    x = mpmath.mpf(r)
                    table = gegenbauer_table(degrees[-1], mpmath.mpf(mprime) + 0.5, x)
                    weight = (1 - x * x) ** (mprime / 2)
                    want = {n: float(c * weight * table[n]) for n, c in consts.items()}
                for n, u in packs.items():
                    got = universal_sum(u, r)
                    assert abs(got - want[n]) <= 2e-12 * (1.0 + abs(want[n])), (mprime, n, r)

    def test_derivatives_against_mpmath_diff(self):
        # n_index <= 200 and |r| <= 0.999: within 1e-11 (1 + |F^(k)|)
        mpmath = pytest.importorskip("mpmath")
        for mprime in self.MPRIMES:
            for n in (0, 1, 2, 7, 16, 61, 100, 151, 200):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                for r in (-0.999, -0.9, -0.3, 0.0, 0.45, 0.8, 0.99, 0.999):
                    got = universal_sum_derivatives(u, r)
                    with mpmath.workdps(40):
                        jet = mpmath.diffs(lambda x: _universal_rec_at(mpmath, u, x),
                                           mpmath.mpf(r), 2)
                        want = [float(w) for w in jet]
                    for k, (g, w) in enumerate(zip(got, want)):
                        assert abs(g - w) <= 1e-11 * (1.0 + abs(w)), (mprime, n, r, k)

    # the worst F'' of 450 seeded draws over n_index <= 200, mprime in
    # [0.1, 5] and 1 - |r| in [1e-6, 1e-3]: off by 2.7e-11 to 3.8e-11 with
    # the weight formed from 1 - r*r, by under 1.5e-13 from (1 + r)(1 - r)
    NEXT_TO_AN_END = [(30, 2.8896120277166344, 0.9999989044102038),
                      (38, 4.857004540992663, -0.9999989705901255),
                      (121, 4.798041822799184, 0.9999980929549526),
                      (194, 4.791735653552323, -0.999998656099585)]

    @pytest.mark.parametrize("n, mprime, r", NEXT_TO_AN_END)
    def test_derivatives_next_to_an_end(self, n, mprime, r):
        # 0.999 < |r| <= 1 - 1e-6: within 3e-11 (1 + |F'|), 2e-12 (1 + |F''|)
        mpmath = pytest.importorskip("mpmath")
        u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
        got = universal_sum_derivatives(u, r)
        with mpmath.workdps(50):
            want = [float(w) for w in mpmath.diffs(
                lambda x: _universal_rec_at(mpmath, u, x), mpmath.mpf(r), 2)]
        for k, bound in ((1, 3e-11), (2, 2e-12)):
            assert abs(got[k] - want[k]) <= bound * (1.0 + abs(want[k])), k

    def test_scipy_eval_gegenbauer(self):
        # scipy's own recurrence drifts by up to ~1e-11 at n 1000 next to
        # the ends; for n_index <= 200 and |r| <= 0.99 both agree to
        # 1e-12 (1 + |F|)
        special = pytest.importorskip("scipy.special")
        mpmath = pytest.importorskip("mpmath")
        for mprime in self.MPRIMES:
            for n in (0, 1, 3, 10, 33, 100, 200):
                u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
                with mpmath.workdps(30):
                    const = float(_universal_const_mp(mpmath, u))
                for r in (-0.99, -0.7, -0.2, 0.0, 0.25, 0.6, 0.95, 0.99):
                    want = (const * (1.0 - r * r) ** (mprime / 2.0)
                            * special.eval_gegenbauer(n, mprime + 0.5, r))
                    assert abs(universal_sum(u, r) - want) <= 1e-12 * (1.0 + abs(want))

    def test_legendre_recurrence_at_order_zero(self):
        # mprime = 0 is sqrt((2n+1)/2) P_n, against the float Bonnet
        # recurrence: within 1e-13 (1 + |F|) for n <= 100, |r| <= 0.95
        for n in range(101):
            u = UniversalParams.from_degrees(ell=float(n), mprime=0.0)
            for i in range(21):
                r = -0.95 + i * 0.095
                want = math.sqrt((2 * n + 1) / 2.0) * legendre_recurrence(n, r)
                assert abs(universal_sum(u, r) - want) <= 1e-13 * (1.0 + abs(want))

    def test_mpmath_legenp_at_integer_orders(self):
        # integer mprime: (-1)^mprime times the normalized associated
        # Legendre function, within 2e-12 (1 + |F|)
        mpmath = pytest.importorskip("mpmath")
        for mprime in (1, 2, 3, 5):
            for ell in (mprime, mprime + 1, 12, 80, 201):
                u = UniversalParams.from_degrees(ell=float(ell), mprime=float(mprime))
                for r in (-0.97, -0.4, 0.1, 0.9):
                    with mpmath.workdps(30):
                        want = float((-1) ** mprime * mpmath.sqrt(
                            (2 * ell + 1) * mpmath.factorial(ell - mprime)
                            / (2 * mpmath.factorial(ell + mprime)))
                            * mpmath.legenp(ell, mprime, r))
                    assert abs(universal_sum(u, r) - want) <= 2e-12 * (1.0 + abs(want))

    def test_beyond_the_float_range_typed(self):
        # C_n^lam overflows at (mprime 300, n_index 1000, r 0.9); the
        # constant underflows at (1000, 1000); past mprime 1000 lgamma's
        # rounding would cost the constant its digits.  Each raises, and
        # neither inf nor 0 comes back
        overflow = UniversalParams.from_degrees(ell=1300.0, mprime=300.0)
        underflow = UniversalParams.from_degrees(ell=2000.0, mprime=1000.0)
        wide = UniversalParams.from_degrees(ell=1003.0, mprime=1001.0)
        for u, r in ((overflow, 0.9), (underflow, 0.5), (wide, 0.0)):
            for fn in (universal_sum, universal_sum_derivatives):
                with pytest.raises(NoConvergence):
                    fn(u, r)
        # the same pack at 0.5 stays in range, and accurate
        mpmath = pytest.importorskip("mpmath")
        want = _universal_rec_mp(mpmath, overflow, 0.5)
        assert abs(universal_sum(overflow, 0.5) - want) <= 2e-12 * (1.0 + abs(want))


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
        ratios = [
            quadratic_path(u, r) / universal_hypergeometric(u, r)
            for r in (0.2, 0.5, -0.4)
        ]
        for rat in ratios[1:]:
            assert rat == pytest.approx(ratios[0], rel=1e-12)

    def test_even_offset_constant_ratio(self):
        u = UniversalParams.from_degrees(ell=3.0, mprime=1.0)
        ratios = [
            quadratic_path(u, r) / universal_hypergeometric(u, r)
            for r in (0.2, 0.4, 0.6)
        ]
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
