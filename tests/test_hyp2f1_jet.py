"""(F, F', F'') of 2F1 from one series pass, against mpmath and against the
value and parameter-shift derivative routes of hyp2f1.  On 0.5 < z < 1 the
kernel raises; there the jet is the row the Kummer set forms (row_jet)."""

import math

import pytest

from hyplegendre import (
    DegenerateCase,
    DomainError,
    Hyp2F1,
    NoConvergence,
    hyp2f1,
)
from hyplegendre.hypergeom import _MAX_TERMS, _hyp2f1_jet
from hyplegendre.ode_solutions import (
    BranchId,
    CoordinateMap,
    MapVariant,
    SolutionBranch,
    value_and_derivatives,
)
from hyplegendre.rng import SplitMix64
from test_kummer_set import row_jet

mpmath = pytest.importorskip("mpmath")

REF_DPS = 40
# relative error bounds against mpmath; the connection formula subtracts
# two terms of like size, which costs up to ~2 digits at these points
SERIES_BOUND = 1e-14
CONNECTION_BOUND = 1e-12
END_BOUND = 1e-13  # the float next to an end, where z(r) rounds to 1


def reference(a, b, c, z):
    """F, F', F'' at 40 digits; derivatives by mpmath.diff."""
    with mpmath.workdps(REF_DPS):
        f = lambda t: mpmath.hyp2f1(a, b, c, t)
        return [f(z), mpmath.diff(f, z, 1), mpmath.diff(f, z, 2)]


def assert_close(p, z, bound):
    got = row_jet(p, z)
    want = reference(p.a, p.b, p.c, z)
    for order, (g, w) in enumerate(zip(got, want)):
        err = float(abs(g - w) / abs(w))
        assert err <= bound, (p, z, order, err)


class TestAgainstMpmath:
    @pytest.mark.parametrize("z", [0.0, 0.3, 0.7, 0.95, -0.6])
    def test_terminating(self, z):
        p = Hyp2F1(-3.0, 2.2, 1.4)
        assert p.terminating_degree == 3
        assert_close(p, z, SERIES_BOUND)

    @pytest.mark.parametrize("abc", [(0.6, 1.4, 2.3), (-1.7, 2.9, 0.6)])
    @pytest.mark.parametrize("z", [0.0, 0.25, -0.4, 0.5, -0.5])
    def test_series_region(self, abc, z):
        assert_close(Hyp2F1(*abc), z, SERIES_BOUND)

    @pytest.mark.parametrize("abc", [
        (0.4, 0.7, 1.9),      # c-a-b = 0.8
        (1.3, 0.9, 1.7),      # c-a-b = -0.5
        (2.2, -1.35, 0.45),   # c-a-b = -0.4
        (-0.288, 4.12, 2.54),
    ])
    @pytest.mark.parametrize("z", [0.5 + 1e-12, 0.75, 1.0 - 1e-6])
    def test_connection_region(self, abc, z):
        assert_close(Hyp2F1(*abc), z, CONNECTION_BOUND)

    def test_exact_at_zero(self):
        a, b, c = 0.6, 1.4, 2.3
        f0, f1, f2 = _hyp2f1_jet(Hyp2F1(a, b, c), 0.0)
        assert f0 == 1.0
        assert f1 == a * b / c
        assert f2 == a * b / c * ((a + 1.0) * (b + 1.0) / (c + 1.0))


def test_agrees_with_value_and_shift_routes():
    # the value route and the parameter-shift rule, one hyp2f1 call per
    # order, are the reference this kernel replaced
    rng = SplitMix64(31)
    checked = 0
    for _ in range(300):
        p = Hyp2F1(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.3, 4.0))
        z = rng.uniform(-0.5, 0.98)
        # d/dz F(a,b;c) = ab/c F(a+1,b+1;c+1)
        q, ab_c = Hyp2F1(p.a + 1.0, p.b + 1.0, p.c + 1.0), p.a * p.b / p.c
        try:
            want = (
                hyp2f1(p, z),
                ab_c * hyp2f1(q, z),
                ab_c * (q.a * q.b / q.c * hyp2f1(Hyp2F1(q.a + 1.0, q.b + 1.0, q.c + 1.0), z)),
            )
        except DegenerateCase:
            with pytest.raises(DegenerateCase):
                row_jet(p, z)
            continue
        got = row_jet(p, z)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * (1.0 + abs(w))
        checked += 1
    assert checked > 250


def _bare_branch(hyp, xi1=0.0, xi2=1.0):
    # no edge factors: the branch is the 2F1 of z = (r - xi1)/(xi2 - xi1)
    return SolutionBranch(
        mu1=0.0, mu2=0.0, extra_power=0.0, hyp=hyp,
        map=CoordinateMap(MapVariant.MAP_I, xi1, xi2), branch_id=BranchId.HAT1,
    )


class TestErrors:
    def test_integer_cab_degenerate(self):
        p = Hyp2F1(0.3, 0.7, 2.0)
        with pytest.raises(DegenerateCase):
            hyp2f1(p, 0.8)
        with pytest.raises(DegenerateCase):
            row_jet(p, 0.8)
        with pytest.raises(DegenerateCase):
            value_and_derivatives(_bare_branch(p), 0.8)

    @pytest.mark.parametrize("z", [0.75, 1.0, 1.2, -0.8, -1.5, math.inf, math.nan])
    def test_domain(self, z):
        # past 1/2, z = 1 included, the Kummer set forms the row itself
        with pytest.raises(DomainError):
            _hyp2f1_jet(Hyp2F1(0.4, 0.7, 1.9), z)

    def test_branch_at_rounded_end_point(self):
        # next to xi2, z(r) rounds to exactly 1 while w = (xi2 - r)/2 is
        # exact: the branch is its row over the pair summed at w, the jet
        # of the point's own z, not Gauss's at 1
        a, b, c = 0.3, 0.4, 3.5
        br = _bare_branch(Hyp2F1(a, b, c), -1.0, 1.0)
        r = math.nextafter(1.0, 0.0)
        assert br.map.z(r) == 1.0
        got = value_and_derivatives(br, r)
        with mpmath.workdps(REF_DPS):
            z = (mpmath.mpf(r) + 1) / 2
            want = [mpmath.hyp2f1(a, b, c, z),
                    a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z),
                    a * b * (a + 1) * (b + 1) / (c * (c + 1))
                    * mpmath.hyp2f1(a + 2, b + 2, c + 2, z)]
        for order, (g, w) in enumerate(zip(got, want)):
            dz = 2.0 ** -order  # dz/dr = 1/2 on (-1, 1)
            assert abs(g - dz * w) <= END_BOUND * abs(dz * w), order

    def test_terminating_any_finite_z(self):
        p = Hyp2F1(-2.0, 3.0, 1.0)  # 1 - 6z + 6z^2
        assert _hyp2f1_jet(p, 2.0) == (13.0, 18.0, 12.0)
        with pytest.raises(DomainError):
            _hyp2f1_jet(p, math.inf)

    def test_term_budget(self):
        p = Hyp2F1(150.3, 150.7, 1.1)
        with pytest.raises(NoConvergence, match="did not reach"):
            _hyp2f1_jet(p, 0.5)

    def test_budget_covers_all_three_sums(self):
        # F'' has the slowest tail: at 0.45 F converges within the budget
        # and the kernel, which waits for F'' too, runs out
        p = Hyp2F1(150.3, 150.7, 1.1)
        assert math.isfinite(hyp2f1(p, 0.45))
        with pytest.raises(NoConvergence, match="did not reach"):
            _hyp2f1_jet(p, 0.45)

    def test_overflow_raises(self):
        for abc, z in (((400.3, 400.7, 0.5), 0.5), ((-300.0, 400.5, 0.5), 2.0)):
            with pytest.raises(NoConvergence, match="leaves the float range"):
                _hyp2f1_jet(Hyp2F1(*abc), z)


class TestMemo:
    """The jet reads and grows the same coefficient memo as hyp2f1."""

    @pytest.mark.parametrize("abc", [(0.6, 1.4, 2.3), (0.4, 0.7, 1.9), (-3.0, 2.2, 1.4)])
    def test_warm_equals_fresh_in_any_order(self, abc):
        zs = (0.45, 0.05, 0.49, 0.0, 0.75, -0.4, 0.97)
        fresh = {z: (row_jet(Hyp2F1(*abc), z), hyp2f1(Hyp2F1(*abc), z)) for z in zs}
        for order in (zs, zs[::-1]):
            jet_first, value_first = Hyp2F1(*abc), Hyp2F1(*abc)
            for z in order:
                assert row_jet(jet_first, z) == fresh[z][0]
                assert hyp2f1(jet_first, z) == fresh[z][1]
                assert hyp2f1(value_first, z) == fresh[z][1]
                assert row_jet(value_first, z) == fresh[z][0]

    def test_term_budget_holds_past_a_warm_memo(self):
        # hyp2f1 converges at 0.45 and leaves its c_k in the memo; the jet
        # reads them, grows on and still stops at the budget
        abc = (150.3, 150.7, 1.1)
        with pytest.raises(NoConvergence) as fresh:
            _hyp2f1_jet(Hyp2F1(*abc), 0.45)
        p = Hyp2F1(*abc)
        hyp2f1(p, 0.45)
        assert 1 < len(vars(p)["_coefs"]) < _MAX_TERMS + 1
        with pytest.raises(NoConvergence) as warm:
            _hyp2f1_jet(p, 0.45)
        assert str(warm.value) == str(fresh.value)
        assert len(vars(p)["_coefs"]) == _MAX_TERMS + 1
