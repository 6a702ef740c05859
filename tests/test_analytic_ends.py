"""Derivatives of the branches next to the ends of the interval, where a
branch can be analytic: its edge exponent and its Kummer member's own power
add up to an integer there, and differentiating the two powers apart would
cancel two 1/(end-r)^2 terms."""

import pytest

from hyplegendre import (
    BranchId,
    Error,
    OdeParams,
    SolutionBranch,
    build_branch,
    indicial_exponents,
)
from hyplegendre.ode_solutions import MapVariant, value_and_derivatives

mpmath = pytest.importorskip("mpmath")

REF_DPS = 40
# |got - want| <= END_BOUND (1 + |want|) for F, F' and F''; the worst point
# is 3.6e-11, in a row near an integer c-a-b (differentiating the two powers
# apart left F'' off by 0.5 to 700 times 1 + |F''| at the analytic ends)
END_BOUND = 1e-9
OFFSETS = (1e-9, 1e-6)  # times the interval's width, from each end

# classical integer-coefficient equations, every root pair they admit
EQUATIONS = [
    dict(a1=-1.0, lam=2.0),
    dict(a1=-1.0, b1=0.5, lam=0.75),
    dict(a1=-3.0, lam=3.0),
    dict(a1=-1.0, b1=1.0, lam=2.0, xi1=0.0, xi2=2.0),  # the first, shifted
]

# associated Legendre equations of order m = 2, whose upper roots
# mu1 = mu2 = 1 make hat1 and breve1 (1 - r^2) times a polynomial; hat2 and
# breve2 are DegenerateC there, so they stay out of EQUATIONS
INTEGER_ORDERS = [
    dict(a1=-2.0, c3=-4.0, lam=6.0),
    dict(a1=-2.0, c3=-4.0, lam=12.0),
    dict(a1=-2.0, b1=2.0, c3=-4.0, lam=6.0, xi1=0.0, xi2=2.0),  # the first, shifted
]


def params(**given):
    fields = dict(a1=0.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                  lam=0.0, xi1=-1.0, xi2=1.0)
    fields.update(given)
    return OdeParams(**fields)


def exact_jet(br, r):
    """F, F', F'' of the branch as its definition states it, at 40 digits."""
    with mpmath.workdps(REF_DPS):
        xi1, xi2 = mpmath.mpf(br.map.xi1), mpmath.mpf(br.map.xi2)
        mu1, mu2, extra = (mpmath.mpf(v) for v in (br.mu1, br.mu2, br.extra_power))
        h = br.hyp

        def f(t):
            z = (t - xi1) if br.map.variant is MapVariant.MAP_I else (xi2 - t)
            z /= xi2 - xi1
            return (t - xi1) ** mu1 * (xi2 - t) ** mu2 * z ** extra * mpmath.hyp2f1(h.a, h.b, h.c, z)

        r = mpmath.mpf(r)
        return [f(r), mpmath.diff(f, r, 1), mpmath.diff(f, r, 2)]


def test_classical_case_at_its_analytic_ends():
    # breve2 is analytic at xi2 and hat2 at xi1: (xi2-r)^(1/2) w^(-1/2)
    p = params(a1=-1.0, lam=2.0)
    for bid, r in ((BranchId.BREVE2, 1.0 - 1e-9), (BranchId.HAT2, -1.0 + 1e-9)):
        f, f1, f2 = value_and_derivatives(build_branch(p, 0.5, 0.5, bid), r)
        assert abs(f2 - 4.0 / 3.0) <= 1e-8, bid
        assert abs(abs(f1) - 4.0) <= 1e-8, bid


@pytest.mark.parametrize("given", EQUATIONS)
def test_jets_next_to_each_end(given):
    p = params(**given)
    exps = indicial_exponents(p)
    checked = 0
    for mu1 in exps.mu1.as_tuple():
        for mu2 in exps.mu2.as_tuple():
            for bid in BranchId:
                try:
                    br = build_branch(p, mu1, mu2, bid)
                except Error:
                    continue
                for t in OFFSETS:
                    for r in (p.xi1 + t * p.width, p.xi2 - t * p.width):
                        got = value_and_derivatives(br, r)
                        for order, (g, w) in enumerate(zip(got, exact_jet(br, r))):
                            err = float(abs(g - w) / (1 + abs(w)))
                            assert err <= END_BOUND, (given, mu1, mu2, bid, r, order, err)
                        checked += 1
    assert checked >= 32


@pytest.mark.parametrize("given", EQUATIONS)
def test_branches_built_by_hand(given):
    # a branch built by hand is w1 of its own triple times z^extra_power:
    # that power joins the edge factor's the same way
    p = params(**given)
    exps = indicial_exponents(p)
    mu1, mu2 = exps.mu1.second, exps.mu2.second
    for bid in (BranchId.HAT2, BranchId.BREVE2):
        built = build_branch(p, mu1, mu2, bid)
        br = SolutionBranch(mu1=mu1, mu2=mu2, extra_power=built.extra_power,
                            hyp=built.hyp, map=built.map, branch_id=bid)
        for t in OFFSETS:
            for r in (p.xi1 + t * p.width, p.xi2 - t * p.width):
                got = value_and_derivatives(br, r)
                for order, (g, w) in enumerate(zip(got, exact_jet(br, r))):
                    err = float(abs(g - w) / (1 + abs(w)))
                    assert err <= END_BOUND, (given, bid, r, order, err)


@pytest.mark.parametrize("given", INTEGER_ORDERS)
def test_integer_order_jets_next_to_each_end(given):
    # each edge exponent is 1: differentiating the edge factor as two powers
    # cancels two 1/(end-r)^2 terms there, which put F'' off by up to 6e-8
    p = params(**given)
    exps = indicial_exponents(p)
    mu1, mu2 = exps.mu1.second, exps.mu2.second
    assert (mu1, mu2) == (1.0, 1.0)
    built = []
    for bid in BranchId:
        try:
            built.append(build_branch(p, mu1, mu2, bid))
        except Error:
            continue
    assert [br.branch_id for br in built] == [BranchId.HAT1, BranchId.BREVE1]
    for br in built:
        for t in OFFSETS:
            for r in (p.xi1 + t * p.width, p.xi2 - t * p.width):
                got = value_and_derivatives(br, r)
                for order, (g, w) in enumerate(zip(got, exact_jet(br, r))):
                    err = float(abs(g - w) / (1 + abs(w)))
                    assert err <= END_BOUND, (given, br.branch_id, r, order, err)
