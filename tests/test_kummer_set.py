"""The Kummer set the four branches of one exponent pair share: members
against mpmath, the one-triple rule, and the invariants of the shared
point memo (call order, error types, threads)."""

import gc
import math
import random
import sys
import threading
import weakref

import pytest

from hyplegendre import (
    BranchId,
    DomainError,
    Error,
    Hyp2F1,
    LegendreTriple,
    OdeParams,
    build_branch,
    connection_check,
    evaluate,
    hyp2f1,
    indicial_exponents,
    kuipers_reduction_check,
    residual,
)
from hyplegendre import hypergeom
from hyplegendre import ode_solutions as ode
from hyplegendre.hypergeom import (
    _UNKNOWN,
    _hyp2f1_jet,
    _KummerPlan,
)
from hyplegendre.ode_solutions import value_and_derivatives
from hyplegendre.rng import SplitMix64, draw_nondegenerate
from test_analytic_ends import exact_jet

mpmath = pytest.importorskip("mpmath")

REF_DPS = 40
# relative error of a branch value against the equation's own solution;
# a row near an integer c-a-b or 1-c cancels terms ~10^4 times its size
VALUE_BOUND = 1e-11
RESIDUAL_BOUND = 1e-11  # normalized residual, as `residual` reports it

# the dense_grid box of bench/workloads.py: real exponents for every draw
DENSE_BOX = {
    "a1": (-3.0, 1.0), "b1": (-1.0, 1.0),
    "a2": (-0.2, 0.2), "b2": (-0.8, -0.4),
    "a3": (-0.8, 0.0), "b3": (-0.2, 0.2), "c3": (-0.8, -0.4),
    "lam": (0.5, 7.0), "xi1": (-2.0, -0.3), "xi2": (0.3, 2.0),
}
DENSE_EDGE = 0.02


def dense_draws(seed, sets):
    rnd = random.Random(seed)
    for _ in range(sets):
        p = OdeParams(**{k: rnd.uniform(lo, hi) for k, (lo, hi) in DENSE_BOX.items()})
        exps = indicial_exponents(p)
        yield p, exps.mu1.second, exps.mu2.second, rnd


def exact_members(p, mu1, mu2, r):
    """(left, right, width, members) at r at the working precision, every
    exponent and parameter formed from p, mu1 and mu2 as the equation
    defines them: per branch, its triple, the power of its own variable it
    carries, and whether that variable is z."""
    f = {k: mpmath.mpf(getattr(p, k)) for k in ("a1", "b1", "a3", "lam", "xi1", "xi2")}
    mu1, mu2, r = mpmath.mpf(mu1), mpmath.mpf(mu2), mpmath.mpf(r)
    d = f["xi2"] - f["xi1"]
    s = mpmath.sqrt(f["lam"] - f["a3"] + ((f["a1"] + 1) / 2) ** 2)
    mid = mu1 + mu2 - (f["a1"] + 1) / 2
    lo, hi = mid - s, mid + s
    c_hat = 2 * mu1 + (f["a1"] * f["xi1"] + f["b1"]) / d
    c_breve = 2 * mu2 - (f["a1"] * f["xi2"] + f["b1"]) / d
    return r - f["xi1"], f["xi2"] - r, d, [
        ((lo, hi, c_hat), 0, True),
        ((lo - c_hat + 1, hi - c_hat + 1, 2 - c_hat), 1 - c_hat, True),
        ((hi, lo, c_breve), 0, False),
        ((lo - c_breve + 1, hi - c_breve + 1, 2 - c_breve), 1 - c_breve, False),
    ]


def exact_branches(p, mu1, mu2, r):
    """The four branch values at r at 40 digits."""
    with mpmath.workdps(REF_DPS):
        left, right, d, members = exact_members(p, mu1, mu2, r)
        edge = left ** mpmath.mpf(mu1) * right ** mpmath.mpf(mu2)
        out = []
        for (a, b, c), e, on_z in members:
            x = (left if on_z else right) / d
            out.append(edge * x ** e * mpmath.hyp2f1(a, b, c, x))
        return out


def exact_branch_jets(p, mu1, mu2, r):
    """The four branches' (F, F', F'') at r at 40 digits, differentiated in
    closed form: the power's by its logarithmic derivative, the 2F1's by
    d/dx F(a,b;c;x) = ab/c F(a+1,b+1;c+1;x)."""
    with mpmath.workdps(REF_DPS):
        left, right, d, members = exact_members(p, mu1, mu2, r)
        h = mpmath.hyp2f1
        out = []
        for (a, b, c), e, on_z in members:
            x, dx = (left / d, 1 / d) if on_z else (right / d, -1 / d)
            m1, m2 = mpmath.mpf(mu1) + (e if on_z else 0), mpmath.mpf(mu2) + (0 if on_z else e)
            p0 = left ** mpmath.mpf(mu1) * right ** mpmath.mpf(mu2) * x ** e
            q = m1 / left - m2 / right
            p1, p2 = p0 * q, p0 * (q * q - m1 / left ** 2 - m2 / right ** 2)
            g0 = h(a, b, c, x)
            g1 = a * b / c * h(a + 1, b + 1, c + 1, x) * dx
            g2 = a * b * (a + 1) * (b + 1) / (c * (c + 1)) * h(a + 2, b + 2, c + 2, x) * dx ** 2
            out.append((p0 * g0, p1 * g0 + p0 * g1, p2 * g0 + 2 * p1 * g1 + p0 * g2))
        return out


def own_variables(br, r):
    """(z, w) at r, each formed from r as a Kummer set forms them."""
    left, right, d = r - br.map.xi1, br.map.xi2 - r, br.map.xi2 - br.map.xi1
    if br.map.variant is ode.MapVariant.MAP_I:
        return left / d, right / d
    return right / d, left / d


def own_value(br, r):
    """The branch alone from its own triple: the route every branch took
    before the four shared a set, and the one connection_check takes, save
    where z rounds to 1 and w is positive: there, as past 1/2 elsewhere, a
    non-terminating branch is w1's row over the pair summed at w."""
    if not (br.map.xi1 < r < br.map.xi2):
        raise DomainError(f"r={r!r} outside the interval")
    pref = (r - br.map.xi1) ** br.mu1 * (br.map.xi2 - r) ** br.mu2
    z, w = own_variables(br, r)
    if z == 1.0 and w > 0.0 and br.hyp.terminating_degree is None:
        plan = br.hyp._plan
        return pref * plan.value(0, plan.summed(0, (2, 3), z, w, _UNKNOWN, False))
    return pref * ode._f_part(br, r)


def row_jet(p, z, w=None):
    """(F, F', F'') of 2F1(a,b;c;z): _hyp2f1_jet, and past 1/2 while w > 0
    the row of w1 over w3 = F(near; w) and w4 = w^e F(far; w), w = 1 - z
    unless given, each summed on w, the power taken by the product rule;
    d/dz = -d/dw."""
    if w is None:
        w = 1.0 - z
    if not (0.5 < z and w > 0.0) or p.terminating_degree is not None:
        return _hyp2f1_jet(p, z)
    plan = p._plan
    plan.row(0)  # a degenerate row raises before any series is summed
    near, far, e = plan.triple(2), plan.triple(3), plan.powers[3]
    u = _hyp2f1_jet(near, w)
    v0, v1, v2 = _hyp2f1_jet(far, w)
    we, de = w ** e, e * w ** (e - 1.0)
    v = (we * v0, de * v0 + we * v1,
         e * (e - 1.0) * w ** (e - 2.0) * v0 + 2.0 * de * v1 + we * v2)
    f0, f1, f2 = plan.jet(0, (None, None, u, v))
    return f0, -f1, f2


def own_jet(br, r):
    """The jet of the branch alone: its row_jet times the edge factor and
    z^extra_power, one power differentiated by the rule the set uses; where
    z rounds to 1, the row over the pair at w formed from r."""
    if not (br.map.xi1 < r < br.map.xi2):
        raise DomainError(f"r={r!r} outside the interval")
    left, right = r - br.map.xi1, br.map.xi2 - r
    (z, w), u = own_variables(br, r), br.map.dz_dr
    e = br.extra_power
    pref = left ** br.mu1 * right ** br.mu2
    if e != 0.0:
        if z == 0.0 and e < 0.0:
            raise DomainError(f"z^{e!r} diverges at r={r!r}")
        pref *= z ** e
    if br.map.variant is ode.MapVariant.MAP_I:  # z vanishes at xi1
        m1, m2 = br.mu1 + e, br.mu2
    else:
        m1, m2 = br.mu1, br.mu2 + e
    p0, p1, p2 = ode._power_jet(pref, left, right, m1, m2)
    h0, h1, h2 = row_jet(br.hyp, z, w if z == 1.0 else None)
    g0, g1, g2 = h0, u * h1, u * u * h2
    jet = (p0 * g0, p1 * g0 + p0 * g1, p2 * g0 + 2.0 * p1 * g1 + p0 * g2)
    if not all(map(math.isfinite, jet)):
        raise DomainError(f"jet at r={r!r} is not finite")
    return jet


def outcome(fn, *args):
    try:
        return fn(*args)
    except (Error, ArithmeticError) as exc:
        return type(exc)


def bits(v):
    """A float's bits, or what outcome gave in its place."""
    return v.hex() if isinstance(v, float) else v


def build_all(p, mu1, mu2):
    return [build_branch(p, mu1, mu2, bid) for bid in BranchId]


class TestOneTriple:
    # a dense_grid draw whose c-a-b is -2.0008: the rows of w1 and w2
    # multiply their series' error by ~400
    TRIPLE = (0.6590889633262962, 3.768159673965991, 2.4264731836357236)
    Z = 0.5036927500516595
    PARAMS = OdeParams(
        a1=-2.9147496631548493, b1=-0.9538522887753254, a2=-0.02555664970098162,
        b2=-0.7394945559090089, a3=-0.5280457804907768, b3=-0.18578431746293375,
        c3=-0.7184135621684105, lam=0.9719678223107249,
        xi1=-0.8045296628432446, xi2=1.0097262837517607)

    def members_exact(self, w):
        with mpmath.workdps(REF_DPS):
            a, b, c, z, w = map(mpmath.mpf, (*self.TRIPLE, self.Z, w))
            h = mpmath.hyp2f1
            return [h(a, b, c, z), z ** (1 - c) * h(a - c + 1, b - c + 1, 2 - c, z),
                    h(a, b, a + b - c + 1, w),
                    w ** (c - a - b) * h(c - a, c - b, c - a - b + 1, w)]

    def test_members_from_one_triple(self):
        w = 1.0 - self.Z
        plan = _KummerPlan(*self.TRIPLE)
        want = self.members_exact(w)
        known = _UNKNOWN
        for k in range(4):
            need = plan.routes(self.Z, w)[k]
            known = plan.summed(k, need, self.Z, w, known, False)
            got = known[k] if known[k] is not None else plan.value(k, known)
            assert abs(got - want[k]) <= VALUE_BOUND * abs(want[k]), k

    def test_sibling_triples_miss_the_bound(self):
        # the rows of w1 and w2 over the series of the breve branches'
        # triples formed from c_breve, each separately rounded: what one
        # float triple avoids
        exps = indicial_exponents(self.PARAMS)
        s, m_mid, c_hat, c_breve = ode._branch_data(
            self.PARAMS, exps.mu1.second, exps.mu2.second)
        lo, hi = m_mid - s, m_mid + s
        assert (lo, hi, c_hat) == self.TRIPLE
        w = 1.0 - self.Z
        u = hyp2f1(Hyp2F1(hi, lo, c_breve), w)
        v = hyp2f1(Hyp2F1(lo - c_breve + 1.0, hi - c_breve + 1.0, 2.0 - c_breve), w) \
            * w ** (1.0 - c_breve)
        plan = _KummerPlan(*self.TRIPLE)
        want = self.members_exact(w)
        for k in (0, 1):
            s, g, alpha, beta = plan.row(k)[:4]
            mixed = s * (g * (alpha * u - beta * v))
            assert abs(mixed - want[k]) > VALUE_BOUND * abs(want[k]), k


def test_dense_box_against_mpmath():
    # 2 seeds x 16 draws x 48 points of the dense_grid box: 1,536 rows
    points = 0
    for seed in (11, 12):
        for p, mu1, mu2, rnd in dense_draws(seed, 16):
            branches = build_all(p, mu1, mu2)
            lo, hi = p.xi1 + DENSE_EDGE * p.width, p.xi2 - DENSE_EDGE * p.width
            for _ in range(48):
                r = rnd.uniform(lo, hi)
                want = exact_branches(p, mu1, mu2, r)
                for br, ref in zip(branches, want):
                    got = evaluate(br, r)
                    assert abs(got - ref) <= VALUE_BOUND * abs(ref), (p, br.branch_id, r)
                    assert residual(br, p, r) <= RESIDUAL_BOUND, (p, br.branch_id, r)
                points += 1
    assert points >= 1500


def test_values_next_to_each_end():
    # w = 1 - z formed from r itself: the branch that reaches z -> 1 keeps
    # its digits where 1 - z would keep none (test_floats_next_to_each_end
    # goes on to where z rounds to 1 itself)
    for p, mu1, mu2, _ in dense_draws(21, 12):
        branches = build_all(p, mu1, mu2)
        for t in (1e-13, 1e-9):
            for r in (p.xi1 + t * p.width, p.xi2 - t * p.width):
                want = exact_branches(p, mu1, mu2, r)
                for br, ref in zip(branches, want):
                    got = evaluate(br, r)
                    assert abs(got - ref) <= VALUE_BOUND * abs(ref), (p, br.branch_id, r)


# |got - want| <= END_BOUND (1 + |want|) for F, F' and F''
END_BOUND = 1e-12


def test_floats_next_to_each_end():
    # the three floats inside each end, on both root pairs: where z or w
    # rounds to 1 while the other, formed from r, is positive, a member is
    # its row over the pair summed there, as anywhere past 1/2
    for p, upper1, upper2, _ in dense_draws(21, 12):
        exps = indicial_exponents(p)
        for mu1, mu2 in ((upper1, upper2), (exps.mu1.first, exps.mu2.first)):
            branches = build_all(p, mu1, mu2)
            for end, inward in ((p.xi1, math.inf), (p.xi2, -math.inf)):
                r = end
                for _ in range(3):
                    r = math.nextafter(r, inward)
                    values = exact_branches(p, mu1, mu2, r)
                    jets = exact_branch_jets(p, mu1, mu2, r)
                    for br, ref, want in zip(branches, values, jets):
                        got = (evaluate(br, r),) + value_and_derivatives(br, r)
                        for order, (g, w) in enumerate(zip(got, (ref,) + want)):
                            err = float(abs(g - w) / (1 + abs(w)))
                            assert err <= END_BOUND, (p, mu1, mu2, br.branch_id, r, order, err)


def test_connection_check_reads_each_branch_alone():
    # the identity's coefficients are hat1's row in the shared set, the ones
    # evaluate uses; its two sides sum each branch on its own triple
    p, exps = draw_nondegenerate(SplitMix64(15))
    mu1, mu2 = exps.mu1.second, exps.mu2.second
    hat1, _, breve1, breve2 = build_all(p, mu1, mu2)
    s, g, alpha, beta = ode._member_of(hat1)[0]._plan.row(0)[:4]
    alone = ode._f_part
    for t in (0.2, 0.5, 0.8):
        r = p.xi1 + t * p.width
        lhs, rhs = connection_check(p, mu1, mu2, r)
        assert lhs == alone(hat1, r) / s
        assert rhs == g * (alpha * alone(breve1, r) - beta * alone(breve2, r))
        evaluate(breve1, r)
        assert connection_check(p, mu1, mu2, r) == (lhs, rhs)


def test_set_built_on_a_triple_takes_its_plan():
    # a set built on a triple, by hand or by the Kuipers check, reads the
    # rows that hyp2f1 and generalized_solutions keep on that triple
    zmap = ode.CoordinateMap(ode.MapVariant.MAP_I, -1.0, 1.0)
    by_hand = ode.SolutionBranch(mu1=0.3, mu2=-0.2, extra_power=0.0, hyp=Hyp2F1(0.4, 0.7, 1.9),
                                 map=zmap, branch_id=BranchId.HAT1)
    assert ode._member_of(by_hand)[0]._plan is by_hand.hyp._plan
    t = LegendreTriple(k=1.7, m=0.3, n=0.4)
    kuipers_reduction_check(t, -1.0, 1.0, 0.3)
    assert t.__dict__["_kuipers"][1]._plan is t._first._plan


class TestWeakLink:
    """The w1 triple of a Kummer plan reads that plan back through a weak
    link: the one plan while it lives, no cycle to keep it alive, and the
    triple's own plan, with the same bits, once it is gone."""

    @staticmethod
    def linked(seed=3):
        p, exps = draw_nondegenerate(SplitMix64(seed))
        branches = build_all(p, exps.mu1.second, exps.mu2.second)
        return p, branches, ode._member_of(branches[0])[0]._plan

    def test_no_cycle_keeps_the_plan_alive(self):
        gc.disable()
        try:
            p, branches, plan = self.linked()
            hyp2f1(branches[0].hyp, 0.8)
            link = weakref.ref(plan)
            del p, branches, plan
            assert link() is None  # freed by reference counting alone
        finally:
            gc.enable()

    def test_w1_reads_its_sets_plan(self):
        p, (hat1, _, breve1, breve2), plan = self.linked()
        hyp2f1(hat1.hyp, 0.8)
        assert hat1.hyp._plan is plan
        assert "_plan" not in vars(hat1.hyp)
        # the route summed the breve branches' own triples, their memos kept
        assert breve1.hyp is plan.triple(2) and breve2.hyp is plan.triple(3)
        assert "_coefs" in vars(breve1.hyp) and "_coefs" in vars(breve2.hyp)

    def test_w1_builds_its_own_plan_once_its_set_is_gone(self):
        p, branches, plan = self.linked()
        t = branches[0].hyp
        rnd = random.Random(5)
        zs = [0.5 + 0.5 * rnd.random() for _ in range(50)]
        linked = [hyp2f1(t, z) for z in zs]
        link = weakref.ref(plan)
        del p, branches, plan
        gc.collect()
        assert link() is None
        own = t._plan
        assert own is t._plan and vars(t)["_plan"] is own
        got = [hyp2f1(t, z) for z in zs]
        assert [v.hex() for v in got] == [v.hex() for v in linked]
        fresh = Hyp2F1(t.a, t.b, t.c)
        assert [hyp2f1(fresh, z).hex() for z in zs] == [v.hex() for v in linked]

    def test_linked_values_match_a_fresh_triple_bitwise(self):
        rng, rnd = SplitMix64(29), random.Random(29)
        checked = 0
        for i in range(500):
            p, exps = draw_nondegenerate(rng)
            z = 0.5 + 0.5 * rnd.random()
            try:
                hat1, _, breve1, breve2 = build_all(p, exps.mu1.second, exps.mu2.second)
            except Error:
                continue
            if i % 2:  # the breves first, so the memos hat1's route shares are warm
                outcome(hyp2f1, breve1.hyp, 1.0 - z)
                outcome(hyp2f1, breve2.hyp, 1.0 - z)
            t = hat1.hyp
            got = outcome(hyp2f1, t, z)
            want = outcome(hyp2f1, Hyp2F1(t.a, t.b, t.c), z)
            assert bits(got) == bits(want), (p, z, got, want)
            checked += isinstance(got, float)
        assert checked > 400


class TestSharedMemo:
    @staticmethod
    def cases():
        rng = SplitMix64(41)
        for _ in range(6):
            p, exps = draw_nondegenerate(rng)
            yield p, exps.mu1.second, exps.mu2.second
        for p, mu1, mu2, _ in dense_draws(7, 4):
            yield p, mu1, mu2

    @staticmethod
    def points(p):
        mid = p.xi1 + 0.5 * p.width
        return [p.xi1 + t * p.width for t in (0.1, 0.3, 0.45, 0.55, 0.8, 0.97)] + [mid]

    def test_bitwise_alone_or_with_siblings_in_any_order(self):
        for p, mu1, mu2 in self.cases():
            points = self.points(p)
            alone = {}
            for k, bid in enumerate(BranchId):
                for r in points:
                    # a fresh pack: nothing of the siblings is summed
                    q = OdeParams.from_dict(p.to_dict())
                    br = build_branch(q, mu1, mu2, bid)
                    alone[k, r] = (evaluate(br, r), value_and_derivatives(br, r))
            orders = (list(range(4)), [3, 2, 1, 0], [2, 0, 3, 1])
            for order in orders:
                branches = build_all(p, mu1, mu2)
                for r in points:
                    for k in order:
                        got = value_and_derivatives(branches[k], r)
                        assert got == alone[k, r][1], (p, k, r)
                    for k in order[::-1]:
                        assert evaluate(branches[k], r) == alone[k, r][0], (p, k, r)

    def test_threads_evaluating_other_points(self):
        p, mu1, mu2 = next(iter(self.cases()))
        points = [p.xi1 + p.width * (0.02 + 0.96 * i / 40) for i in range(41)]
        serial = {}
        for k, br in enumerate(build_all(OdeParams.from_dict(p.to_dict()), mu1, mu2)):
            for r in points:
                serial[k, r] = (evaluate(br, r), value_and_derivatives(br, r))
        shared = build_all(p, mu1, mu2)
        wrong = []

        def work(step):
            for rep in range(3):
                for i in range(len(points)):
                    r = points[(i * step + rep) % len(points)]
                    for k, br in enumerate(shared):
                        if (evaluate(br, r), value_and_derivatives(br, r)) != serial[k, r]:
                            wrong.append((step, k, r))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(step,)) for step in (1, 3, 7, 11)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def test_route_table_built_once_per_side(monkeypatch):
    # a 1,024-point grid of one set across z = 1/2: its plan builds one
    # route table per side, each build replacing the tuple of tables, and
    # a row held at its point calls neither routes nor row
    calls = dict.fromkeys(("routes", "row"), 0)
    for name in calls:
        def counted(self, *args, _real=getattr(hypergeom._KummerPlan, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(hypergeom._KummerPlan, name, counted)
    p, mu1, mu2, _ = next(dense_draws(5, 1))
    branches = build_all(p, mu1, mu2)
    plan = ode._member_of(branches[0])[0]._plan
    builds, tables = 0, plan._routes
    for i in range(1024):
        r = p.xi1 + p.width * (0.02 + 0.96 * i / 1023)
        for br in branches:
            for kind in (evaluate, value_and_derivatives):
                kind(br, r)
                if plan._routes is not tables:
                    builds, tables = builds + 1, plan._routes
        calls.update(dict.fromkeys(calls, 0))
        for br in branches:
            evaluate(br, r)
            value_and_derivatives(br, r)
        assert calls == {"routes": 0, "row": 0}, r
    assert builds == 2
    assert [t is not None for t in plan._routes] == [False, True, True, False]


def sweep_params():
    """Classical integer parameters, c = 1, integer c-a-b, and draws."""
    for a1, b1, lam in ((-2.0, 0.0, 6.0), (-2.0, 0.0, 2.0), (-1.0, 0.0, 2.0),
                        (-1.0, 0.5, 0.75), (0.0, 0.5, 0.75), (-2.0, 0.5, 12.0),
                        (-1.0, -1.0, 2.0), (0.0, -1.0, 0.0)):
        for c3 in (0.0, -0.75):
            for xi1, xi2 in ((-1.0, 1.0), (0.0, 2.0)):
                yield OdeParams(a1=a1, b1=b1, a2=0.0, b2=0.0, a3=0.0, b3=0.0,
                                c3=c3, lam=lam, xi1=xi1, xi2=xi2)
    rng = SplitMix64(43)
    for _ in range(8):
        yield draw_nondegenerate(rng)[0]


def test_error_types_match_the_branch_alone():
    seen = set()
    for p in sweep_params():
        exps = indicial_exponents(p)
        if exps.mu1.is_complex or exps.mu2.is_complex:
            continue
        for mu1 in exps.mu1.as_tuple():
            for mu2 in exps.mu2.as_tuple():
                branches = []
                for bid in BranchId:
                    try:
                        branches.append(build_branch(p, mu1, mu2, bid))
                    except Error as exc:
                        seen.add(type(exc).__name__)
                points = [math.nextafter(p.xi1, math.inf), p.xi1 + 1e-9,
                          (p.xi1 + p.xi2) / 2.0, math.nextafter(p.xi2, -math.inf),
                          p.xi2 - 1e-9, p.xi1 - 0.5] + [
                    p.xi1 + t * p.width for t in (0.01, 0.3, 0.55, 0.8, 0.99)]
                for r in points:
                    for br in branches:
                        for shared, alone in ((evaluate, own_value),
                                              (value_and_derivatives, own_jet)):
                            got, want = outcome(shared, br, r), outcome(alone, br, r)
                            if isinstance(want, type):
                                assert got is want, (p, mu1, mu2, br.branch_id, r)
                                seen.add(want.__name__)
                            else:
                                assert not isinstance(got, type), (p, br.branch_id, r, got)
    # the sweep reaches every error class a branch can meet, each typed; a
    # gamma pole is always met as a degenerate row first (PoleError came
    # from Gauss's value at z = 1 of a jet's shifted triple alone)
    assert {"DegenerateC", "DegenerateCase", "DomainError"} <= seen
    assert not seen & {"ZeroDivisionError", "PoleError"}


def test_each_branch_triple_is_the_one_its_set_sums():
    # build_branch takes a branch's Hyp2F1 from its Kummer set, so solve
    # prints the floats evaluate sums
    packs = []
    for p in sweep_params():
        exps = indicial_exponents(p)
        if not (exps.mu1.is_complex or exps.mu2.is_complex):
            packs += [(p, mu1, mu2) for mu1 in exps.mu1.as_tuple()
                      for mu2 in exps.mu2.as_tuple()]
    packs += [(p, mu1, mu2) for p, mu1, mu2, _ in dense_draws(7, 32)]
    checked = 0
    for p, mu1, mu2 in packs:
        for bid in BranchId:
            try:
                br = build_branch(p, mu1, mu2, bid)
            except Error:
                continue
            kset, k = ode._member_of(br)
            assert br.hyp is kset._plan.triple(k), (p, mu1, mu2, bid)
            checked += 1
    assert checked > 300


# |got - want| <= HAND_BOUND (1 + |want|) for F, F' and F''; the worst
# point reads about 1e-15
HAND_BOUND = 1e-13


@pytest.mark.parametrize("variant", list(ode.MapVariant))
def test_branch_built_by_hand_carries_its_extra_power(variant):
    # build_branch gives every branch a member of the shared set, so only a
    # branch built by hand has its value multiplied by z^extra_power; on
    # z > 0.5 its w1 is the row over w3 and w4
    zmap = ode.CoordinateMap(variant, -1.0, 1.5)
    br = ode.SolutionBranch(mu1=0.3, mu2=-0.2, extra_power=0.37, hyp=Hyp2F1(0.4, 1.3, 1.9),
                            map=zmap, branch_id=BranchId.HAT1)
    for z in (0.1, 0.3, 0.45, 0.55, 0.7, 0.9):
        r = zmap.xi1 + z * 2.5 if variant is ode.MapVariant.MAP_I else zmap.xi2 - z * 2.5
        want = exact_jet(br, r)
        got = (evaluate(br, r),) + value_and_derivatives(br, r)
        for order, (g, w) in enumerate(zip(got, want[:1] + want)):
            err = float(abs(g - w) / (1 + abs(w)))
            assert err <= HAND_BOUND, (variant, z, order, err)
