"""The two memos a row of branch calls reads at one point: the Kummer set's,
which answers a member its siblings already gave without summing a series
again, and the operator terms kept on the parameter pack.  Either must give
what a fresh set, or the formula written out, gives, bit for bit."""

import itertools
import math
import sys
import threading

from test_kummer_set import build_all, dense_draws, outcome

from hyplegendre import (
    BranchId,
    DegenerateCase,
    Error,
    OdeParams,
    build_branch,
    connection_check,
    evaluate,
    indicial_exponents,
    residual,
)
from hyplegendre import hypergeom
from hyplegendre import ode_solutions as ode
from hyplegendre.ode_solutions import apply_operator, value_and_derivatives

KINDS = (evaluate, value_and_derivatives)


def order_points(p):
    """z below and above 0.5, z at 0.5 and its neighbours, and 1e-9 of the
    width from each end."""
    mid = p.xi1 + 0.5 * p.width
    return [p.xi1 + 0.3 * p.width, p.xi1 + 0.7 * p.width, mid,
            math.nextafter(mid, -math.inf), math.nextafter(mid, math.inf),
            p.xi1 + 1e-9 * p.width, p.xi2 - 1e-9 * p.width]


def buildable(q, mu1, mu2):
    """The branches of q that build, by member index."""
    built = {}
    for k, bid in enumerate(BranchId):
        try:
            built[k] = build_branch(q, mu1, mu2, bid)
        except Error:
            pass
    return built


def fresh(p):
    return OdeParams.from_dict(p.to_dict())


def alone(p, mu1, mu2, points):
    """Each branch's value and jet at each point, on a fresh set per call."""
    out = {}
    for k in buildable(fresh(p), mu1, mu2):
        for r in points:
            for kind in KINDS:
                out[kind, k, r] = outcome(kind, buildable(fresh(p), mu1, mu2)[k], r)
    return out


def check_every_order(p, mu1, mu2, hats=()):
    """Every order of the branches at each point against each alone; the
    connection identity of each of hats is checked first, which builds the
    hat's row whether or not its member is ever row-formed."""
    points = order_points(p)
    want = alone(p, mu1, mu2, points)
    for order in itertools.permutations(range(4)):
        # one set over all points: rows are cold at the first, built after
        q = fresh(p)
        branches = buildable(q, mu1, mu2)
        for hat in hats:
            connection_check(q, mu1, mu2, points[0], hat)
        order = [k for k in order if k in branches]
        for r in points:
            for i, k in enumerate(order):
                # the two kinds interleaved, each first for half the branches
                for kind in (KINDS if i % 2 == 0 else KINDS[::-1]):
                    got = outcome(kind, branches[k], r)
                    assert got == want[kind, k, r], (p, order, k, r, kind.__name__)
    return want


def test_dense_sets_in_every_order():
    for p, mu1, mu2, _ in dense_draws(5, 3):
        check_every_order(p, mu1, mu2)


def test_integer_c_minus_a_minus_b_raises_in_every_order():
    # a1 = -1, lam = 2 on (0, 2) with mu1 = mu2 = 0: c-a-b and 1-c are
    # integers, so the row-formed branch raises at every point
    p = OdeParams(a1=-1.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                  lam=2.0, xi1=0.0, xi2=2.0)
    want = check_every_order(p, 0.0, -0.0)
    raised = [key for key, got in want.items() if got is DegenerateCase]
    assert {k for _, k, _ in raised} >= {1, 2}, raised
    assert {kind for kind, _, _ in raised} == set(KINDS)


def test_terminating_member_with_its_row_built():
    # the Legendre degree-2 equation, c3 = -0.75: at these exponents the
    # hat2 member terminates, and is summed on its own on either side of
    # z = 0.5 even once connection_check has built its row
    p = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=-0.75,
                  lam=6.0, xi1=-1.0, xi2=1.0)
    mu1, mu2 = indicial_exponents(p).mu1.second, indicial_exponents(p).mu2.second
    check_every_order(p, mu1, mu2, hats=(BranchId.HAT2,))


def test_held_point_sums_nothing(monkeypatch):
    # a row sums two series and two jets, the pair on the near side of
    # z = 0.5, and forms the geometry of r once; the same row again at the
    # same r sums none and forms nothing
    calls = dict.fromkeys(("hyp2f1", "_hyp2f1_jet", "_fresh"), 0)
    for name in ("hyp2f1", "_hyp2f1_jet"):
        def counted(*args, _real=getattr(hypergeom, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(hypergeom, name, counted)

    def fresh(*args, _real=ode._KummerSet._fresh):
        calls["_fresh"] += 1
        return _real(*args)
    monkeypatch.setattr(ode._KummerSet, "_fresh", fresh)
    p, mu1, mu2, _ = next(dense_draws(5, 1))
    branches = build_all(p, mu1, mu2)
    assert all(br.hyp.terminating_degree is None for br in branches)
    for z in (0.3, 0.7):
        r = p.xi1 + z * p.width
        for want, geometry in ((2, 1), (0, 0)):
            calls.update(dict.fromkeys(calls, 0))
            for br in branches:
                evaluate(br, r)
                value_and_derivatives(br, r)
            assert calls == {"hyp2f1": want, "_hyp2f1_jet": want, "_fresh": geometry}, (z, want)


def plain_operator(p, r, f, f1, f2):
    """apply_operator with its terms formed at each call."""
    w = (r - p.xi1) * (p.xi2 - r)
    potential = p.lam + (p.a2 * r + p.b2) / w \
        + (p.a3 * r * r + p.b3 * r + p.c3) / w
    return w * f2 + (p.a1 * r + p.b1) * f1 + potential * f


def plain_residual(s, p, r):
    f, f1, f2 = value_and_derivatives(s, r)
    return abs(plain_operator(p, r, f, f1, f2)) / (1.0 + abs(f) + abs(f1) + abs(f2))


def row_residuals(branches, p, r):
    return [residual(br, p, r) for br in branches]


class TestOperatorMemo:
    @staticmethod
    def draws():
        return [(p, mu1, mu2) for p, mu1, mu2, _ in dense_draws(9, 3)]

    def test_alternating_points_on_one_pack(self):
        for p, mu1, mu2 in self.draws():
            branches = build_all(p, mu1, mu2)
            r1, r2 = p.xi1 + 0.3 * p.width, p.xi1 + 0.8 * p.width
            want = {r: [plain_residual(br, p, r) for br in branches] for r in (r1, r2)}
            for r in (r1, r2, r1, r1, r2, r2, r1):
                assert row_residuals(branches, p, r) == want[r], (p, r)

    def test_two_packs_at_one_point(self):
        (p, pm1, pm2), (q, qm1, qm2) = self.draws()[:2]
        p_branches, q_branches = build_all(p, pm1, pm2), build_all(q, qm1, qm2)
        lo, hi = max(p.xi1, q.xi1), min(p.xi2, q.xi2)
        for t in (0.2, 0.5, 0.9):
            r = lo + t * (hi - lo)
            want_p = [plain_residual(br, p, r) for br in p_branches]
            want_q = [plain_residual(br, q, r) for br in q_branches]
            for _ in range(2):
                assert row_residuals(p_branches, p, r) == want_p, (p, r)
                assert row_residuals(q_branches, q, r) == want_q, (q, r)

    def test_sign_of_zero_reaches_the_terms(self):
        # b1 = -0.0: the drift at r = -0.0 is -0.0 and at r = 0.0 it is
        # 0.0, and with F = F'' = -0.0 that sign is the operator's
        p = OdeParams(a1=1.0, b1=-0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                      lam=0.0, xi1=-1.0, xi2=1.0)
        signs = set()
        for r in (0.0, -0.0, 0.0, -0.0):
            got = apply_operator(p, r, -0.0, 1.0, -0.0)
            assert repr(got) == repr(plain_operator(p, r, -0.0, 1.0, -0.0)), r
            signs.add(repr(got))
        assert signs == {"0.0", "-0.0"}

    def test_threads_on_other_points(self):
        p, mu1, mu2 = self.draws()[0]
        points = [p.xi1 + p.width * (0.02 + 0.96 * i / 40) for i in range(41)]
        fresh = OdeParams.from_dict(p.to_dict())
        serial = {r: [plain_residual(br, fresh, r) for br in build_all(fresh, mu1, mu2)]
                  for r in points}
        shared = build_all(p, mu1, mu2)
        wrong = []

        def work(step):
            for rep in range(3):
                for i in range(len(points)):
                    r = points[(i * step + rep) % len(points)]
                    if row_residuals(shared, p, r) != serial[r]:
                        wrong.append((step, r))

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
