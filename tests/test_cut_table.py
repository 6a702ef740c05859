"""The cut table of the 2F1 kernels: every non-terminating sum at |z| <= 0.5
takes the term count its 1/128-wide bucket of |z| found once, at the
bucket's outer edge, and sums without a per-term test (values forward, jets
by Horner's scheme).  Checked against mpmath, against fresh instances
bitwise, for the table's own invariants, and the one-loop scan bitwise
against the split loops it replaced."""

import math
import random
import struct
import sys
import threading
from array import array
from itertools import chain, islice

import pytest

from hyplegendre import Hyp2F1, NoConvergence, PoleError, hyp2f1
from hyplegendre.hypergeom import (
    _CANCEL_TOL,
    _CUT_EDGES,
    _CUTS_PER_UNIT,
    _BUCKETS,
    _C0,
    _FLOOR_PER_TOTAL,
    _MAX_TERMS,
    _NO_CUTS,
    _REL_TOL,
    _hyp2f1_jet,
    _memo,
    _scan,
)

mpmath = pytest.importorskip("mpmath")

REF_DPS = 30
# |got - want| <= SWEEP_BOUND (1 + |want|) for F, F' and F''; the worst
# point is F'' of an alternating series at z -> -0.5, whose terms sum to
# ~200 times |F''| (3.8e-14 there)
SWEEP_BOUND = 1e-13

# every bucket edge and midpoint of [-0.5, 0.5], with 0 and +-0.5
SWEEP_ZS = sorted({k / _CUTS_PER_UNIT for k in range(-64, 65)}
                  | {(k + 0.5) / _CUTS_PER_UNIT for k in range(-64, 64)})


def sweep_triples():
    rnd = random.Random(2024)
    return [(rnd.uniform(-3.0, 3.0), rnd.uniform(-3.0, 3.0), rnd.uniform(0.3, 3.5))
            for _ in range(10)]


def reference(a, b, c, z):
    """F, F', F'' at 30 digits, the derivatives by the parameter shift."""
    with mpmath.workdps(REF_DPS):
        a, b, c, z = map(mpmath.mpf, (a, b, c, z))
        return (mpmath.hyp2f1(a, b, c, z),
                a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z),
                a * b * (a + 1) * (b + 1) / (c * (c + 1)) * mpmath.hyp2f1(a + 2, b + 2, c + 2, z))


def test_sweep_against_mpmath():
    assert len(SWEEP_ZS) == 257 and SWEEP_ZS[0] == -0.5 and 0.0 in SWEEP_ZS
    for abc in sweep_triples():
        p = Hyp2F1(*abc)
        for z in SWEEP_ZS:
            want = reference(*abc, z)
            got = hyp2f1(p, z)
            assert abs(got - want[0]) <= SWEEP_BOUND * (1 + abs(want[0])), (abc, z)
            for order, (g, w) in enumerate(zip(_hyp2f1_jet(p, z), want)):
                assert abs(g - w) <= SWEEP_BOUND * (1 + abs(w)), (abc, z, order)


TRIPLES = [(0.6, 1.4, 2.3), (-1.7, 2.9, 0.6), (2.2, -1.35, 0.45), (1.25, 2.23, 0.77)]
# a grid that crosses every bucket, and the bucket edges themselves
GRID = [-0.5 + i / 300 for i in range(301)] + [k / _CUTS_PER_UNIT for k in range(-64, 65)]


@pytest.mark.parametrize("abc", TRIPLES)
def test_any_order_on_a_shared_instance_gives_fresh_values(abc):
    fresh = {z: (hyp2f1(Hyp2F1(*abc), z), _hyp2f1_jet(Hyp2F1(*abc), z)) for z in GRID}
    shuffled = GRID[:]
    random.Random(7).shuffle(shuffled)
    for order in (sorted(GRID), sorted(GRID, reverse=True), shuffled):
        values, jets, both = Hyp2F1(*abc), Hyp2F1(*abc), Hyp2F1(*abc)
        for z in order:
            assert hyp2f1(values, z) == fresh[z][0], (abc, z)
            assert _hyp2f1_jet(jets, z) == fresh[z][1], (abc, z)
            assert _hyp2f1_jet(both, z) == fresh[z][1], (abc, z)
            assert hyp2f1(both, z) == fresh[z][0], (abc, z)


class RecordingCuts(array):
    """A cut table, counts then floors, that logs every count written to
    it with the floor beside it at that moment."""

    def __new__(cls):
        table = super().__new__(cls, "f", _NO_CUTS)
        table.writes = []
        return table

    def __setitem__(self, i, v):
        super().__setitem__(i, v)
        if i < _BUCKETS:
            self.writes.append((i, (v, self[i + _BUCKETS])))


def recorded(abc):
    p = Hyp2F1(*abc)
    vars(p)["_cuts"], vars(p)["_jet_cuts"] = RecordingCuts(), RecordingCuts()
    return p


@pytest.mark.parametrize("abc", TRIPLES)
def test_each_entry_is_written_once_with_its_edge_count(abc):
    zs = GRID * 2
    random.Random(11).shuffle(zs)
    p, q = recorded(abc), recorded(abc)
    for z in zs:
        hyp2f1(p, z)
        _hyp2f1_jet(p, z)
    for z in sorted(zs):
        _hyp2f1_jet(q, z)
        hyp2f1(q, z)
    for key, jet in (("_cuts", False), ("_jet_cuts", True)):
        writes = vars(p)[key].writes
        buckets = [i for i, _ in writes]
        assert sorted(buckets) == list(range(_BUCKETS))  # each once
        for i, (n, floor) in writes:
            # the count and, already written, the floor found at the edge,
            # whoever asks first; rounded to float32, but never down
            edge_n, _, total, _ = _scan(Hyp2F1(*abc), _CUT_EDGES[i], jet)
            assert n == edge_n > 0
            assert floor == array("f", [total * _FLOOR_PER_TOTAL])[0]
            assert floor >= total * (_REL_TOL / _CANCEL_TOL)
        assert vars(p)[key].tolist() == vars(q)[key].tolist()


@pytest.mark.parametrize("abc", TRIPLES)
def test_edge_count_covers_every_point_of_its_bucket(abc):
    # the term test is monotone in |x|: the edge never needs fewer terms
    p = Hyp2F1(*abc)
    for z in GRID:
        i = min(int(abs(z) * _CUTS_PER_UNIT), _BUCKETS - 1)
        for jet in (False, True):
            own = _scan(p, abs(z), jet)[0]
            assert 0 < own <= _scan(p, _CUT_EDGES[i], jet)[0], (abc, z, jet)


def test_threads_write_the_same_entries():
    abc = (0.6, 1.4, 2.3)
    zs = GRID[:]
    random.Random(3).shuffle(zs)
    fresh = {z: hyp2f1(Hyp2F1(*abc), z) for z in zs}
    shared = [recorded(abc) for _ in range(20)]
    wrong = []

    def work(step):
        for p in shared:
            for i in range(len(zs)):
                z = zs[(i * step) % len(zs)]
                if hyp2f1(p, z) != fresh[z]:
                    wrong.append(z)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(step,)) for step in (1, 3, 7, 11)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    counts = {}
    for p in shared:
        for i, entry in vars(p)["_cuts"].writes:
            counts.setdefault(i, set()).add(entry)
    assert all(len(ns) == 1 for ns in counts.values())


@pytest.mark.parametrize("kernel, table", [(hyp2f1, "_cuts"), (_hyp2f1_jet, "_jet_cuts")])
def test_memo_shorter_than_a_written_count_is_grown(kernel, table):
    # _publish tests the memo's length, then assigns: of two racing scans,
    # the one that read a shorter memo can publish last and leave the memo
    # shorter than a count the other already wrote; _cut grows it back
    abc, z = (0.6, 1.4, 2.3), 0.45
    want = kernel(Hyp2F1(*abc), z)
    p = Hyp2F1(*abc)
    kernel(p, z)
    n = int(vars(p)[table][int(z * _CUTS_PER_UNIT)])
    vars(p)["_coefs"] = vars(p)["_coefs"][:n // 2]
    assert kernel(p, z) == want
    assert len(vars(p)["_coefs"]) > n


def test_bucket_past_the_budget_takes_each_point_own_count():
    # at the edge 58/128 the series runs out of the budget; 0.45 in that
    # bucket converges on its own count, and 0.5 raises as it always did
    abc = (150.3, 150.7, 1.1)
    p = Hyp2F1(*abc)
    value = hyp2f1(p, 0.45)
    assert vars(p)["_cuts"][int(0.45 * _CUTS_PER_UNIT)] == -1
    assert 1 < len(vars(p)["_coefs"]) < _MAX_TERMS + 1
    assert hyp2f1(p, 0.45) == value == hyp2f1(Hyp2F1(*abc), 0.45)
    with pytest.raises(NoConvergence, match="did not reach"):
        hyp2f1(p, 0.5)


# sums whose terms reach 10^40 or more and cancel to below 10^-10: what
# they return is rounding error, so each raises, whether the bucket's count
# was found at its edge (60.3, 50.7) or at the point, after the edge ran
# out of the budget (150.3, 150.7)
CANCELLING = [((150.3, 150.7, 1.1), -0.45), ((150.3, 150.7, 1.1), -0.3),
              ((60.3, 50.7, 1.1), -0.45)]


@pytest.mark.parametrize("abc, z", CANCELLING)
def test_cancelled_sum_raises(abc, z):
    with mpmath.workdps(60):
        assert abs(mpmath.hyp2f1(*abc, z)) < 1e-10
    # on a fresh instance, and on one whose bucket -z (terms of one sign,
    # no cancellation) has filled
    for warm_at in (None, -z):
        p = Hyp2F1(*abc)
        if warm_at is not None:
            assert hyp2f1(p, warm_at) > 0.0
        with pytest.raises(NoConvergence, match="cancels below its rounding error"):
            hyp2f1(p, z)
    with pytest.raises(NoConvergence):
        _hyp2f1_jet(Hyp2F1(*abc), z)


_STEPS = tuple(map(float, range(_MAX_TERMS)))  # k - 1 of the recurrence's c_k, as floats


def reference_scan(p, e, jet, z=0.0):
    """_scan as it was with one loop per kind, and for values one for the
    memo's c_k and one for the recurrence's: the oracle of the one loop."""
    a, b, c = p.a, p.b, p.c
    rel = _REL_TOL
    coefs = list(p.__dict__.get("_coefs", _C0))
    known = len(coefs)
    s0, s1, s2 = 1.0, 0.0, 0.0
    x0, x1, x2 = e, 1.0, 0.0  # e^k, e^(k-1), e^(k-2)
    # one loop per kind, and for values one for the memo's c_k and one for
    # the recurrence's: a test per term of either costs a tenth of the scan
    if jet:
        acc = None
        ck, j = 1.0, 0.0  # j = k - 1, a float: it saves an int->float per use
        for k in range(1, _MAX_TERMS + 1):
            if k < known:
                ck = coefs[k]
            else:
                ck *= (a + j) * (b + j) / ((c + j) * (j + 1.0))
                coefs.append(ck)
            j += 1.0
            m = abs(ck)
            t0, t1, t2 = m * x0, j * m * x1, j * (j - 1.0) * m * x2
            s0 += t0
            s1 += t1
            s2 += t2
            if t2 <= rel * s2 and t1 <= rel * s1 and t0 <= rel * s0:
                break
            x0, x1, x2 = x0 * e, x0, x1
        else:
            k = 0
        return (k if s0 + s1 + s2 < math.inf else -1), coefs, s0, acc
    acc = zk = ck = 1.0
    k = 0
    for k, ck in enumerate(coefs[1:], 1):
        zk *= z
        acc += ck * zk
        t0 = ck * x0
        if t0 < 0.0:  # abs(), a call, costs more
            t0 = -t0
        s0 += t0
        if t0 <= rel * s0:
            break
        x0 *= e
    else:
        grow = coefs.append
        # j = k - 1 for the c_k formed; islice only past a memo's entries
        for j in (islice(_STEPS, k, None) if k else _STEPS):
            ck *= (a + j) * (b + j) / ((c + j) * (j + 1.0))
            grow(ck)
            zk *= z
            acc += ck * zk
            t0 = ck * x0
            if t0 < 0.0:
                t0 = -t0
            s0 += t0
            if t0 <= rel * s0:
                k = int(j) + 1
                break
            x0 *= e
        else:
            k = 0
    return (k if s0 < math.inf else -1), coefs, s0, acc


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def scan_draws(count):
    """(p, e, jet, z) over a, b in [-40, 40] and c in [-20, 40], one in 20
    with a, b in [150, 400] (the budget and the float range run out); each
    memo grown first to 1..501 entries; at a bucket edge with z in its
    bucket, at z's own |z|, or at z = 0; for values and for jets."""
    rnd = random.Random(20250)
    while count:
        if rnd.random() < 0.05:
            a, b = rnd.uniform(150.0, 400.0), rnd.uniform(150.0, 400.0)
        else:
            a, b = rnd.uniform(-40.0, 40.0), rnd.uniform(-40.0, 40.0)
        try:
            p = Hyp2F1(a, b, rnd.uniform(-20.0, 40.0))
        except PoleError:
            continue
        try:
            _memo(p, rnd.randrange(_MAX_TERMS + 1), 0.0)
        except NoConvergence:
            pass  # the memo ends at its first c_k past the float range
        where = rnd.randrange(3)
        if where == 0:
            i = rnd.randrange(_BUCKETS)
            z = math.copysign(rnd.uniform(i, i + 1) / _CUTS_PER_UNIT, rnd.random() - 0.5)
            e = _CUT_EDGES[i]
        else:
            z = rnd.uniform(-0.5, 0.5) if where == 1 else 0.0
            e = abs(z)
        count -= 1
        yield p, e, rnd.random() < 0.5, z


def budget_draws():
    """(150.3, 150.7; 1.1) at the edge 58/128, where both kinds run out of
    the budget (few random draws reach it), on a fresh memo and a grown one."""
    for grown in (0, 300):
        for jet in (False, True):
            p = Hyp2F1(150.3, 150.7, 1.1)
            _memo(p, grown, 0.0)
            yield p, _CUT_EDGES[57], jet, -0.45


def test_one_loop_scan_matches_the_split_loops_bitwise():
    ends = set()
    for p, e, jet, z in chain(scan_draws(20_000), budget_draws()):
        k, coefs, total, s = _scan(p, e, jet, z)
        want = reference_scan(p, e, jet, z)
        assert k == want[0], (p, e, jet, z)
        assert list(map(_bits, coefs)) == list(map(_bits, want[1])), (p, e, jet, z)
        assert (_bits(total), _bits(s)) == (_bits(want[2]), _bits(want[3])), (p, e, jet, z)
        ends.add((min(k, 1), jet))
    # every return, for both kinds: converged, budget run out, float range left
    assert ends == {(1, False), (0, False), (-1, False), (1, True), (0, True), (-1, True)}
