"""Seeded inputs, timed operations and output checks of the three workloads.

Every workload is a cycle of blocks.  A block is what one CLI call computes
and prints as one table: rows for one parameter set, or one `verify` run.
An op is one row (one `verify` run for verify_sweep); it is the unit that
is timed, counted and checked.

Inputs come from `random.Random(seed)`, never from `hyplegendre.rng`, so a
change to the library's generator leaves them alone.  No draw is dropped:
each box is chosen so that its draws are well-defined inputs, and whatever
the library does with them is counted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mpmath

from hyplegendre import legendre_families as lf
from hyplegendre import ode_solutions as ode
from hyplegendre import verify

# what became of an op; every outcome but OK is a failed op
OK, TYPED, UNTYPED, NONFINITE, WRONG = "ok", "typed", "untyped", "nonfinite", "wrong"

VALUE_TOL = 1e-8  # allowed error against the references
REF_DPS = 40

# dense_grid: the desk-scale box of rng.draw_ode_params, except that the
# potential coefficients are narrowed so that its numerator
# a3 r^2 + (a2 + b3) r + b2 + c3 is <= 0 at both singular points.  Both
# indicial discriminants are then >= 0, so every draw has real exponents.
DENSE_BOX = {
    "a1": (-3.0, 1.0), "b1": (-1.0, 1.0),
    "a2": (-0.2, 0.2), "b2": (-0.8, -0.4),
    "a3": (-0.8, 0.0), "b3": (-0.2, 0.2), "c3": (-0.8, -0.4),
    "lam": (0.5, 7.0), "xi1": (-2.0, -0.3), "xi2": (0.3, 2.0),
}
DENSE_SETS = 32
DENSE_POINTS = 1024  # per parameter set
DENSE_ROWS_PER_BLOCK = 32
DENSE_EDGE = 0.02  # points stay this share of the width inside each end
DENSE_RESIDUAL_BOUND = 1e-8
# mpmath checks a few rows of the first blocks, which every run reaches
DENSE_CHECKED_BLOCKS = 32
DENSE_CHECKED_PER_BLOCK = 4

FAMILY_PAIRS = 64
FAMILY_POINTS = 16  # per pair, one block
# universal degree offset: ell from ~0.5 to ~18.5.  The seed's sum form
# loses digits as the degree grows (relative error ~1e-8 near offset 20)
# and overflows past ell ~71, so higher degrees would fail ops.
FAMILY_N_INDEX = (0.0, 16.0)
FAMILY_MPRIME = (0.5, 2.5)
FAMILY_K = (0.2, 6.0)
FAMILY_M = (-0.9, 0.9)
# |n|, at least 0.05 from any integer: at integer n the seed fails half of
# the points (DegenerateCase at n = 1, ZeroDivisionError at n = 0)
FAMILY_N = (0.05, 0.95)
# one pair in four takes k = (n - m)/2 + j, so that the first 2F1 of
# `legendre generalized` terminates after j terms
FAMILY_TERMINATING_J = (1, 6)
FAMILY_R = (-0.95, 0.95)

# Fixed `families` inputs outside its box, on which the seed library fails:
# `legendre generalized --k 2.5 --m 0.5 --grid -0.8:0.8:5` at integer n
# (with a low universal degree), and universal degrees past the digit loss
# and the overflow (with generic orders).  (n_index, k, m, n) per pair.
PROBE_PAIRS = (
    (4, 2.5, 0.5, 0.0), (4, 2.5, 0.5, 1.0), (4, 2.5, 0.5, 2.0),
    (40, 1.7, 0.3, 0.6), (60, 1.7, 0.3, 0.6), (75, 1.7, 0.3, 0.6),
)
PROBE_MPRIME = 1.0
PROBE_R = (-0.8, -0.4, 0.0, 0.4, 0.8)

VERIFY_CASES = 5
VERIFY_TOL = 1e-8  # the CLI default
VERIFY_SEEDS = 4096


@dataclass
class Block:
    """One table's worth of ops; `ops` are (input id, input) pairs."""

    context: object
    ops: list


def _latin(rnd: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """`count` draws from [lo, hi), one per equal stratum, in random order.

    Stratifying keeps the mix of cheap and costly inputs alike from seed to
    seed, which keeps the run-to-run spread of the timings small.
    """
    strata = list(range(count))
    rnd.shuffle(strata)
    return [lo + (hi - lo) * (s + rnd.random()) / count for s in strata]


def _interleave(per_context: list[Block], rows: int) -> list[Block]:
    """Cut each context's ops into blocks of `rows` and deal them
    round-robin, so that any prefix of the cycle covers every context."""
    chunks = [
        [Block(b.context, b.ops[i:i + rows]) for i in range(0, len(b.ops), rows)]
        for b in per_context
    ]
    return [c[i] for i in range(max(map(len, chunks))) for c in chunks if i < len(c)]


def _point_row(r: float, out: tuple) -> list:
    return [(r, *out)]


def _outcome(values, refs, floor: float) -> str:
    if not all(math.isfinite(v) for v in values):
        return NONFINITE
    if refs is not None and any(
        abs(v - ref) > VALUE_TOL * (abs(ref) + floor) for v, ref in zip(values, refs)
    ):
        return WRONG
    return OK


class _DenseSet:
    """One parameter set and its four branches on the upper indicial roots
    (the CLI default), built once as `eval` builds them once per grid."""

    def __init__(self, p: ode.OdeParams) -> None:
        self.p = p
        self.error = None
        try:
            exps = ode.indicial_exponents(p)
            mu1, mu2 = exps.mu1.second, exps.mu2.second
            self.branches = [ode.build_branch(p, mu1, mu2, b) for b in ode.BranchId]
        except Exception as exc:  # every op of the set then fails with it
            self.error = exc

    def reference(self, r: float) -> list:
        """The four branch values at r from mpmath."""
        with mpmath.workdps(REF_DPS):
            rr = mpmath.mpf(r)
            out = []
            for br in self.branches:
                xi1, xi2 = mpmath.mpf(br.map.xi1), mpmath.mpf(br.map.xi2)
                if br.map.variant is ode.MapVariant.MAP_I:
                    z = (rr - xi1) / (xi2 - xi1)
                else:
                    z = (xi2 - rr) / (xi2 - xi1)
                h = br.hyp
                f = mpmath.hyp2f1(h.a, h.b, h.c, z) * z ** br.extra_power
                out.append((rr - xi1) ** br.mu1 * (xi2 - rr) ** br.mu2 * f)
            return out


class DenseGrid:
    """One row of `eval --branch all` and `residual --branch all` per op."""

    name = "dense_grid"
    headers = ["r"] + [b.value for b in ode.BranchId] + [
        f"res_{b.value}" for b in ode.BranchId]
    trace_blocks = DENSE_SETS

    def __init__(self, seed: int) -> None:
        rnd = random.Random(seed)
        cols = {k: _latin(rnd, lo, hi, DENSE_SETS) for k, (lo, hi) in DENSE_BOX.items()}
        per_set = []
        for i in range(DENSE_SETS):
            p = ode.OdeParams(**{k: v[i] for k, v in cols.items()})
            points = _latin(rnd, p.xi1 + DENSE_EDGE * p.width,
                            p.xi2 - DENSE_EDGE * p.width, DENSE_POINTS)
            ops = [(i * DENSE_POINTS + j, r) for j, r in enumerate(points)]
            per_set.append(Block(_DenseSet(p), ops))
        self.blocks = _interleave(per_set, DENSE_ROWS_PER_BLOCK)
        self._refs = {}
        for block in self.blocks[:DENSE_CHECKED_BLOCKS]:
            if block.context.error is None:
                for op_id, r in rnd.sample(block.ops, DENSE_CHECKED_PER_BLOCK):
                    self._refs[op_id] = block.context.reference(r)

    @staticmethod
    def op(ctx: _DenseSet, r: float) -> tuple:
        if ctx.error is not None:
            raise ctx.error.with_traceback(None)
        values = tuple(ode.evaluate(b, r) for b in ctx.branches)
        return values + tuple(ode.residual(b, ctx.p, r) for b in ctx.branches)

    rows = staticmethod(_point_row)

    def classify(self, op_id: int, r: float, out: tuple) -> str:
        verdict = _outcome(out, self._refs.get(op_id), 0.0)
        if verdict == OK and max(out[4:]) > DENSE_RESIDUAL_BOUND:
            return WRONG
        return verdict


@dataclass
class _FamilyPair:
    u: lf.UniversalParams
    t: lf.LegendreTriple
    p: ode.OdeParams  # the equation `legendre generalized` builds on (-1, 1)

    @classmethod
    def make(cls, n_index: int, mprime: float, k: float, m: float, n: float) -> "_FamilyPair":
        t = lf.LegendreTriple(k=k, m=m, n=n)
        return cls(
            lf.UniversalParams.from_degrees(ell=mprime + n_index, mprime=mprime), t,
            ode.OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0,
                          c3=0.0, lam=t.k * (t.k + 1.0), xi1=-1.0, xi2=1.0))


class Families:
    """One row of `legendre universal` and `legendre generalized` per op."""

    name = "families"
    headers = ["r", "value", "f1", "f2"]
    trace_blocks = FAMILY_PAIRS

    def __init__(self, seed: int) -> None:
        rnd = random.Random(seed)
        # pair i takes the i-th degree stratum, so the terminating pairs
        # (every fourth) spread evenly over the degrees on every seed
        lo, hi = FAMILY_N_INDEX
        n_index = [int(lo + (hi - lo) * (i + rnd.random()) / FAMILY_PAIRS)
                   for i in range(FAMILY_PAIRS)]
        mprime = _latin(rnd, *FAMILY_MPRIME, FAMILY_PAIRS)
        k = _latin(rnd, *FAMILY_K, FAMILY_PAIRS)
        m = _latin(rnd, *FAMILY_M, FAMILY_PAIRS)
        per_pair = []
        for i in range(FAMILY_PAIRS):
            n = rnd.choice((-1.0, 1.0)) * rnd.uniform(*FAMILY_N)
            ki = k[i]
            if i % 4 == 0:
                ki = (n - m[i]) / 2.0 + rnd.randint(*FAMILY_TERMINATING_J)
            points = _latin(rnd, *FAMILY_R, FAMILY_POINTS)
            ops = [(i * FAMILY_POINTS + j, r) for j, r in enumerate(points)]
            per_pair.append(Block(_FamilyPair.make(n_index[i], mprime[i], ki, m[i], n), ops))
        rnd.shuffle(per_pair)
        self._set_blocks(per_pair)

    def _set_blocks(self, blocks: list[Block]) -> None:
        self.blocks = blocks
        self._refs = {}
        for block in blocks:
            self._refs.update(_family_references(block))

    @staticmethod
    def op(ctx: _FamilyPair, r: float) -> tuple:
        value = lf.universal_sum(ctx.u, r)
        f1, f2 = lf.generalized_solutions(ctx.t, ctx.t.n / 2.0, -ctx.t.m / 2.0, ctx.p, r)
        return (value, f1, f2)

    rows = staticmethod(_point_row)

    def classify(self, op_id: int, r: float, out: tuple) -> str:
        # the universal functions are normalized, so errors are measured
        # against 1 + |value|, which stays meaningful at their zeros
        return _outcome(out, self._refs[op_id], 1.0)


class KnownFailures(Families):
    """The PROBE_PAIRS inputs, run once per traced run and counted apart
    from the workload's ops, so that the failures left out of the families
    box still show."""

    def __init__(self) -> None:
        self._set_blocks([
            Block(_FamilyPair.make(n_index, PROBE_MPRIME, k, m, n),
                  [(i * len(PROBE_R) + j, r) for j, r in enumerate(PROBE_R)])
            for i, (n_index, k, m, n) in enumerate(PROBE_PAIRS)
        ])


def _family_references(block: Block) -> dict:
    """Universal sum form and both generalized solutions from mpmath, for
    every op of the block."""
    u, t = block.context.u, block.context.t
    n = u.n_index
    out = {}
    with mpmath.workdps(REF_DPS):
        mpf = mpmath.mpf
        ell, mp_half = mpf(u.ell), mpf(u.mprime) / 2
        coeffs = [
            (-1) ** nu * mpmath.gamma(2 * ell - 2 * nu + 1)
            / (2 ** ell * mpmath.factorial(nu) * mpmath.factorial(n - 2 * nu)
               * mpmath.gamma(ell - nu + 1))
            for nu in range(n // 2 + 1)
        ]
        norm = mpmath.sqrt((2 * ell + 1) * mpmath.factorial(n)
                           / (2 * mpmath.gamma(ell + u.mprime + 1)))
        k, m, nn = mpf(t.k), mpf(t.m), mpf(t.n)
        for op_id, r in block.ops:
            rr = mpf(r)
            poly = mpmath.fsum(c * rr ** (n - 2 * nu) for nu, c in enumerate(coeffs))
            value = norm * (1 - rr * rr) ** mp_half * poly
            zb = (1 - rr) / 2
            left = (rr + 1) ** (nn / 2)
            f1 = left * (1 - rr) ** (-m / 2) * mpmath.hyp2f1(
                -k + (nn - m) / 2, k + 1 + (nn - m) / 2, 1 - m, zb)
            f2 = left * (1 - rr) ** (m / 2) * mpmath.hyp2f1(
                -k + (nn + m) / 2, k + 1 + (nn + m) / 2, 1 + m, zb)
            out[op_id] = (value, f1, f2)
    return out


class VerifySweep:
    """One `verify --cases VERIFY_CASES` run per op, each on a fresh seed."""

    name = "verify_sweep"
    headers = ["suite", "cases", "passed", "failed", "max_err"]
    trace_blocks = 32

    def __init__(self, seed: int) -> None:
        rnd = random.Random(seed)
        self.blocks = [Block(None, [(i, rnd.getrandbits(48))]) for i in range(VERIFY_SEEDS)]

    @staticmethod
    def op(ctx: None, run_seed: int) -> tuple:
        return tuple(verify.run_all(run_seed, VERIFY_CASES, VERIFY_TOL))

    @staticmethod
    def rows(run_seed: int, out: tuple) -> list:
        return [(r.name, r.cases, r.passed, r.failed, r.max_err) for r in out]

    def classify(self, op_id: int, run_seed: int, out: tuple) -> str:
        verdict = _outcome([r.max_err for r in out], None, 0.0)
        if verdict == OK and not (
            [r.name for r in out] == list(verify.SUITE_NAMES)
            and all(r.failed == 0 and r.passed == VERIFY_CASES for r in out)
        ):
            return WRONG
        return verdict


WORKLOADS = {w.name: w for w in (DenseGrid, VerifySweep, Families)}
