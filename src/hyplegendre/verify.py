"""Seeded property suites behind the `verify` command.

Each suite runs a fixed number of independently drawn cases and reports
pass/fail counts plus the largest error seen.  Everything is a pure
function of (seed, cases, tol), so repeated runs are byte-reproducible.
"""

from __future__ import annotations

from . import hypergeom as hg
from . import legendre_families as lf
from . import ode_solutions as ode
from .errors import InvalidParams
from .rng import SplitMix64, draw_nondegenerate

_SAMPLE_FRACTIONS = (0.15, 0.3, 0.5, 0.7, 0.85)
_KUIPERS_FRACTIONS = (0.55, 0.7, 0.85)
_SQRT_PI = 1.7724538509055160273


class SuiteResult(hg._Frozen):
    name: str
    cases: int
    passed: int
    failed: int
    max_err: float

    def __init__(self, name: str, cases: int, passed: int, failed: int, max_err: float) -> None:
        self.__dict__.update(zip(self._fields, (name, cases, passed, failed, max_err)))


def _connection_case(rng: SplitMix64, hat: ode.BranchId) -> float:
    p, exps = draw_nondegenerate(rng)
    mu1, mu2 = exps.mu1.second, exps.mu2.second
    worst = 0.0
    for t in _SAMPLE_FRACTIONS:
        r = p.xi1 + t * p.width
        lhs, rhs = ode.connection_check(p, mu1, mu2, r, hat=hat)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def _pfaff_case(rng: SplitMix64) -> float:
    a = rng.uniform(-3.0, 3.0)
    b = rng.uniform(-3.0, 3.0)
    c = rng.uniform(0.3, 3.5)
    z = rng.uniform(-0.45, 0.45)
    p = hg.Hyp2F1(a, b, c)
    q, power = hg.pfaff_transform(p)
    direct = hg.hyp2f1(p, z)
    transformed = (1.0 - z) ** power * hg.hyp2f1(q, z)
    return abs(direct - transformed) / (1.0 + abs(direct))


def _duplication_case(rng: SplitMix64) -> float:
    x = rng.uniform(0.5, 10.0)
    lhs = hg.gamma(2.0 * x)
    rhs = 2.0 ** (2.0 * x - 1.0) * hg.gamma(x) * hg.gamma(x + 0.5) / _SQRT_PI
    return abs(lhs - rhs) / abs(lhs)


def _sumform_case(rng: SplitMix64) -> float:
    mprime = (0.5, 1.0, 1.5, 2.0)[rng.index(4)]
    n = 2 * rng.index(6)
    u = lf.UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
    worst_abs = 0.0
    scale = 0.0
    for i in range(21):
        r = -0.95 + i * 0.095
        s = lf.universal_sum(u, r)
        h = lf.universal_hypergeometric(u, r)
        worst_abs = max(worst_abs, abs(s - h))
        scale = max(scale, abs(s))
    return worst_abs / max(scale, 1e-30)


def _kuipers_case(rng: SplitMix64) -> float:
    t = lf.LegendreTriple(
        k=rng.uniform(0.2, 3.5),
        m=rng.uniform(-0.85, 0.85),
        n=rng.uniform(-0.85, 0.85),
    )
    xi1 = rng.uniform(-1.5, -0.3)
    xi2 = rng.uniform(0.3, 1.5)
    worst = 0.0
    for frac in _KUIPERS_FRACTIONS:
        r = xi1 + frac * (xi2 - xi1)
        worst = max(worst, lf.kuipers_reduction_check(t, xi1, xi2, r))
    return worst


_CASE_RUNNERS = {
    "connection": lambda rng: _connection_case(rng, ode.BranchId.HAT1),
    "connection2": lambda rng: _connection_case(rng, ode.BranchId.HAT2),
    "pfaff": _pfaff_case,
    "duplication": _duplication_case,
    "sumform": _sumform_case,
    "kuipers": _kuipers_case,
}
# in run order: a suite's index also decorrelates its stream from the seed
SUITE_NAMES = tuple(_CASE_RUNNERS)


def run_suite(name: str, seed: int, cases: int, tol: float) -> SuiteResult:
    """Run one named suite; the per-suite stream is decorrelated from the
    base seed by the suite's index.  InvalidParams, in this order, for cases
    that is no int (a bool is none) or below 1, a tol that is no int or float
    or not positive (nan included), or an unknown suite."""
    if isinstance(cases, bool) or not isinstance(cases, int):
        raise InvalidParams(f"cases must be an integer, got {cases!r}")
    if cases < 1:
        raise InvalidParams("cases must be at least 1")
    if isinstance(tol, bool) or not isinstance(tol, (int, float)):
        raise InvalidParams(f"tol must be a real number, got {tol!r}")
    if not tol > 0.0:
        raise InvalidParams("tol must be positive")
    runner = _CASE_RUNNERS.get(name)
    if runner is None:
        raise InvalidParams(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    rng = SplitMix64(seed + SUITE_NAMES.index(name))
    passed = failed = 0
    max_err = 0.0
    for _ in range(cases):
        err = runner(rng)
        max_err = max(max_err, err)
        if err <= tol:
            passed += 1
        else:
            failed += 1
    return SuiteResult(name=name, cases=cases, passed=passed, failed=failed,
                       max_err=max_err)


def run_all(
    seed: int,
    cases: int,
    tol: float,
    suites: tuple[str, ...] = SUITE_NAMES,
) -> list[SuiteResult]:
    """run_suite of each suite named in the sequence suites (one str is
    InvalidParams), once every argument has passed run_suite's checks."""
    if isinstance(suites, str):
        raise InvalidParams(f"suites must be a sequence of suite names, not the str {suites!r}")
    suites = tuple(suites)
    for name in suites:  # an unknown name: run_suite raises, at cases or tol first
        if name not in SUITE_NAMES:
            run_suite(name, seed, cases, tol)
    return [run_suite(name, seed, cases, tol) for name in suites]
