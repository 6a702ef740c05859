"""The two named specializations of the general equation: the two-order
generalized Legendre family on an arbitrary interval, and the universal
polynomial family with its explicit sum and hypergeometric closed form.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import (
    DegenerateC,
    DomainError,
    InvalidParams,
    NoConvergence,
    PoleError,
)
from .hypergeom import (
    _UNKNOWN,
    Hyp2F1,
    _dist_to_int,
    _isfinite,
    _Pack,
    _power,
    _series_magnitude,
    gamma,
    hyp2f1,
    pochhammer,
)
from .ode_solutions import (
    CoordinateMap,
    MapVariant,
    OdeParams,
    _branch_data,
    _check_finite,
    _KummerSet,
    _power_jet,
    apply_operator,
)

_CONSISTENCY_TOL = 1e-9
_SUM_ERR_FACTOR = 16.0 * 2.0 ** -52  # rounding error per unit of sum |term|
_SUM_TOL = 1e-8
_MAX_N_INDEX = 1000  # the recurrence is O(n_index); its bound is tested up to here
_MAX_MPRIME = 1000.0  # lgamma's rounding costs K 5e-13 here, 3e-11 at 1e4


class LegendreTriple(_Pack):
    """Degree k and the two order parameters (m, n).

    The 2F1 triples of the two generalized solutions are built on first use
    and kept in the instance __dict__, out of sight of equality and hashing,
    as is kuipers_reduction_check's Kummer set for the last interval.
    """

    k: float
    m: float
    n: float

    def __init__(self, k: float, m: float, n: float) -> None:
        super().__init__(k, m, n)

    @cached_property
    def _first(self) -> Hyp2F1:
        return self._triple(-self.m)

    @cached_property
    def _second(self) -> Hyp2F1:
        return self._triple(self.m)

    def _triple(self, m: float) -> Hyp2F1:
        # (-k+(n+m)/2, k+1+(n+m)/2; 1+m): F1 takes -m, F2 takes m
        half = (self.n + m) / 2.0
        try:
            return Hyp2F1(-self.k + half, self.k + 1.0 + half, 1.0 + m)
        except PoleError as exc:
            raise DegenerateC(str(exc)) from exc


class UniversalParams(_Pack):
    """Parameter pack of the universal polynomial family.

    The fields are linked: b = 0, mprime = sqrt(a + c + m^2),
    lam = ell(ell+1) - c and ell = mprime + n_index, n_index an integer from
    0 to _MAX_N_INDEX.  The constructor rejects inconsistent or non-finite
    packs.  The sum form's constant and steps and the closed form's constant
    and triple are built on first use and kept in the instance __dict__.
    """

    ell: float
    mprime: float
    a: float
    b: float
    c: float
    m: float
    lam: float
    n_index: int

    def __init__(self, ell: float, mprime: float, a: float, b: float, c: float, m: float,
                 lam: float, n_index: int) -> None:
        super().__init__(ell, mprime, a, b, c, m, lam)  # n_index is stored once checked
        if b != 0.0:
            raise InvalidParams("universal family requires b = 0")
        if not (isinstance(n_index, int) and 0 <= n_index <= _MAX_N_INDEX):
            raise InvalidParams(f"n_index must be an integer from 0 to {_MAX_N_INDEX}")
        if mprime < 0.0:
            raise InvalidParams("mprime must be the nonnegative square root")
        if abs(_power(mprime, 2) - (a + c + _power(m, 2))) > _CONSISTENCY_TOL:
            raise InvalidParams("mprime must equal sqrt(a + c + m^2)")
        if abs(lam - (ell * (ell + 1.0) - c)) > _CONSISTENCY_TOL:
            raise InvalidParams("lambda must equal ell(ell+1) - c")
        if abs(ell - mprime - n_index) > _CONSISTENCY_TOL:
            raise InvalidParams("ell must equal mprime + n_index")
        self.__dict__["n_index"] = n_index

    @classmethod
    def from_degrees(
        cls,
        ell: float,
        mprime: float,
        a: float = 0.0,
        c: float = 0.0,
        m: float | None = None,
    ) -> "UniversalParams":
        """Build a consistent pack from the two degrees.

        With the defaults the potential is a pure magnetic-type term,
        m = mprime.  An explicit (a, c, m) combination must reproduce
        mprime; lambda is always derived.
        """
        for name, v in (("ell", ell), ("mprime", mprime), ("c", c)):  # the arithmetic's inputs
            _isfinite(name, v)  # a str or an int past the float range: InvalidParams
        n_float = ell - mprime
        if (not -_CONSISTENCY_TOL <= n_float <= _MAX_N_INDEX + 0.5  # nan, inf fail
                or _dist_to_int(n_float) > _CONSISTENCY_TOL):
            raise InvalidParams(
                f"ell - mprime = {n_float!r} must be an integer from 0 to {_MAX_N_INDEX}"
            )
        if m is None:
            m = mprime
            if a != 0.0 or c != 0.0:
                raise InvalidParams("give m explicitly when a or c is nonzero")
        return cls(
            ell=ell,
            mprime=mprime,
            a=a,
            b=0.0,
            c=c,
            m=m,
            lam=ell * (ell + 1.0) - c,
            n_index=int(round(n_float)),
        )

    @cached_property
    def _sum_form(self) -> tuple[float, list[tuple[float, float]]]:
        """K*norm, in log space, and the steps (a_k, b_k) of the recurrence
        C_(k+1) = a_k r C_k - b_k C_(k-1) of the Gegenbauer polynomial
        C_n^lam, lam = mprime + 1/2; the sum form's polynomial factor is
        K C_n^lam(r) with K = 2^mprime Gamma(lam)/sqrt(pi) (duplication)."""
        n, mp = self.n_index, self.mprime
        log_const = (mp * math.log(2.0) + math.lgamma(mp + 0.5) - 0.5 * math.log(math.pi)
                     + 0.5 * (math.log(self.ell + 0.5) + math.lgamma(n + 1.0)
                              - math.lgamma(self.ell + mp + 1.0)))
        if not -708.0 <= log_const <= 709.0 or mp > _MAX_MPRIME:  # exp(log_const) normal
            raise NoConvergence(f"sum-form constant at mprime={mp!r}, n_index={n} "
                                "leaves the float range or loses its digits")
        steps = [(2.0 * (k + mp + 0.5) / (k + 1.0), (k + 2.0 * mp) / (k + 1.0))
                 for k in range(n)]
        return math.exp(log_const), steps

    @cached_property
    def _closed_form(self) -> tuple[float, Hyp2F1]:
        """The constant and the 2F1 triple of the closed form (even n_index)."""
        n, ell = self.n_index, self.ell
        half = n // 2
        try:
            pref = (
                (-1.0) ** half
                * 2.0 ** (ell - 0.5)
                * gamma(ell + 0.5)
                * pochhammer(0.5, half)
                / (math.sqrt(math.pi) * pochhammer((1.0 + ell + self.mprime) / 2.0, half))
                * math.sqrt(
                    (2.0 * ell + 1.0)
                    / (math.factorial(n) * gamma(ell + self.mprime + 1.0))
                )
            )
        except OverflowError as exc:
            raise NoConvergence(
                f"closed-form constant at n_index={n} leaves the float range") from exc
        return pref, Hyp2F1((1.0 + ell + self.mprime) / 2.0, -float(half), 0.5)

    @staticmethod
    def _from_json(key: str, v):
        if key == "n_index" and _isfinite(key, v) and v % 1 == 0:
            return int(v)
        return _Pack._from_json(key, v)  # n_index 2.7, nan: rejected, not cut


def map_to_triple(p: OdeParams, mu1: float, mu2: float) -> LegendreTriple:
    """The (k, m, n) parameters carried by the general equation for the
    chosen exponents, from the square root s and the lower parameters
    c_hat, c_breve its branches are built on:

        k = -1/2 - s = -1/2 - sqrt(((1+a1)/2)^2 + lambda - a3)
        n = c_hat - 1 = 2 mu1 - 1 + (b1 + a1 xi1)/(xi2 - xi1)
        m = 1 - c_breve = 1 - 2 mu2 - (b1 + a1 xi2)/(xi1 - xi2)
    """
    s, _, c_hat, c_breve = _branch_data(p, mu1, mu2)
    return LegendreTriple(k=-0.5 - s, m=1.0 - c_breve, n=c_hat - 1.0)


def generalized_solutions(
    t: LegendreTriple,
    mu1: float,
    mu2: float,
    p: OdeParams,
    r: float,
) -> tuple[float, float]:
    """The two generalized-family solutions at r:

        F1 = (r-xi1)^mu1 (xi2-r)^mu2     2F1(-k+(n-m)/2, k+1+(n-m)/2; 1-m; zb)
        F2 = (r-xi1)^mu1 (xi2-r)^(mu2+m) 2F1(-k+(n+m)/2, k+1+(n+m)/2; 1+m; zb)

    with zb = (xi2-r)/(xi2-xi1).  F2 is (r-xi1)^mu1 (xi2-r)^mu2 (xi2-xi1)^m
    times w2 of F1's Kummer set, F1 its w1: where F1's plan routes them so
    (past zb = 1/2, unless a series terminates) each is its row over one pair
    (w3, w4) summed on w = (r-xi1)/(xi2-xi1) formed from r, else hyp2f1 at
    zb.  The interval edges are admitted whenever the corresponding prefactor
    power is nonnegative; a non-finite exponent raises InvalidParams, a power
    that diverges or leaves the float range (_power) DomainError, and so does
    a solution that comes out inf or nan.
    """
    _check_finite(mu1, mu2)
    if not (p.xi1 <= r <= p.xi2):
        raise DomainError(f"r={r!r} outside [{p.xi1!r}, {p.xi2!r}]")
    width, d1, d2 = p.width, r - p.xi1, p.xi2 - r
    zb, w = d2 / width, d1 / width
    h1, h2 = t._first, t._second
    left = _power(d1, mu1)
    edge = left * _power(d2, mu2)
    plan = h1._plan
    routes = plan.routes(zb, w)
    if routes[1] == (1,):
        f1 = (hyp2f1(h1, zb) if routes[0] == (0,)
              else plan.value(0, plan.summed(0, routes[0], zb, w, _UNKNOWN, False)))
        f1, f2 = edge * f1, left * _power(d2, mu2 + t.m) * hyp2f1(h2, zb)
    else:
        pair = plan.summed(1, routes[1], zb, w, _UNKNOWN, False)  # row 1 before any sum
        f1 = hyp2f1(h1, zb) if routes[0] == (0,) else plan.value(0, pair)
        f1, f2 = edge * f1, edge * plan.value(1, pair) * _power(width, t.m)
    if not math.isfinite(f1) or not math.isfinite(f2):
        raise DomainError(f"generalized solutions at r={r!r} are not finite: ({f1!r}, {f2!r})")
    return f1, f2


def kuipers_reduction_check(t: LegendreTriple, xi1: float, xi2: float, r: float) -> float:
    """Normalized residual of the reduced two-order equation

        (r-xi1)(xi2-r) F'' + (-2r+xi1+xi2) F'
          + (k(k+1) + n^2(xi1-xi2)/(4(r-xi1)) - m^2(xi1-xi2)/(4(r-xi2))) F = 0

    applied to F1 with the standard exponent choice mu1 = n/2, mu2 = -m/2.
    The operator is assembled directly from (k, m, n), independently of the
    general-equation machinery.  A non-finite interval end raises
    InvalidParams.
    """
    if not (xi1 < r < xi2):
        raise DomainError(f"r={r!r} outside ({xi1!r}, {xi2!r})")
    kept = t.__dict__.get("_kuipers")
    if kept is None or kept[0] != (xi1, xi2):
        # the points of one interval share F1's Kummer set, F1 its member w1
        if not (math.isfinite(xi1) and math.isfinite(xi2)):
            raise InvalidParams(f"interval ends must be finite, got ({xi1!r}, {xi2!r})")
        kset = _KummerSet(t._first._plan, t.n / 2.0, -t.m / 2.0,
                          CoordinateMap(MapVariant.MAP_II, xi1, xi2))
        kept = t.__dict__["_kuipers"] = ((xi1, xi2), kset)
    f, f1, f2 = kept[1].jet(0, r)
    lhs = (
        (r - xi1) * (xi2 - r) * f2
        + (-2.0 * r + xi1 + xi2) * f1
        + (
            t.k * (t.k + 1.0)
            + t.n ** 2 * (xi1 - xi2) / (4.0 * (r - xi1))
            - t.m ** 2 * (xi1 - xi2) / (4.0 * (r - xi2))
        )
        * f
    )
    return abs(lhs) / (1.0 + abs(f) + abs(f1) + abs(f2))


def _out_of_range(u: UniversalParams, r: float) -> NoConvergence:
    return NoConvergence(f"universal sum form at ell={u.ell!r}, r={r!r} leaves the float range")


def universal_sum(u: UniversalParams, r: float) -> float:
    """The universal family, norm K (1-r^2)^(mprime/2) C_n^lam(r).

    As a_k = 1 + b_k, the recurrence runs on d_k = C_k - C_(k-1) at x = |r|,
    d_(k+1) = a_k (x-1) C_k + b_k d_k: x - 1 is exact, so rounding does not
    grow like 1/sqrt(1-x^2) towards the ends.  Within 2e-12 (1 + |F|) of
    mpmath for n_index <= 1000, mprime <= 5, |r| <= 1; NoConvergence where
    the constant or the value leaves the float range.
    """
    if not (-1.0 <= r <= 1.0):
        raise DomainError(f"r={r!r} outside [-1, 1]")
    const, steps = u._sum_form
    t = abs(r) - 1.0
    c0 = d = 1.0
    for a, b in steps:
        d = a * t * c0 + b * d
        c0 += d
    if r < 0.0 and len(steps) % 2:  # C_n(-x) = (-1)^n C_n(x)
        c0 = -c0
    value = const * (1.0 - r * r) ** (u.mprime / 2.0) * c0
    if not math.isfinite(value):
        raise _out_of_range(u, r)
    return value


def universal_sum_derivatives(u: UniversalParams, r: float) -> tuple[float, float, float]:
    """(F, F', F'') of the sum form at an interior point: F is universal_sum,
    C' and C'' come from the recurrence differentiated in the same pass as C,
    the weight's, (1+r)^(mprime/2) (1-r)^(mprime/2), from _power_jet, the
    rule of the branches' edge powers.  Within 1e-11 (1 + |F^(k)|) of
    mpmath.diff for n_index <= 200, mprime <= 5, |r| <= 0.999; F' within
    3e-11 and F'' 2e-12 (1 + |F^(k)|) for 0.999 < |r| <= 1 - 1e-6."""
    if not (-1.0 < r < 1.0):
        raise DomainError(f"r={r!r} outside (-1, 1)")
    const, steps = u._sum_form
    # the plain form: run on differences, as in universal_sum, the lanes lose
    # their exact parity zeros at r = 0, an error of eps n^2 |F| in an F'' of 0
    c0, c1, c2, p0, p1, p2 = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
    for a, b in steps:
        p0, p1, p2, c0, c1, c2 = (c0, c1, c2, a * r * c0 - b * p0,
                                  a * (c0 + r * c1) - b * p1,
                                  a * (2.0 * c1 + r * c2) - b * p2)
    half = u.mprime / 2.0
    w0, w1, w2 = _power_jet(((1.0 + r) * (1.0 - r)) ** half, 1.0 + r, 1.0 - r, half, half)
    out = (
        universal_sum(u, r),
        const * (w1 * c0 + w0 * c1),
        const * (w2 * c0 + 2.0 * w1 * c1 + w0 * c2),
    )
    if not all(map(math.isfinite, out)):
        raise _out_of_range(u, r)
    return out


def universal_hypergeometric(u: UniversalParams, r: float) -> float:
    """Closed form of the universal family,

        C * (1-r^2)^(mprime/2) * 2F1((1+ell+mprime)/2, -n/2; 1/2; r^2),

    defined for even n only; the odd case is served by universal_sum.  The
    terminating series cancels as the degree grows: NoConvergence unless
    16 eps |prefactor| sum |c_k r^(2k)| <= 1e-8 (1 + |F|), and past n_index ~170.
    """
    if u.n_index % 2 != 0:
        raise DomainError(
            "the hypergeometric closed form requires an even degree offset"
        )
    if not (-1.0 <= r <= 1.0):
        raise DomainError(f"r={r!r} outside [-1, 1]")
    const, hyp = u._closed_form
    x = r * r
    pref = const * (1.0 - x) ** (u.mprime / 2.0)
    value = pref * hyp2f1(hyp, x)
    err = _SUM_ERR_FACTOR * abs(pref) * _series_magnitude(hyp, x)
    if not err <= _SUM_TOL * (1.0 + abs(value)):  # nan fails too
        raise NoConvergence(
            f"universal closed form at ell={u.ell!r}, r={r!r} lost its digits to "
            f"cancellation (error estimate {err:.3g})"
        )
    return value


def universal_ode_embedding(u: UniversalParams) -> OdeParams:
    """Embed the universal equation into the general one on (-1, 1):
    the rational potential -(m^2 + a + b r + c r^2)/(1-r^2) lands in the
    quadratic-over-weight slot."""
    return OdeParams(
        a1=-2.0,
        b1=0.0,
        a2=0.0,
        b2=0.0,
        a3=-u.c,
        b3=-u.b,
        c3=-(u.m ** 2 + u.a),
        lam=u.lam,
        xi1=-1.0,
        xi2=1.0,
    )


def universal_ode_residual(
    u: UniversalParams, r: float, p: OdeParams | None = None
) -> float:
    """Normalized residual of the sum form under the embedded operator."""
    if p is None:
        p = universal_ode_embedding(u)
    f, f1, f2 = universal_sum_derivatives(u, r)
    lhs = apply_operator(p, r, f, f1, f2)
    return abs(lhs) / (1.0 + abs(f) + abs(f1) + abs(f2))

