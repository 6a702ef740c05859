"""The general three-singular-point ODE: parameter pack, indicial exponents,
the four closed-form hypergeometric solution branches, and residual-based
verification of those branches.

The equation, on xi1 < r < xi2:

    (r-xi1)(xi2-r) F'' + (a1 r + b1) F'
      + (lambda + (a2 r + b2)/((r-xi1)(xi2-r))
               + (a3 r^2 + b3 r + c3)/((r-xi1)(xi2-r))) F = 0
"""

from __future__ import annotations

import enum
import math

from .errors import (
    ComplexExponent,
    DegenerateC,
    DegenerateCase,
    DomainError,
    InvalidParams,
    PoleError,
    RootMismatch,
)
from .hypergeom import (_UNKNOWN, DEFAULT_POLE_TOL, Hyp2F1, _Frozen, _KummerPlan, _Pack, _power,
                        hyp2f1)

_ROOT_RESIDUAL_TOL = 1e-8


class OdeParams(_Pack):
    """The nine real coefficients, spectral parameter and singular points.

    build_branch keeps the Kummer set its branches share, connection_check
    the branches it builds and their row's coefficients, and apply_operator
    its terms at the last r, in the instance __dict__, out of sight of
    equality and hashing.
    """

    a1: float
    b1: float
    a2: float
    b2: float
    a3: float
    b3: float
    c3: float
    lam: float
    xi1: float
    xi2: float
    _operator = None  # apply_operator's memo, once an instance keeps one

    def __init__(self, a1: float, b1: float, a2: float, b2: float, a3: float, b3: float,
                 c3: float, lam: float, xi1: float, xi2: float) -> None:
        super().__init__(a1, b1, a2, b2, a3, b3, c3, lam, xi1, xi2)
        if not xi1 < xi2:
            raise InvalidParams(
                f"singular points must satisfy xi1 < xi2, got {xi1!r} >= {xi2!r}"
            )

    @property
    def width(self) -> float:
        return self.xi2 - self.xi1


class RootPair(_Frozen):
    """Both roots of one indicial quadratic.

    Real case: (first, second) ascending.  Complex case (negative
    discriminant): first is the real part, second the positive imaginary
    part of the conjugate pair, and is_complex is set.
    """

    first: float
    second: float
    is_complex: bool = False

    def __init__(self, first: float, second: float, is_complex: bool = False) -> None:
        d = self.__dict__
        d["first"], d["second"], d["is_complex"] = first, second, is_complex

    def as_tuple(self) -> tuple[float, float]:
        return (self.first, self.second)


class IndicialExponents(_Frozen):
    mu1: RootPair
    mu2: RootPair
    mu_inf: RootPair

    def __init__(self, mu1: RootPair, mu2: RootPair, mu_inf: RootPair) -> None:
        d = self.__dict__
        d["mu1"], d["mu2"], d["mu_inf"] = mu1, mu2, mu_inf


def _real_roots(b: float, c: float) -> tuple[float, float] | None:
    """Both roots of mu^2 + b mu + c = 0, ascending, by a numerically stable
    split; None where they are complex (negative discriminant)."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return None
    sd = math.sqrt(disc)
    if b > 0.0:
        lo = (-b - sd) / 2.0
        hi = c / lo if lo != 0.0 else 0.0
    elif b < 0.0:
        hi = (-b + sd) / 2.0
        lo = c / hi if hi != 0.0 else 0.0
    else:
        hi = sd / 2.0
        lo = -hi
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def _solve_monic(b: float, c: float) -> RootPair:
    roots = _real_roots(b, c)
    if roots is None:  # 4c - b^2 is the discriminant negated, bit for bit
        return RootPair(-b / 2.0, math.sqrt(4.0 * c - b * b) / 2.0, True)
    return RootPair(*roots)


def _quadratic_coeffs(p: OdeParams) -> tuple[tuple[float, float], ...]:
    """Monic (B, C) coefficient pairs of the three indicial quadratics."""
    d = p.width
    u1 = (p.a3 * _power(p.xi1, 2) + (p.a2 + p.b3) * p.xi1 + p.b2 + p.c3) / _power(d, 2)
    u2 = (p.a3 * _power(p.xi2, 2) + (p.a2 + p.b3) * p.xi2 + p.b2 + p.c3) / _power(d, 2)
    t1 = (p.a1 * p.xi1 + p.b1) / d
    t2 = (p.a1 * p.xi2 + p.b1) / d
    return ((t1 - 1.0, u1), (-(t2 + 1.0), u2), (1.0 + p.a1, p.a3 - p.lam))


def indicial_exponents(p: OdeParams) -> IndicialExponents:
    """Roots of the three indicial quadratics (at xi1, at xi2, at infinity);
    DomainError where a root is not finite."""
    pairs = [_solve_monic(b, c) for b, c in _quadratic_coeffs(p)]
    for name, pair in zip(IndicialExponents._fields, pairs):
        if not (math.isfinite(pair.first) and math.isfinite(pair.second)):
            raise DomainError(f"{name} roots ({pair.first!r}, {pair.second!r}) are not finite")
    return IndicialExponents(*pairs)


def root_residual(p: OdeParams, which: str, mu: float | complex) -> float:
    """|mu^2 + B mu + C| for the named quadratic ('mu1', 'mu2' or 'mu_inf');
    mu may be complex."""
    idx = {"mu1": 0, "mu2": 1, "mu_inf": 2}[which]
    b, c = _quadratic_coeffs(p)[idx]
    return abs(mu * mu + b * mu + c)


def _check_finite(mu1: float, mu2: float) -> None:
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise InvalidParams(f"exponents must be finite, got mu1={mu1!r}, mu2={mu2!r}")


def reduced_equation_coefficients(
    p: OdeParams, mu1: float, mu2: float
) -> tuple[float, float, float]:
    """Drift and constant coefficients of the equation satisfied by the
    hypergeometric factor once the edge exponents are peeled off:

        (r-xi1)(xi2-r) f'' + (A r + B) f' + C f = 0
    """
    _check_finite(mu1, mu2)
    if root_residual(p, "mu1", mu1) > _ROOT_RESIDUAL_TOL:
        raise RootMismatch(f"mu1={mu1!r} is not a root of the xi1 quadratic")
    if root_residual(p, "mu2", mu2) > _ROOT_RESIDUAL_TOL:
        raise RootMismatch(f"mu2={mu2!r} is not a root of the xi2 quadratic")
    a_coef = p.a1 - 2.0 * mu1 - 2.0 * mu2
    b_coef = p.b1 + 2.0 * mu2 * p.xi1 + 2.0 * mu1 * p.xi2
    c_coef = p.lam - p.a3 - (mu1 + mu2) * (mu1 + mu2 - p.a1 - 1.0)
    return (a_coef, b_coef, c_coef)


class MapVariant(enum.Enum):
    MAP_I = "map_i"    # z = (r - xi1)/(xi2 - xi1): xi1 -> 0, xi2 -> 1
    MAP_II = "map_ii"  # z = (xi2 - r)/(xi2 - xi1): xi2 -> 0, xi1 -> 1


class CoordinateMap(_Frozen):
    """Affine map sending the singular interval onto [0, 1]."""

    variant: MapVariant
    xi1: float
    xi2: float

    def __init__(self, variant: MapVariant, xi1: float, xi2: float) -> None:
        d = self.__dict__
        d["variant"], d["xi1"], d["xi2"] = variant, xi1, xi2

    def z(self, r: float) -> float:
        if self.variant is MapVariant.MAP_I:
            return (r - self.xi1) / (self.xi2 - self.xi1)
        return (self.xi2 - r) / (self.xi2 - self.xi1)

    @property
    def dz_dr(self) -> float:
        d = self.xi2 - self.xi1
        return 1.0 / d if self.variant is MapVariant.MAP_I else -1.0 / d


class BranchId(enum.Enum):
    HAT1 = "hat1"
    HAT2 = "hat2"
    BREVE1 = "breve1"
    BREVE2 = "breve2"

    @property
    def is_second_kind(self) -> bool:
        return self in (BranchId.HAT2, BranchId.BREVE2)


class SolutionBranch(_Frozen):
    """One closed-form solution

        F(r) = (r-xi1)^mu1 (xi2-r)^mu2 * z^extra_power * 2F1(a,b;c;z(r)).

    Its factor after the edge prefactor is read from a Kummer set, kept in
    the instance __dict__ with the member the branch is: build_branch gives
    the four branches of one exponent pair one shared set, and hyp is their
    member's triple in it; a branch built by hand is member w1 of the set of
    its own triple, times its extra power.
    """

    mu1: float
    mu2: float
    extra_power: float
    hyp: Hyp2F1
    map: CoordinateMap
    branch_id: BranchId
    _member = None  # (set, member), once an instance keeps them

    def __init__(self, mu1: float, mu2: float, extra_power: float, hyp: Hyp2F1,
                 map: CoordinateMap, branch_id: BranchId) -> None:
        d = self.__dict__
        d["mu1"], d["mu2"], d["extra_power"] = mu1, mu2, extra_power
        d["hyp"], d["map"], d["branch_id"] = hyp, map, branch_id


def _branch_data(p: OdeParams, mu1: float, mu2: float) -> tuple[float, float, float, float]:
    """(s, M, c_hat, c_breve): the square root, the parameter midpoint and
    the two lower parameters every branch is assembled from."""
    arg = p.lam - p.a3 + _power((p.a1 + 1.0) / 2.0, 2)
    if arg < 0.0:
        raise ComplexExponent(
            f"negative square-root argument {arg!r}: branch exponents are complex"
        )
    s = math.sqrt(arg)
    m_mid = mu1 + mu2 - (p.a1 + 1.0) / 2.0
    c_hat = 2.0 * mu1 + (p.a1 * p.xi1 + p.b1) / p.width
    c_breve = 2.0 * mu2 - (p.a1 * p.xi2 + p.b1) / p.width
    return s, m_mid, c_hat, c_breve


# the Kummer member each branch is, of the set built on hat1's triple: w1 and
# w2 in z = z_I(r), w3 and w4 in w = z_II(r)
_MEMBERS = {BranchId.HAT1: 0, BranchId.HAT2: 1, BranchId.BREVE1: 2, BranchId.BREVE2: 3}


def build_branch(
    p: OdeParams,
    mu1: float,
    mu2: float,
    branch_id: BranchId,
) -> SolutionBranch:
    """Assemble one of the four closed-form branches for the chosen exponents.

    The branch's triple is its member's in the Kummer set of the exponent
    pair.  First-kind branches carry no extra power of the mapped variable;
    the second-kind ones carry z^(1-c) of their sibling.  DegenerateC
    signals a lower parameter at a pole, or a second-kind branch collapsing
    onto its sibling; InvalidParams a non-finite exponent.
    """
    _check_finite(mu1, mu2)
    s, m_mid, c_hat, c_breve = _branch_data(p, mu1, mu2)
    kset = _shared_set(p, mu1, mu2, m_mid - s, m_mid + s, c_hat, c_breve)
    k = _MEMBERS[branch_id]
    extra = (0.0, 1.0 - c_hat, 0.0, 1.0 - c_breve)[k]
    if branch_id.is_second_kind and abs(extra) <= DEFAULT_POLE_TOL:
        raise DegenerateC(
            f"{branch_id.value} coincides with its first-kind sibling (c = 1)"
        )
    try:
        hyp = kset._plan.triple(k)
    except PoleError as exc:
        raise DegenerateC(f"{branch_id.value}: {exc}") from exc
    branch = SolutionBranch(
        mu1=mu1,
        mu2=mu2,
        extra_power=extra,
        hyp=hyp,
        map=CoordinateMap(MapVariant.MAP_I if k < 2 else MapVariant.MAP_II, p.xi1, p.xi2),
        branch_id=branch_id,
    )
    branch.__dict__["_member"] = (kset, k)
    return branch


def _power_jet(p: float, left: float, right: float, m1: float,
               m2: float) -> tuple[float, float, float]:
    """(p, p', p'') in r of p = const (r-xi1)^m1 (xi2-r)^m2, from p, left =
    r - xi1 and right = xi2 - r.  Each end divides twice, never squared, so
    no term overflows on a wide interval, and an exponent of 1 drops its
    1/end^2 term: where p is analytic at an end no two such terms cancel."""
    dl, dr = m1 / left, m2 / right
    # p'' = p (m1(m1-1)/left^2 - 2 m1 m2/(left right) + m2(m2-1)/right^2)
    return (p, p * (dl - dr),
            p * ((m1 - 1.0) * dl / left - 2.0 * dl * dr + (m2 - 1.0) * dr / right))


class _KummerSet:
    """The branches of one exponent pair on one interval: the edge factor
    (r-xi1)^mu1 (xi2-r)^mu2 and Kummer's four solutions of one triple, member
    k of its plan at z = zmap.z(r) and w = 1 - z, both formed from r.  The
    set keeps the geometry, r -> (z, w), the edge factor and the joined
    powers; its plan picks, sums and combines the members.

    A one-slot point memo keeps what the last point r found, so the branches
    of one row share the geometry of r, formed once, and two series: the
    plan's route table of r's side, the edge factor, and each member summed
    there, its value and its jet in r times the edge factor.  A call whose
    route the memo holds sums nothing; one that lacks it has the plan sum
    just the missing members and replaces the memo, never mutated: threads
    see whole memos.

    `extra` is the power z^extra of a branch built by hand, which every
    member of its set carries.  In the jets the powers of z and w join the
    edge factor's: `joined[m]` holds, for member m, the powers of z and w it
    carries and the exponents of (r-xi1) and (xi2-r) they add up to with
    the edge factor's, and every member's power is differentiated as that
    one power by _power_jet.  w4's exponent takes w_power when given,
    1 - c_breve as the breve2 branch forms it: exact where the set's c-a-b
    carries the rounding of a + b.
    """

    __slots__ = ("mu1", "mu2", "zmap", "dz_dr", "extra", "joined", "_plan", "_point")

    def __init__(self, plan: _KummerPlan, mu1: float, mu2: float, zmap: CoordinateMap,
                 extra: float = 0.0, w_power: float | None = None) -> None:
        self.mu1, self.mu2 = mu1, mu2
        self.zmap = zmap
        self.dz_dr = zmap.dz_dr
        self.extra = extra
        self._plan = plan
        joined = []
        for m, e in enumerate(plan.powers):
            pz, pw = (extra + e, 0.0) if m < 2 else (extra, e)
            ez, ew = pz, (pw if m < 3 or w_power is None else w_power)
            if zmap.variant is MapVariant.MAP_II:  # z vanishes at xi2, w at xi1
                ez, ew = ew, ez
            joined.append((pz, pw, mu1 + ez, mu2 + ew))
        self.joined = tuple(joined)
        self._point = None

    def _fresh(self, r: float) -> tuple:
        """(r, z, w, edge factor, route table, values, jets), nothing summed
        yet: the memo of a new point r, checked here alone."""
        xi1, xi2 = self.zmap.xi1, self.zmap.xi2
        if not (xi1 < r < xi2):
            raise DomainError(f"r={r!r} outside the open interval ({xi1!r}, {xi2!r})")
        left = r - xi1
        right = xi2 - r
        edge = _power(left, self.mu1) * _power(right, self.mu2)
        d = xi2 - xi1
        z, w = left / d, right / d
        if self.zmap.variant is MapVariant.MAP_II:
            z, w = w, z
        return (r, z, w, edge, self._plan.routes(z, w), _UNKNOWN, _UNKNOWN)

    def value(self, k: int, r: float) -> float:
        """The edge factor times member k at r, times z^extra; DomainError if inf or nan."""
        memo = self._point
        if memo is None or memo[0] != r:
            memo = self._fresh(r)
        _, z, w, edge, routes, known, _ = memo
        need = routes[k]
        if known[need[0]] is None or known[need[-1]] is None:
            known = tuple(self._plan.summed(k, need, z, w, known, False))
            self._point = memo[:5] + (known, memo[6])
        f = known[k]
        if f is None:
            f = self._plan.value(k, known)
        if self.extra != 0.0:
            f *= _power(z, self.extra)
        f = edge * f
        if not math.isfinite(f):
            raise DomainError(f"value of member {k} at r={r!r} is not finite")
        return f

    def jet(self, k: int, r: float) -> tuple[float, float, float]:
        """The jet in r of the edge factor times member k at r, times
        z^extra: that of the member summed there, or its row over the jets
        of the pair on the other side."""
        memo = self._point
        if memo is None or memo[0] != r:
            memo = self._fresh(r)
        _, z, w, edge, routes, _, known = memo
        need = routes[k]
        if known[need[0]] is None or known[need[-1]] is None:
            jets = self._plan.summed(k, need, z, w, known, True)
            for m in need:  # the series jets just summed, to jets in r
                if known[m] is None:
                    jets[m] = self._jet_of(m, r, z, w, edge, jets[m])
            known = tuple(jets)
            self._point = memo[:6] + (known,)
        return known[k] if known[k] is not None else self._plan.jet(k, known)

    def _jet_of(self, m: int, r: float, z: float, w: float, edge: float,
                h: tuple) -> tuple[float, float, float]:
        """The jet in r of the edge factor times member m, from the jet h of
        its series on its own variable: chain and product rules.  The powers
        of z and w the member carries join the edge factor's at the ends
        where they vanish, (r-xi1)^(mu1+e) or (xi2-r)^(mu2+e), one power
        for _power_jet.  DomainError where a lane is not finite."""
        if m > 1:  # a jet in w = 1 - z
            h = (h[0], -h[1], h[2])
        pz, pw, m1, m2 = self.joined[m]
        edge *= (_power(z, pz) if pz else 1.0) * (_power(w, pw) if pw else 1.0)
        p0, p1, p2 = _power_jet(edge, r - self.zmap.xi1, self.zmap.xi2 - r, m1, m2)
        u = self.dz_dr
        g0, g1, g2 = h[0], u * h[1], u * u * h[2]
        jet = (p0 * g0, p1 * g0 + p0 * g1, p2 * g0 + 2.0 * p1 * g1 + p0 * g2)
        if not all(map(math.isfinite, jet)):
            raise DomainError(f"jet of member {m} at r={r!r} is not finite")
        return jet


def _shared_set(p: OdeParams, mu1: float, mu2: float,
                a: float, b: float, c: float, c_breve: float) -> _KummerSet:
    """The Kummer set of hat1's triple, kept on p for the last (mu1, mu2)."""
    kept = p.__dict__.get("_kummer")
    if kept is None or kept[0] != (mu1, mu2):
        zmap = CoordinateMap(MapVariant.MAP_I, p.xi1, p.xi2)
        kset = _KummerSet(_KummerPlan(a, b, c), mu1, mu2, zmap, w_power=1.0 - c_breve)
        kept = p.__dict__["_kummer"] = ((mu1, mu2), kset)
    return kept[1]


def _member_of(s: SolutionBranch) -> tuple[_KummerSet, int]:
    """(set, member) of a branch; a branch built by hand gets its own set
    here, on its first call."""
    found = s._member
    if found is None:
        kset = _KummerSet(s.hyp._plan, s.mu1, s.mu2, s.map, extra=s.extra_power)
        found = s.__dict__["_member"] = (kset, 0)
    return found


def _f_part(s: SolutionBranch, r: float) -> float:
    """z^extra_power * 2F1(...; z(r)), the branch without the edge prefactor."""
    z = s.map.z(r)
    f = hyp2f1(s.hyp, z)
    return f * _power(z, s.extra_power) if s.extra_power else f


def evaluate(s: SolutionBranch, r: float) -> float:
    """Branch value at an interior point; DomainError elsewhere."""
    kset, k = s._member or _member_of(s)
    return kset.value(k, r)


def value_and_derivatives(s: SolutionBranch, r: float) -> tuple[float, float, float]:
    """(F, F', F'') at r, from the one series pass per member the jets of a
    row share, by the chain and product rules."""
    kset, k = s._member or _member_of(s)
    return kset.jet(k, r)


def apply_operator(
    p: OdeParams, r: float, f: float, f1: float, f2: float
) -> float:
    """Left-hand side of the differential equation at r for given (F,F',F'').

    Its terms at r, (r-xi1)(xi2-r), the drift and the potential, are kept
    on p for the last r, a memo replaced whole, so a row forms them once;
    not at r = 0, where the sign of zero can reach them unseen by ==.
    """
    terms = p._operator
    if terms is None or terms[0] != r or not r:
        w = (r - p.xi1) * (p.xi2 - r)
        potential = p.lam + (p.a2 * r + p.b2) / w \
            + (p.a3 * r * r + p.b3 * r + p.c3) / w
        if not (math.isfinite(w) and math.isfinite(potential)):
            raise DomainError(f"equation coefficients at r={r!r} leave the float range")
        terms = p.__dict__["_operator"] = (r, w, p.a1 * r + p.b1, potential)
    _, w, drift, potential = terms
    return w * f2 + drift * f1 + potential * f


def residual(s: SolutionBranch, p: OdeParams, r: float) -> float:
    """|L[F](r)| normalized by 1 + |F| + |F'| + |F''|.

    The derivative magnitudes in the denominator keep the measure scale-free
    near zeros of F.
    """
    f, f1, f2 = value_and_derivatives(s, r)
    lhs = apply_operator(p, r, f, f1, f2)
    return abs(lhs) / (1.0 + abs(f) + abs(f1) + abs(f2))


def connection_check(
    p: OdeParams,
    mu1: float,
    mu2: float,
    r: float,
    hat: BranchId = BranchId.HAT1,
) -> tuple[float, float]:
    """Both sides of the connection identity of a hat branch, its row in the
    Kummer set of the exponent pair,

        fhat / (pi/sin(pi x)) = G(c) [ alpha fbreve1 - beta fbreve2 ]

    with x = c-a-b of hat1's triple and G(c), alpha, beta the coefficients
    evaluate uses (_KummerPlan.row), and each branch summed on its own by
    hyp2f1.  HAT1 gives the first-kind identity, HAT2 the second-kind one.
    The sides are independent only where hyp2f1 sums the hat directly: at
    z > 1/2 hat1's value is this row over the very Hyp2F1 objects of breve1
    and breve2, so the sides agree to rounding whatever the coefficients.
    """
    if hat not in (BranchId.HAT1, BranchId.HAT2):
        raise InvalidParams(f"connection identities exist for hat1 and hat2, not {hat!r}")
    (hat_branch, breve1, breve2), (s, gamma_c, alpha, beta) = \
        _connection_branches(p, mu1, mu2, hat)
    lhs = _f_part(hat_branch, r) / s
    term1 = alpha * _f_part(breve1, r)
    term2 = beta * _f_part(breve2, r)
    return lhs, gamma_c * (term1 - term2)


def _connection_branches(
    p: OdeParams, mu1: float, mu2: float, hat: BranchId
) -> tuple[tuple[SolutionBranch, ...], tuple[float, ...]]:
    """The hat, breve1 and breve2 branches of connection_check and the
    coefficients (pi/sin(pi x), G(c), alpha, beta) of the hat's row, kept on
    p for the last (mu1, mu2, hat) asked for.  A degenerate identity raises
    DegenerateCase each time and keeps nothing."""
    key = (mu1, mu2, hat)
    kept = p.__dict__.get("_connection")
    if kept is None or kept[0] != key:
        branches = tuple(build_branch(p, mu1, mu2, bid)
                         for bid in (hat, BranchId.BREVE1, BranchId.BREVE2))
        kset, k = _member_of(branches[0])
        try:
            row = kset._plan.row(k)
        except PoleError as exc:  # G(c) of a terminating hat
            raise DegenerateCase(f"connection coefficient: {exc}") from exc
        kept = p.__dict__["_connection"] = (key, branches, row)
    return kept[1], kept[2]
