"""Gauss hypergeometric core: 2F1 series evaluation, gamma, Pochhammer,
and the transformation identities the solution machinery relies on.

All arithmetic is IEEE double precision.  Three constants govern every
evaluation: a series stops once a term falls below _REL_TOL relative to
its running sum, raises NoConvergence after _MAX_TERMS terms, and a real
within DEFAULT_POLE_TOL of a non-positive integer is a pole.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateCase, DomainError, NoConvergence, PoleError

DEFAULT_POLE_TOL = 1e-10
_REL_TOL = 1e-15
_MAX_TERMS = 500

_SERIES_SPLIT = 0.5  # direct summation for |z| <= split, transforms beyond
_C0 = array("d", [1.0])  # the memo before any evaluation: c_0 alone


def _dist_to_int(x: float) -> float:
    return abs(x - round(x))


def _is_nonpositive_integer(x: float, tol: float) -> bool:
    return x < 0.5 and _dist_to_int(x) <= tol


@dataclass(frozen=True)
class Hyp2F1:
    """A 2F1 parameter triple (a, b; c).

    terminating_degree is filled automatically: when a or b sits within
    DEFAULT_POLE_TOL of a non-positive integer the series is a polynomial
    and the degree is the smallest admissible one.  A non-positive integer
    c is rejected unless the series terminates before the pole in c.

    What depends on the triple alone is built on first use and kept in the
    instance __dict__, where equality and hashing, which compare the fields
    only, never see it: the shifted and Pfaff triples, the plan of its
    Kummer set, and the memo of series coefficients
    c_k = (a)_k (b)_k / ((c)_k k!).
    The memo is an array('d') that every summation reads and extends in the
    same pass; it holds at most _MAX_TERMS + 1 entries, or degree + 1 for
    a terminating series, and it is replaced, never mutated, so callers
    sharing an instance see either the old or the new one whole.
    """

    a: float
    b: float
    c: float
    terminating_degree: int | None = None

    def __post_init__(self) -> None:
        degree = None
        for upper in (self.a, self.b):
            if _is_nonpositive_integer(upper, DEFAULT_POLE_TOL):
                d = int(round(-upper))
                degree = d if degree is None else min(degree, d)
        object.__setattr__(self, "terminating_degree", degree)
        if _is_nonpositive_integer(self.c, DEFAULT_POLE_TOL):
            if degree is None or degree >= abs(round(self.c)):
                raise PoleError(
                    f"lower parameter c={self.c!r} is a non-positive integer "
                    "reached by the series"
                )

    @cached_property
    def _shifted(self) -> "Hyp2F1":
        """(a+1, b+1; c+1), the triple of the derivative."""
        return Hyp2F1(self.a + 1.0, self.b + 1.0, self.c + 1.0)

    @cached_property
    def _pfaff(self) -> "Hyp2F1":
        """(a, c-b; c) with a <= b, summed at z/(z-1) by the Pfaff route;
        the ordering keeps the a<->b symmetry bitwise."""
        a, b = (self.a, self.b) if self.a <= self.b else (self.b, self.a)
        return Hyp2F1(a, self.c - b, self.c)

    @cached_property
    def _plan(self) -> "_KummerPlan":
        """The plan of this triple's Kummer set."""
        # not handed self as w1's triple: a reference cycle would leave
        # every instance to the cyclic garbage collector
        return _KummerPlan(self.a, self.b, self.c)


class _KummerPlan:
    """Kummer's four solutions of the hypergeometric equation of one triple
    (a, b; c) on 0 < z < 1, with w = 1 - z (DLMF 15.10.11-14):

        w1 = F(a,b;c;z)             w2 = z^(1-c) F(a-c+1,b-c+1;2-c;z)
        w3 = F(a,b;a+b-c+1;w)       w4 = w^(c-a-b) F(c-a,c-b;c-a-b+1;w)

    and the rows that connect the two sides (DLMF 15.10.21-22 and their
    inverses), each in the reciprocal-gamma form of DLMF 15.8.4:

        w_k = pi/sin(pi x) * G(c_k) * (alpha_k u - beta_k v)

    over the pair (u, v) = (w3, w4) for k = 1, 2 and (w1, w2) for k = 3, 4,
    where x is c-a-b or 1-c, c_k is the lower parameter of w_k and alpha_k,
    beta_k are products of three reciprocal gammas, so a term with a pole in
    its coefficient drops out cleanly.  The row of w1 is hyp2f1's
    connection formula.

    Every member triple, power and coefficient is formed from the one float
    triple, taken with a <= b so that the a<->b symmetry holds bitwise: near
    an integer x a row cancels to the accuracy of its series only when both
    come from the same floats.  Triples and rows are built on first use and
    kept.  One that cannot be built raises each time it is asked for:
    DegenerateCase for an integer x, DomainError for a coefficient past the
    float range, PoleError for a lower parameter at a pole.  A plain slotted
    class: a dataclass here would add milliseconds to the package import.
    """

    __slots__ = ("abc", "powers", "_given_cab", "_triples", "_rows")

    def __init__(self, a: float, b: float, c: float, first: Hyp2F1 | None = None) -> None:
        self._given_cab = c - a - b  # the sine of hyp2f1's route takes it as given
        if a > b:
            a, b = b, a
        self.abc = (a, b, c)
        self.powers = (0.0, 1.0 - c, 0.0, c - a - b)  # w_k = x^powers[k] F(triple k; x)
        # filled in on first use, each entry once: racing callers may each
        # build one, all alike; first is the caller's own w1 triple, if any
        self._triples = [first, None, None, None]
        self._rows = [None, None, None, None]

    def triple(self, k: int) -> Hyp2F1:
        t = self._triples[k]
        if t is None:
            a, b, c = self.abc
            # the w-side triples list their upper parameters in the order of
            # the breve branches, which only the Gauss point z = 1 tells apart
            if k == 2:
                t = Hyp2F1(b, a, a + b - c + 1.0)
            elif k == 3:
                t = Hyp2F1(c - b, c - a, self.powers[3] + 1.0)
            elif k == 1:
                t = Hyp2F1(a - c + 1.0, b - c + 1.0, 2.0 - c)
            else:
                t = Hyp2F1(a, b, c)
            self._triples[k] = t
        return t

    def row(self, k: int) -> tuple:
        """(pi/sin(pi x), G(c_k), alpha_k, beta_k, u, v, e) of member k's
        row: its coefficients, the triples of the pair it is formed over,
        and the power x^e of the pair's second member."""
        row = self._rows[k]
        if row is None:
            row = self._rows[k] = self._build_row(k)
        return row

    def _build_row(self, k: int) -> tuple:
        a, b, c = self.abc
        cab = self.powers[3]
        x = cab if k < 2 else self.powers[1]
        if _dist_to_int(x) <= DEFAULT_POLE_TOL:
            name = "c-a-b" if k < 2 else "1-c"
            raise DegenerateCase(f"connection formula degenerate: {name}={x!r} is an integer")
        i = 0 if k > 1 else 2
        u, v = self.triple(i), self.triple(i + 1)
        # c_k, then alpha = 1/(G(c_k-a_k) G(c_k-b_k) G(c_u)) and
        # beta = 1/(G(a_k) G(b_k) G(c_v)) by their upper arguments
        if k == 0:
            ck, al1, al2, be1, be2 = c, c - a, c - b, a, b
        elif k == 1:
            ck, al1, al2, be1, be2 = 2.0 - c, 1.0 - b, 1.0 - a, a - c + 1.0, b - c + 1.0
        elif k == 2:
            ck, al1, al2, be1, be2 = a + b - c + 1.0, b - c + 1.0, a - c + 1.0, a, b
        else:
            ck, al1, al2, be1, be2 = cab + 1.0, 1.0 - a, 1.0 - b, c - a, c - b
        alpha = rgamma(al1) * rgamma(al2) * rgamma(u.c)
        beta = rgamma(be1) * rgamma(be2) * rgamma(v.c)
        gk = gamma(ck)
        if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(gk)):
            raise DomainError(
                f"connection coefficients of ({a}, {b}; {c}) leave the float range")
        sine_arg = self._given_cab if k < 2 else x
        return (math.pi / math.sin(math.pi * sine_arg), gk, alpha, beta,
                u, v, self.powers[i + 1])


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x(x+1)...(x+n-1); 1 for n = 0.

    Overflow is reported by value (inf), never raised.
    """
    if n < 0:
        raise DomainError("pochhammer order must be a nonnegative integer")
    acc = 1.0
    for k in range(n):
        acc *= x + k
    return acc


def gamma(x: float) -> float:
    """Gamma function for real x: math.gamma behind a pole check.

    Raises PoleError when x is within DEFAULT_POLE_TOL of a non-positive
    integer.  Where Gamma overflows (x past ~171.6; next to 0 is a pole)
    the result is +inf.
    """
    if _is_nonpositive_integer(x, DEFAULT_POLE_TOL):
        raise PoleError(f"gamma pole at x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); 0 at the poles. Never raises: where
    Gamma underflows to 0 (x below ~-171) the result is inf with its sign."""
    if _is_nonpositive_integer(x, DEFAULT_POLE_TOL):
        return 0.0
    g = gamma(x)
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def _diverged(p: Hyp2F1, z: float, finite: bool) -> NoConvergence:
    why = (f"did not reach rel_tol={_REL_TOL} in {_MAX_TERMS} terms" if finite
           else "leaves the float range")
    return NoConvergence(f"2F1 series {why} (a={p.a}, b={p.b}, c={p.c}, z={z})")


def _publish(p: Hyp2F1, coefs: list[float]) -> None:
    # one assignment of a new array: a published memo is never mutated; a
    # sum of at most `steps` recurrence steps grows it to steps + 1 entries
    p.__dict__["_coefs"] = array("d", coefs)


def _series(p: Hyp2F1, z: float, nterms: int | None) -> float:
    """Direct summation of the defining series, the sum of c_k z^k.

    With nterms given the sum is over exactly that many recurrence steps
    (terminating case); otherwise terms are added until one falls below
    _REL_TOL relative to the largest partial sum seen, or NoConvergence
    after _MAX_TERMS.  A sum past the float range raises NoConvergence.
    The c_k are read from the memo of p; those past its end are computed in
    the same pass and published with the result.
    """
    steps = _MAX_TERMS if nterms is None else nterms
    coefs = p.__dict__.get("_coefs", _C0)
    rel = _REL_TOL
    converged = False  # the stopping test, which a terminating sum skips
    acc = scale = zk = 1.0
    for ck in coefs[1:steps + 1]:
        zk *= z
        t = ck * zk
        acc += t
        # scale = max(scale, |acc|) and |t| <= rel*scale, spelled out:
        # builtin calls dominate this loop otherwise
        if acc > scale or -acc > scale:
            scale = abs(acc)
        if nterms is None and -rel * scale <= t <= rel * scale:
            converged = True
            break
    known = len(coefs) - 1
    if not converged and known < steps:
        grown = coefs.tolist()
        a, b, c = p.a, p.b, p.c
        ck = grown[-1]
        k = float(known)  # a float counter saves an int->float conversion per use
        for _ in range(steps - known):
            ck *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
            grown.append(ck)
            k += 1.0
            zk *= z
            t = ck * zk
            acc += t
            if acc > scale or -acc > scale:
                scale = abs(acc)
            if nterms is None and -rel * scale <= t <= rel * scale:
                converged = True
                break
        _publish(p, grown)
    finite = math.isfinite(acc)
    if not finite or nterms is None and not converged:
        raise _diverged(p, z, finite)
    return acc


def _jet(p: Hyp2F1, z: float, nterms: int | None) -> tuple[float, float, float]:
    """(F, F', F'') of the defining series from one pass over its
    coefficients: the sums of c_k z^k, k c_k z^(k-1) and k(k-1) c_k z^(k-2).

    The powers of z are carried by multiplication, so z = 0 gives the exact
    values.  Memo, truncation, term budget and errors are those of _series,
    with the stopping test applied to all three sums.
    """
    steps = _MAX_TERMS if nterms is None else nterms
    coefs = p.__dict__.get("_coefs", _C0)
    rel = _REL_TOL
    converged = False
    f0, f1, f2 = 1.0, 0.0, 0.0
    s0, s1, s2 = 1.0, 0.0, 0.0
    # z^k, z^(k-1), z^(k-2) for the next k; t2 vanishes at k = 1
    z0, z1, z2 = z, 1.0, 0.0
    k = 1.0
    for ck in coefs[1:steps + 1]:
        t0, t1, t2 = ck * z0, k * ck * z1, k * (k - 1.0) * ck * z2
        f0 += t0
        f1 += t1
        f2 += t2
        # the scales and tests of _series, spelled out the same way
        if f0 > s0 or -f0 > s0:
            s0 = abs(f0)
        if f1 > s1 or -f1 > s1:
            s1 = abs(f1)
        if f2 > s2 or -f2 > s2:
            s2 = abs(f2)
        if nterms is None and -rel * s2 <= t2 <= rel * s2 \
                and -rel * s1 <= t1 <= rel * s1 and -rel * s0 <= t0 <= rel * s0:
            converged = True
            break
        z0, z1, z2 = z0 * z, z0, z1
        k += 1.0
    known = len(coefs) - 1
    if not converged and known < steps:
        grown = coefs.tolist()
        a, b, c = p.a, p.b, p.c
        ck = grown[-1]
        for _ in range(steps - known):
            j = k - 1.0
            ck *= (a + j) * (b + j) / ((c + j) * k)
            grown.append(ck)
            t0, t1, t2 = ck * z0, k * ck * z1, k * j * ck * z2
            f0 += t0
            f1 += t1
            f2 += t2
            if f0 > s0 or -f0 > s0:
                s0 = abs(f0)
            if f1 > s1 or -f1 > s1:
                s1 = abs(f1)
            if f2 > s2 or -f2 > s2:
                s2 = abs(f2)
            if nterms is None and -rel * s2 <= t2 <= rel * s2 \
                    and -rel * s1 <= t1 <= rel * s1 and -rel * s0 <= t0 <= rel * s0:
                converged = True
                break
            z0, z1, z2 = z0 * z, z0, z1
            k += 1.0
        _publish(p, grown)
    finite = math.isfinite(f0) and math.isfinite(f1) and math.isfinite(f2)
    if not finite or nterms is None and not converged:
        raise _diverged(p, z, finite)
    return f0, f1, f2


def _series_magnitude(p: Hyp2F1, z: float) -> float:
    """The sum of |c_k z^k| over the terms of a terminating series, read
    from the memo its evaluation at z filled: the scale of the rounding
    error of that sum."""
    total, zk, az = 0.0, 1.0, abs(z)
    for ck in p.__dict__.get("_coefs", _C0)[:p.terminating_degree + 1]:
        total += abs(ck) * zk
        zk *= az
    return total


def _connection(row: tuple, z: float) -> float:
    """sin(pi(c-a-b))/pi * 2F1(a,b;c;z) for 0 < z < 1 from the 1-z side:
    the row of w1 without its pi/sin factor."""
    _, gamma_c, alpha, beta, near, far, cab = row
    w = 1.0 - z
    return gamma_c * (alpha * hyp2f1(near, w) - w ** cab * beta * hyp2f1(far, w))


def _power_jet(
    h: tuple[float, float, float], x: float, e: float
) -> tuple[float, float, float]:
    """The jet in x of x^e f from the jet h of f, by the product rule."""
    h0, h1, h2 = h
    xe = x ** e
    return (xe * h0, e * x ** (e - 1.0) * h0 + xe * h1,
            e * (e - 1.0) * x ** (e - 2.0) * h0 + 2.0 * e * x ** (e - 1.0) * h1 + xe * h2)


_UNKNOWN = (None, None, None, None)  # no member of a Kummer set summed yet


def _kummer(
    plan: _KummerPlan, k: int, z: float, w: float, known: tuple, jet: bool
) -> tuple:
    """Member k (0 to 3 for w1 to w4) of the Kummer set of plan at one point,
    as a value or as a jet (F, F', F'') in z, and the point's known members.

    w = 1 - z is given apart, so that a caller can form both from its own
    variable without a cancellation.  A member is summed on its own
    variable when that is at most 0.5, when its series terminates, or at
    the end point 1 (the routes and errors of hyp2f1 and _hyp2f1_jet);
    otherwise it is its row over the pair on the other side.  Away from
    z = 0.5 the two members summed on the near side give all four.  `known`
    holds the members summed at this point so far (None where none is),
    and is returned as a new tuple when a member is added.
    """
    x = w if k > 1 else z
    if _SERIES_SPLIT < x < 1.0 and plan.triple(k).terminating_degree is None:
        s, g, alpha, beta, _, _, _ = plan.row(k)
        i = 0 if k > 1 else 2
        for m in (i, i + 1):
            if known[m] is None:
                known = known[:m] + (_kummer_summed(plan, m, z, w, jet),) + known[m + 1:]
        u, v = known[i], known[i + 1]
        if jet:
            return (s * (g * (alpha * u[0] - beta * v[0])),
                    s * (g * (alpha * u[1] - beta * v[1])),
                    s * (g * (alpha * u[2] - beta * v[2]))), known
        return s * (g * (alpha * u - beta * v)), known
    member = known[k]
    if member is None:
        member = _kummer_summed(plan, k, z, w, jet)
        known = known[:k] + (member,) + known[k + 1:]
    return member, known


def _kummer_summed(plan: _KummerPlan, k: int, z: float, w: float, jet: bool):
    """Member k from its own series and power; a jet in w turns into one in
    z by a sign flip of the first derivative."""
    x = w if k > 1 else z
    t, e = plan.triple(k), plan.powers[k]
    if not jet:
        f = hyp2f1(t, x)
        return f * x ** e if e != 0.0 else f
    h = _hyp2f1_jet(t, x)
    if e != 0.0:
        h = _power_jet(h, x, e)
    return (h[0], -h[1], h[2]) if k > 1 else h


def hyp2f1(p: Hyp2F1, z: float) -> float:
    """Evaluate 2F1(a,b;c;z) for real parameters and argument.

    Terminating series are summed exactly (any finite z).  Otherwise the
    direct series is used for |z| <= 0.5, the linear connection formula for
    0.5 < z < 1, an argument-mapping transform for -1 < z < -0.5, and the
    gamma closed form at z = 1 when c-a-b > 0.
    """
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z!r}")
    if p.terminating_degree is not None:
        # exactly d+1 terms: the leading 1 plus d recurrence steps
        return _series(p, z, p.terminating_degree)
    if abs(z) <= _SERIES_SPLIT:
        return _series(p, z, None)
    if _SERIES_SPLIT < z < 1.0:
        row = p._plan.row(0)
        return row[0] * _connection(row, z)
    if -1.0 < z < -_SERIES_SPLIT:
        # 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
        q = p._pfaff
        return (1.0 - z) ** (-q.a) * _series(q, z / (z - 1.0), None)
    if z == 1.0:
        cab = p.c - p.a - p.b
        if cab > 0.0:
            return gamma(p.c) * gamma(cab) * rgamma(p.c - p.a) * rgamma(p.c - p.b)
        raise DomainError(f"z=1 requires c-a-b > 0, got {cab!r}")
    raise DomainError(f"argument z={z!r} outside the non-terminating domain")


def hyp2f1_derivative(p: Hyp2F1, z: float) -> float:
    """d/dz 2F1(a,b;c;z) via the parameter-shift rule (ab/c shifted triple)."""
    return p.a * p.b / p.c * hyp2f1(p._shifted, z)


def _hyp2f1_jet(p: Hyp2F1, z: float) -> tuple[float, float, float]:
    """(F, F', F'') of 2F1(a,b;c;z), one series pass per side.

    Covers what a solution branch reaches: terminating series at any finite
    z, and otherwise the direct series for |z| <= 0.5, the row of w1 in the
    Kummer set for 0.5 < z < 1, and z = 1 itself, which z(r) rounds to next
    to an end point (Gauss's closed form per order, so c-a-b > 2 is needed).
    Any other z raises DomainError.
    """
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z!r}")
    if p.terminating_degree is not None:
        return _jet(p, z, p.terminating_degree)
    if abs(z) <= _SERIES_SPLIT:
        return _jet(p, z, None)
    if _SERIES_SPLIT < z < 1.0:
        return _kummer(p._plan, 0, z, 1.0 - z, _UNKNOWN, True)[0]
    if z == 1.0:
        return (hyp2f1(p, z), hyp2f1_derivative(p, z),
                p.a * p.b / p.c * hyp2f1_derivative(p._shifted, z))
    raise DomainError(f"derivatives need -0.5 <= z <= 1, got z={z!r}")


def pfaff_transform(p: Hyp2F1) -> tuple[Hyp2F1, float]:
    """Swap (a,b;c) for (c-a,c-b;c) with the compensating power c-a-b.

    Evaluating both sides at the same z satisfies
    2F1(a,b;c;z) = (1-z)^power * 2F1(c-a,c-b;c;z).
    """
    return Hyp2F1(p.c - p.a, p.c - p.b, p.c), p.c - p.a - p.b


def connection_15_8_4(p: Hyp2F1, z: float) -> float:
    """sin(pi(c-a-b))/pi * 2F1(a,b;c;z) computed purely from the 1-z side.

    Verification partner of the direct evaluation; raises DegenerateCase
    when c-a-b is an integer (logarithmic case, out of scope).  Accurate on
    0.5 < z < 1, where hyp2f1 takes this route; at 0 < z <= 0.5 its 1-z
    side sums the connection route of (a, b; a+b-c+1) and has carried up
    to ~5e-8 relative error.
    """
    row = p._plan.row(0)
    if not (0.0 < z < 1.0):
        raise DomainError(f"connection formula requires 0 < z < 1, got z={z!r}")
    return _connection(row, z)

