"""Gauss hypergeometric core: 2F1 series evaluation, gamma, Pochhammer,
Kummer's four solutions of one triple with the connection rows between
them (_KummerPlan, the one place a member triple or a row is formed), and
Euler's transformation, which the pfaff suite of verify checks.

All arithmetic is IEEE double precision.  Four constants govern every
evaluation: a series is summed to the first term at most _REL_TOL times
the sum of the terms' magnitudes so far (found once per bucket of |z|, see
_cut), raises NoConvergence when that takes more than _MAX_TERMS terms or
when _REL_TOL times that sum of magnitudes exceeds _CANCEL_TOL times the
sum's own size, and a real within DEFAULT_POLE_TOL of a non-positive
integer is a pole.
"""

from __future__ import annotations

import math
import sys
import weakref
from array import array
from functools import cached_property
from operator import attrgetter

from .errors import DegenerateCase, DomainError, InvalidParams, NoConvergence, PoleError

DEFAULT_POLE_TOL = 1e-10
_REL_TOL = 1e-15
_MAX_TERMS = 500
# the largest relative rounding-error scale a non-terminating sum may
# carry: one past it has cancelled below its last trustworthy digit
_CANCEL_TOL = 1e-3
# a cut's floor per unit of sum |term|, raised by more than the rounding of
# its float32 entry in the cut table
_FLOOR_PER_TOTAL = _REL_TOL / _CANCEL_TOL * (1.0 + 2.0 ** -20)

_SERIES_SPLIT = 0.5  # direct summation for |z| <= split, transforms beyond
_LOG_MAX = math.log(sys.float_info.max)
_C0 = (1.0,)  # the memo before any evaluation: c_0 alone
# the cut table's buckets: bucket i holds i/128 <= |x| < (i+1)/128 and is cut
# at its outer edge; the last one also holds |x| = 0.5
_CUTS_PER_UNIT = 128
_BUCKETS = int(_SERIES_SPLIT * _CUTS_PER_UNIT)
_CUT_EDGES = tuple((i + 1) / _CUTS_PER_UNIT for i in range(_BUCKETS))
# a cut table before any scan, bucket i's count at i and floor at i + _BUCKETS:
# float32 holds every count exactly, a floor past its range becomes inf (so
# every sum in that bucket is checked), and at 512 bytes a copy comes from
# the small-object allocator; an array, unlike a dict or list, also leaves
# the cyclic garbage collector nothing to track
_NO_CUTS = array("f", bytes(4 * 2 * _BUCKETS))


def _dist_to_int(x: float) -> float:
    return abs(x - round(x))


def _is_nonpositive_integer(x: float) -> bool:
    return x < 0.5 and abs(x - round(x)) <= DEFAULT_POLE_TOL


def _isfinite(name: str, v) -> bool:
    """math.isfinite(v), or InvalidParams naming the field when v is not a
    number it takes: a str, or an int past the float range."""
    try:
        return math.isfinite(v)
    except (TypeError, OverflowError) as exc:
        raise InvalidParams(f"field '{name}' must be a number in the float range") from exc


def _power(x: float, e: float) -> float:
    """x ** e, the one rule of every power a value carries: DomainError naming
    x and e where it divides by zero (0.0 ** e < 0) or leaves the float range."""
    try:
        return x ** e
    except ZeroDivisionError as exc:
        raise DomainError(f"{x!r}^{e!r} diverges") from exc
    except OverflowError as exc:
        raise DomainError(f"{x!r}^{e!r} leaves the float range") from exc


class _Frozen:
    """Base of the frozen value types, whose __init__ fills the instance
    __dict__: the fields are the annotated names in order; equality (same
    class only), hash and repr are fieldwise; assigning or deleting raises.
    Plain methods: the dataclasses module adds milliseconds to the import."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        if cls._fields:  # _Pack, a base, declares none
            cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Pack(_Frozen):
    """Base of the parameter packs.  __init__ stores the values it is given
    as the leading fields, InvalidParams at the first that is not finite;
    to_dict and from_dict use _keys, the fields' names in the JSON parameter
    files: the field names, but "lambda" for lam."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._keys = tuple("lambda" if name == "lam" else name for name in cls._fields)

    def __init__(self, *values: float) -> None:
        try:
            ok = all(map(math.isfinite, values))
        except (TypeError, OverflowError):
            ok = False
        if not ok:  # name the first field that fails
            for name, v in zip(self._fields, values):
                if not _isfinite(name, v):
                    raise InvalidParams(f"field '{name}' must be finite")
        self.__dict__.update(zip(self._fields, values))

    def to_dict(self) -> dict:
        return dict(zip(self._keys, self._values))

    @classmethod
    def from_dict(cls, data: dict):
        return cls(*map(cls._from_json, cls._keys, map(data.__getitem__, cls._keys)))

    @staticmethod
    def _from_json(key: str, v):
        """The field of key from its JSON value v: float(v), or v where it is
        not finite, for __init__ to name."""
        return float(v) if _isfinite(key, v) else v


class _PlanOf:
    """Hyp2F1._plan, the plan of the triple's Kummer set.  A plan's w1 triple
    reads that plan through a weak link while it lives; any other triple, and
    w1 once its plan is gone, builds its own and keeps it in its __dict__."""

    def __get__(self, p: "Hyp2F1", owner: type | None = None) -> "_KummerPlan":
        link = p.__dict__.get("_link")
        return link and link() or p.__dict__.setdefault("_plan", _KummerPlan(p.a, p.b, p.c))


class Hyp2F1(_Frozen):
    """A 2F1 parameter triple (a, b; c).

    terminating_degree is filled in, not given: when a or b sits within
    DEFAULT_POLE_TOL of a non-positive integer the series is a polynomial
    and the degree is the smallest admissible one.  A non-positive integer
    c is rejected unless the series terminates before the pole in c, and a
    non-finite parameter with InvalidParams.

    What depends on the triple alone is built on first use and kept in the
    instance __dict__, where equality and hashing, which compare the fields
    only, never see it: the Pfaff triple, the plan of its Kummer set, the
    memo of series coefficients c_k = (a)_k (b)_k / ((c)_k k!), and the cut
    tables of _cut (a plan's w1 triple reads that plan while it lives).
    The memo is a tuple of floats that every summation reads, and that the
    scan filling a cut entry (or a terminating sum) extends; it holds at most
    _MAX_TERMS + 1 entries, or for a terminating series degree + 1, fewer
    when it ends at a coefficient that underflows to 0.0 (see _memo), and it
    is replaced, never mutated, so callers sharing an instance see either
    the old or the new one whole.
    """

    a: float
    b: float
    c: float
    terminating_degree: int | None

    def __init__(self, a: float, b: float, c: float) -> None:
        try:
            ok = math.isfinite(a) and math.isfinite(b) and math.isfinite(c)
        except (TypeError, OverflowError):
            ok = False
        if not ok and not (_isfinite("a", a) & _isfinite("b", b) & _isfinite("c", c)):
            # & types all three
            raise InvalidParams(f"2F1 parameters must be finite, got ({a!r}, {b!r}; {c!r})")
        degree = None
        for upper in (a, b):
            if _is_nonpositive_integer(upper):
                n = int(round(-upper))
                degree = n if degree is None else min(degree, n)
        d = self.__dict__
        d["a"], d["b"], d["c"], d["terminating_degree"] = a, b, c, degree
        self.__post_init__()

    def __post_init__(self) -> None:
        degree = self.terminating_degree
        if _is_nonpositive_integer(self.c):
            if degree is None or degree >= abs(round(self.c)):
                raise PoleError(
                    f"lower parameter c={self.c!r} is a non-positive integer "
                    "reached by the series"
                )

    @cached_property
    def _pfaff(self) -> "Hyp2F1":
        """(a, c-b; c) with a <= b, summed at z/(z-1) by the Pfaff route;
        the ordering keeps the a<->b symmetry bitwise."""
        a, b = (self.a, self.b) if self.a <= self.b else (self.b, self.a)
        return Hyp2F1(a, self.c - b, self.c)

    _plan = _PlanOf()


_UNKNOWN = (None, None, None, None)  # no member of a Kummer set summed yet


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
    its coefficient drops out cleanly.  routes is the one rule of which
    members a point sums (for a Kummer set's branches and generalized_solutions),
    summed the one place a pair is summed (for those and hyp2f1's 0.5 < z < 1
    route, the row of w1), and value and jet form the others from their
    rows in the order s * (G * (alpha u - beta v)).

    The plan is a function of its sorted float triple (a <= b, c) alone:
    every member triple (w1's too), power and coefficient (the sine's too)
    is formed from it, so (b, a; c) has the same plan bit for bit, and near
    an integer x a row cancels to the accuracy of its series, both formed
    from the same floats.  Triples and rows are built on first use and
    kept, w1 with a weak link back to this plan, its _plan while it lives
    (a strong one is a cycle).  One that cannot be built raises each time
    it is asked for: DegenerateCase for an integer x, DomainError for a
    coefficient past the float range, PoleError for a lower parameter at a
    pole.  A plain slotted class: it is never compared or hashed.
    """

    __slots__ = ("abc", "powers", "_triples", "_rows", "_routes", "__weakref__")

    def __init__(self, a: float, b: float, c: float) -> None:
        if a > b:
            a, b = b, a
        self.abc = (a, b, c)
        self.powers = (0.0, 1.0 - c, 0.0, c - a - b)  # w_k = x^powers[k] F(triple k; x)
        # filled in on first use, each entry once: racing callers may each
        # build one, all alike
        self._triples = [None, None, None, None]
        self._rows = [None, None, None, None]
        self._routes = (None, None, None, None)  # by side, see routes

    def triple(self, k: int) -> Hyp2F1:
        t = self._triples[k]
        if t is None:
            t = Hyp2F1(*self._abc(k))
            if k == 0:
                t.__dict__["_link"] = weakref.ref(self)
            self._triples[k] = t
        return t

    def _abc(self, k: int) -> tuple[float, float, float]:
        a, b, c = self.abc  # w3, w4 order a, b as the breve branches (seen at z = 1)
        if k == 2:
            return b, a, a + b - c + 1.0
        if k == 3:
            return c - b, c - a, self.powers[3] + 1.0
        if k == 1:
            return a - c + 1.0, b - c + 1.0, 2.0 - c
        return a, b, c

    def row(self, k: int) -> tuple:
        """(pi/sin(pi x), G(c_k), alpha_k, beta_k): the coefficients of
        member k's row over the pair (triple(i), triple(i + 1)), i = 2 for
        k < 2 and 0 otherwise, whose second member carries powers[i + 1]."""
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
        return math.pi / math.sin(math.pi * x), gk, alpha, beta

    def routes(self, z: float, w: float) -> tuple:
        """The route table of the side of z = 1/2 that (z, w) is on (w = 1 - z
        formed apart): per member k, (k,) where k is summed on its own
        variable (z for w1, w2, w for w3, w4), that is at most 0.5, or where
        k terminates (Hyp2F1's rule, no triple built), else the pair of k's
        row, up to a variable of 1 beside a positive other (Gauss's value at
        1 is left to a closed end, where the other is 0).  Keyed by
        (0.5 < z and w > 0, 0.5 < w and z > 0), each is built once."""
        side = (_SERIES_SPLIT < z and w > 0.0) + 2 * (_SERIES_SPLIT < w and z > 0.0)
        table = self._routes[side]
        if table is None:
            table = []
            for k, pair in enumerate(((2, 3), (2, 3), (0, 1), (0, 1))):
                ends = any(_is_nonpositive_integer(x) for x in self._abc(k)[:2])
                table.append(pair if side & (1 if k < 2 else 2) and not ends else (k,))
            table = tuple(table)
            self._routes = self._routes[:side] + (table,) + self._routes[side + 1:]
        return table

    def summed(self, k: int, need: tuple, z: float, w: float, known: tuple,
               jet: bool) -> list:
        """`known` (each member summed at (z, w), for a jet its series' jet on
        its own variable without its power, or None) as a new list with those
        of `need`, k's route, summed: k's row first, so a degenerate one raises
        before any series is summed."""
        if need[0] != k:
            self._rows[k] or self.row(k)
        found = list(known)
        for m in need:
            if found[m] is None:
                t, x, e = self._triples[m] or self.triple(m), (w if m > 1 else z), self.powers[m]
                if jet:
                    found[m] = _hyp2f1_jet(t, x)
                    continue
                f = hyp2f1(t, x)
                found[m] = f * _power(x, e) if e != 0.0 else f
        return found

    def value(self, k: int, known: tuple) -> float:
        """Member k, not summed, as its row over the values of the pair on
        the other side."""
        s, g, alpha, beta = self._rows[k] or self.row(k)
        i = 0 if k > 1 else 2
        return s * (g * (alpha * known[i] - beta * known[i + 1]))

    def jet(self, k: int, jets: tuple) -> tuple[float, float, float]:
        """The jet of a member k not summed, its row as value forms it, lane
        by lane, over the jets of the pair in one variable they share."""
        s, g, alpha, beta = self._rows[k] or self.row(k)
        i = 0 if k > 1 else 2
        (u0, u1, u2), (v0, v1, v2) = jets[i], jets[i + 1]
        return (s * (g * (alpha * u0 - beta * v0)), s * (g * (alpha * u1 - beta * v1)),
                s * (g * (alpha * u2 - beta * v2)))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x(x+1)...(x+n-1); 1 for n = 0.

    Overflow, and an infinite x, are reported by value (an infinity), never
    raised; at nan, as in gamma, DomainError is raised.
    """
    if n < 0:
        raise DomainError("pochhammer order must be a nonnegative integer")
    if math.isnan(x):
        raise DomainError(f"pochhammer is undefined at x={x!r}")
    acc = 1.0
    for k in range(n):
        acc *= x + k
    return acc


def gamma(x: float) -> float:
    """Gamma function for real x: math.gamma behind a pole check.

    Raises PoleError when x is within DEFAULT_POLE_TOL of a non-positive
    integer, and DomainError at -inf and nan, where Gamma has no value.
    Where Gamma overflows (x past ~171.6, and +inf; next to 0 is a pole)
    the result is +inf.
    """
    if not x > -math.inf:
        raise DomainError(f"gamma is undefined at x={x!r}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); 0 at the poles and at +inf.  Where
    Gamma underflows to 0 (x below ~-171) the result is inf with its sign;
    at -inf and nan, where 1/Gamma has no value, DomainError is raised."""
    if not x > -math.inf:
        raise DomainError(f"rgamma is undefined at x={x!r}")
    if _is_nonpositive_integer(x):
        return 0.0
    try:
        g = math.gamma(x)  # gamma's own pole check would run a second time
    except OverflowError:
        g = math.inf
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def _diverged(p: Hyp2F1, z: float, finite: bool) -> NoConvergence:
    why = (f"did not reach rel_tol={_REL_TOL} in {_MAX_TERMS} terms" if finite
           else "leaves the float range")
    return NoConvergence(f"2F1 series {why} (a={p.a}, b={p.b}, c={p.c}, z={z})")


def _publish(p: Hyp2F1, coefs: list[float]) -> tuple:
    # one assignment of a new tuple, never a mutation of a published one;
    # the length test and the assignment are two steps, so a racing call
    # can replace a longer memo with a shorter one (hence _cut's own test)
    memo = p.__dict__.get("_coefs", _C0)
    if len(coefs) > len(memo):
        memo = p.__dict__["_coefs"] = tuple(coefs)
    return memo


def _memo(p: Hyp2F1, n: int, z: float) -> tuple:
    """The coefficient memo of p, grown to hold at least c_0 to c_n.  It
    stops growing at the first c_k past the float range, where every sum
    over it leaves the range too: NoConvergence for the sum at z.  A
    terminating memo also ends at its first c_k of exactly 0.0, as every
    later one is 0.0 too: a sum over it ends there, unless the terms past
    it would have been 0.0 * inf = nan (_zeros_overflow), NoConvergence."""
    memo = p.__dict__.get("_coefs", _C0)
    if len(memo) > n:
        return memo
    if memo[-1] != 0.0 or p.terminating_degree is None:
        grown = list(memo)
        a, b, c = p.a, p.b, p.c
        ck = grown[-1]
        for k in range(len(grown) - 1, n):
            ck *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
            if not math.isfinite(ck):
                _publish(p, grown)
                raise _diverged(p, z, False)
            grown.append(ck)
            if ck == 0.0 and p.terminating_degree is not None:
                break
        memo = _publish(p, grown)
    if len(memo) <= n and _zeros_overflow(z, n):
        raise _diverged(p, z, False)
    return memo


def _zeros_overflow(z: float, n: int) -> bool:
    """Whether z^n, formed one factor at a time as the sums form it, leaves
    the float range.  Logarithms decide, but within the band the products'
    n roundings (each at most 2^-53 relative) could cross, the products do."""
    az = abs(z)
    if az <= 1.0:
        return False
    gap = n * math.log(az) - _LOG_MAX
    if abs(gap) > 1e-9 + n * 2.0 ** -52:
        return gap > 0.0
    zk = 1.0
    for _ in range(n):
        zk *= az
    return zk == math.inf


def _scan(p: Hyp2F1, e: float, jet: bool, z: float = 0.0) -> tuple:
    """(k, coefs, total, s) for the first k at which |c_k e^k| is at most
    _REL_TOL times the sum of |c_j e^j| over j <= k, for a jet the same
    holding of the terms of F' and F'' too.  k is 0 when the budget of
    _MAX_TERMS runs out first, and -1 when a sum leaves the float range.
    One loop serves both kinds: each step reads c_k from the memo of p or,
    past its end, forms it by the recurrence; coefs is the memo and those
    c_k, and total is the sum of |c_j e^j| over j <= k.  For values, s is
    the sum of c_j z^j over j <= k, formed in the same step as _series
    forms it, so a first call needs one pass; for a jet it is None.
    """
    a, b, c = p.a, p.b, p.c
    rel = _REL_TOL
    coefs = list(p.__dict__.get("_coefs", _C0))
    known = len(coefs)
    s0, s1, s2 = 1.0, 0.0, 0.0
    x0, x1, x2 = e, 1.0, 0.0  # e^k, e^(k-1), e^(k-2)
    acc = zk = ck = 1.0
    j = 0.0  # j = k - 1, a float: it saves an int->float per use
    for k in range(1, _MAX_TERMS + 1):
        if k < known:
            ck = coefs[k]
        else:
            ck *= (a + j) * (b + j) / ((c + j) * (j + 1.0))
            coefs.append(ck)
        j += 1.0
        m = abs(ck)
        t0 = m * x0
        s0 += t0
        if jet:
            t1, t2 = j * m * x1, j * (j - 1.0) * m * x2
            s1 += t1
            s2 += t2
            if t2 <= rel * s2 and t1 <= rel * s1 and t0 <= rel * s0:
                break
            x0, x1, x2 = x0 * e, x0, x1
        else:
            zk *= z
            acc += ck * zk
            if t0 <= rel * s0:
                break
            x0 *= e
    else:
        k = 0
    return (k if s0 + s1 + s2 < math.inf else -1), coefs, s0, (None if jet else acc)


def _cut(p: Hyp2F1, x: float, jet: bool) -> tuple:
    """(n, coefs, floor, s) for a non-terminating sum at |x| <= 0.5: the
    number of recurrence steps it takes, c_0 to at least c_n, the |sum|
    below which _check_digits must look at it, and the value sum at x when
    a scan here formed it (else None).

    The count and floor are kept per 1/_CUTS_PER_UNIT-wide bucket of |x| in
    a cut table on p, one for values and one for jets, found once by _scan
    at the bucket's outer edge: a term test that fails at |x| fails at the
    larger edge too, so the edge's count serves every point of the bucket,
    and the edge's sum of |terms| bounds each point's.  A count is 0 until
    then, and -1 for a bucket whose edge runs out of the budget or the
    float range, whose points each take their own scan.  An entry is
    written once, always with the same value, its floor before its count;
    the scan that finds it publishes the coefficients it read.
    """
    i = int(x * _CUTS_PER_UNIT)  # truncation: the bucket of -x is that of x
    if i < 0:
        i = -i
    if i == _BUCKETS:  # |x| = 0.5
        i -= 1
    cuts = p.__dict__.get("_jet_cuts" if jet else "_cuts")
    if cuts is None:
        cuts = p.__dict__.setdefault("_jet_cuts" if jet else "_cuts", _NO_CUTS[:])
    n = cuts[i]
    if n > 0.0:
        n = int(n)
        coefs = p.__dict__.get("_coefs", _C0)
        return n, (coefs if len(coefs) > n else _memo(p, n, x)), cuts[i + _BUCKETS], None
    if n == 0.0:
        n, coefs, total, s = _scan(p, _CUT_EDGES[i], jet, x)
        if n > 0:
            cuts[i + _BUCKETS] = total * _FLOOR_PER_TOTAL
        cuts[i] = n if n > 0 else -1.0
    if n <= 0:
        n, coefs, total, s = _scan(p, abs(x), jet, x)
    _publish(p, coefs)
    if n <= 0:
        raise _diverged(p, x, n == 0)
    return n, coefs, total * _FLOOR_PER_TOTAL, s


def _check_digits(p: Hyp2F1, z: float, n: int, s: float) -> None:
    """Raise NoConvergence when the sum s of c_k z^k, k = 0 to n, has
    cancelled: when its rounding-error scale _REL_TOL * sum |c_k z^k|
    exceeds _CANCEL_TOL |s|."""
    if _REL_TOL * _series_magnitude(p, z, n) > _CANCEL_TOL * abs(s):
        raise NoConvergence(
            f"2F1 series cancels below its rounding error (a={p.a}, b={p.b}, c={p.c}, z={z})")


def _series(p: Hyp2F1, z: float, nterms: int | None) -> float:
    """Direct summation of the defining series, the sum of c_k z^k for
    k = 0 to n, forward.

    n is nterms when given (a terminating series), and otherwise the count
    of the cut table for |z| <= 0.5, so no term is tested.  A sum past the
    float range raises NoConvergence; so does a series that does not reach
    _REL_TOL within _MAX_TERMS terms, and a non-terminating one that
    cancels (_check_digits).  The c_k are read from the memo of p; a
    terminating call that needs more of them grows it first, the scan of a
    cut in the pass that sums them.
    """
    if nterms is None:
        n, coefs, floor, acc = _cut(p, z, False)
    else:
        n, floor, acc = nterms, 0.0, None
        coefs = _memo(p, n, z)
    if acc is None:
        acc = zk = 1.0
        for ck in coefs[1:n + 1]:
            zk *= z
            acc += ck * zk
    if not math.isfinite(acc):
        raise _diverged(p, z, False)
    if -floor < acc < floor:
        _check_digits(p, z, n, acc)
    return acc


def _jet(p: Hyp2F1, z: float, nterms: int | None) -> tuple[float, float, float]:
    """(F, F', F'') of the defining series over the terms of _series: the
    sums of c_k z^k, k c_k z^(k-1) and k(k-1) c_k z^(k-2).

    A non-terminating series runs Horner's scheme on three lanes from
    c_n down; a terminating one sums the three forward, carrying the powers
    of z by multiplication.  z = 0 gives the exact values either way.  The
    errors are those of _series, the cancellation test read on F alone:
    F' and F'' vanish at F's extrema, and a lost F takes them with it.
    """
    if nterms is None:
        n, coefs, floor, _ = _cut(p, z, True)
        f0, f1, f2 = coefs[n], 0.0, 0.0
        for ck in coefs[n - 1::-1]:
            f2 = f2 * z + f1
            f1 = f1 * z + f0
            f0 = f0 * z + ck
        f2 *= 2.0
    else:
        n, floor = nterms, 0.0
        f0, f1, f2 = 1.0, 0.0, 0.0
        z0, z1, z2 = z, 1.0, 0.0  # z^k, z^(k-1), z^(k-2) for the next k
        k = 1.0
        for ck in _memo(p, nterms, z)[1:nterms + 1]:
            f0 += ck * z0
            f1 += k * ck * z1
            f2 += k * (k - 1.0) * ck * z2
            z0, z1, z2 = z0 * z, z0, z1
            k += 1.0
    if not (math.isfinite(f0) and math.isfinite(f1) and math.isfinite(f2)):
        raise _diverged(p, z, False)
    if -floor < f0 < floor:
        _check_digits(p, z, n, f0)
    return f0, f1, f2


def _series_magnitude(p: Hyp2F1, z: float, n: int | None = None) -> float:
    """The sum of |c_k z^k| for k = 0 to n, by default the degree of a
    terminating series, read from the memo its evaluation at z filled: the
    scale of the rounding error of that sum."""
    total, zk, az = 0.0, 1.0, abs(z)
    for ck in p.__dict__.get("_coefs", _C0)[:(p.terminating_degree if n is None else n) + 1]:
        total += abs(ck) * zk
        zk *= az
    return total


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
        plan = p._plan  # the row of w1 over the pair (w3, w4) on w = 1 - z
        return plan.value(0, plan.summed(0, (2, 3), z, 1.0 - z, _UNKNOWN, False))
    if -1.0 < z < -_SERIES_SPLIT:
        # 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
        q = p._pfaff
        return _power(1.0 - z, -q.a) * _series(q, z / (z - 1.0), None)
    if z == 1.0:
        cab = p.c - p.a - p.b
        if cab <= 0.0:
            raise DomainError(f"z=1 requires c-a-b > 0, got {cab!r}")
        f = gamma(p.c) * gamma(cab) * rgamma(p.c - p.a) * rgamma(p.c - p.b)
        if not 0.0 < abs(f) < math.inf:  # a factor or the product left the float range
            f = _gauss_by_logs(p.c, cab, p.c - p.a, p.c - p.b)
        if math.isfinite(f):
            return f
        raise DomainError(f"Gauss's value at z=1 of {p} leaves the float range")
    raise DomainError(f"argument z={z!r} outside the non-terminating domain")


def _gauss_by_logs(c: float, cab: float, ca: float, cb: float) -> float:
    """Gamma(c) Gamma(cab) / (Gamma(ca) Gamma(cb)) by math.lgamma and Gamma's
    sign (< 0 on (-1, 0), (-3, -2), ...); 0 at a pole of Gamma(ca) or Gamma(cb)."""
    if any(_is_nonpositive_integer(x) for x in (ca, cb)):
        return 0.0
    sign = math.prod(-1.0 if x < 0.0 and math.floor(x) % 2 else 1.0 for x in (c, cab, ca, cb))
    try:
        return sign * math.exp(math.lgamma(c) + math.lgamma(cab)
                               - math.lgamma(ca) - math.lgamma(cb))
    except OverflowError:  # the value itself is past the float range
        return math.inf


def _hyp2f1_jet(p: Hyp2F1, z: float) -> tuple[float, float, float]:
    """(F, F', F'') of 2F1(a,b;c;z), one series pass.

    Covers what _KummerPlan.summed sums a member's jet at: terminating
    series at any finite z, and otherwise the direct series for |z| <= 0.5.
    Past 1/2 a member's jet is its row over the pair on the other side
    (_KummerPlan.jet), up to z = 1 itself, which z(r) rounds to next to an
    end point.  Any other z raises DomainError.
    """
    if p.terminating_degree is not None and math.isfinite(z):
        return _jet(p, z, p.terminating_degree)
    if abs(z) <= _SERIES_SPLIT:
        return _jet(p, z, None)
    raise DomainError(f"derivatives need |z| <= 0.5 or a terminating series, got z={z!r}")


def pfaff_transform(p: Hyp2F1) -> tuple[Hyp2F1, float]:
    """Swap (a,b;c) for (c-a,c-b;c) with the compensating power c-a-b:
    Euler's transformation (DLMF 15.8.1), two Pfaff steps,

        2F1(a,b;c;z) = (1-z)^power * 2F1(c-a,c-b;c;z)

    with both sides at the same z.  The single Pfaff step, which maps z to
    z/(z-1), is Hyp2F1._pfaff, hyp2f1's route on -1 < z < -0.5.
    """
    return Hyp2F1(p.c - p.a, p.c - p.b, p.c), p.c - p.a - p.b

