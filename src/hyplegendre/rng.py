"""Deterministic pseudo-random draws for the verification suites.

The generator is SplitMix64 (Steele, Lea & Flood): state advances by the
golden-gamma constant and is finalized with two xor-shift multiplies.  The
algorithm is fixed here so that seeded runs reproduce bit-identically on
any platform, independent of the host language's library generators.
"""

from __future__ import annotations

from .hypergeom import _dist_to_int
from .ode_solutions import (IndicialExponents, OdeParams, _branch_data, _quadratic_coeffs,
                            _real_roots, indicial_exponents)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit deterministic generator with a tiny, documented state space."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) built from the top 53 bits."""
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + (hi - lo) * u

    def index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self.next_u64() % n


def draw_ode_params(rng: SplitMix64) -> OdeParams:
    """Unconstrained draw over a desk-scale coefficient box."""
    return OdeParams(
        a1=rng.uniform(-3.0, 1.0),
        b1=rng.uniform(-1.0, 1.0),
        a2=rng.uniform(-0.8, 0.8),
        b2=rng.uniform(-0.8, 0.8),
        a3=rng.uniform(-0.8, 0.8),
        b3=rng.uniform(-0.8, 0.8),
        c3=rng.uniform(-0.8, 0.8),
        lam=rng.uniform(0.5, 7.0),
        xi1=rng.uniform(-2.0, -0.3),
        xi2=rng.uniform(0.3, 2.0),
    )


_INT_MARGIN = 0.05
_DISC_MARGIN = 0.04
_MU_BOUND = 4.0


def _clear_of_integers(*values: float) -> bool:
    return all(_dist_to_int(v) >= _INT_MARGIN for v in values)


def _pair_safe(p: OdeParams, mu1: float, mu2: float) -> bool:
    """True when every branch built on (mu1, mu2) evaluates cleanly:
    real separated square root, no lower parameter or connection quantity
    near an integer, bounded upper parameters."""
    if p.lam - p.a3 + ((p.a1 + 1.0) / 2.0) ** 2 < _DISC_MARGIN:
        return False
    s, m_mid, c_hat, c_breve = _branch_data(p, mu1, mu2)
    a, b = m_mid - s, m_mid + s
    if max(abs(a), abs(b)) > 2.0 * _MU_BOUND:
        return False
    return _clear_of_integers(
        a, b, c_hat, c_breve, a - c_hat, b - c_hat, a - c_breve, b - c_breve
    )


def draw_nondegenerate(rng: SplitMix64) -> tuple[OdeParams, IndicialExponents]:
    """Rejection-sample parameters whose branches on the upper root pair
    are all buildable and evaluable across the whole interval (connection
    dispatch included).  A draw is judged on the float roots of its xi1 and
    xi2 quadratics; only the accepted one builds its exponents."""
    while True:
        p = draw_ode_params(rng)
        (b1, c1), (b2, c2), _ = _quadratic_coeffs(p)
        mu1, mu2 = _real_roots(b1, c1), _real_roots(b2, c2)
        if mu1 is None or mu2 is None:
            continue
        if mu1[1] - mu1[0] < _DISC_MARGIN or mu2[1] - mu2[0] < _DISC_MARGIN:
            continue
        if max(map(abs, mu1 + mu2)) > _MU_BOUND:
            continue
        if _pair_safe(p, mu1[1], mu2[1]):
            return p, indicial_exponents(p)
