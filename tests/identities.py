"""Transformed sides of the 2F1 identities the tests check the library
against, written over its own Hyp2F1, hyp2f1 and pochhammer.

Each function returns one side of an identity; the tests compare it with
the other.  Nothing is validated: callers pick points where the identity
holds and the transformed series converges.
"""

from __future__ import annotations

from hyplegendre import Hyp2F1, UniversalParams, hyp2f1, pochhammer


def inversion_15_8_6(m: int, b: float, c: float, z: float) -> float:
    """z^m 2F1(-m, 1-c-m; 1-b-m; 1/z), which equals
    (-1)^m (c)_m/(b)_m 2F1(-m, b; c; z) (DLMF 15.8.6)."""
    return z ** m * hyp2f1(Hyp2F1(-float(m), 1.0 - c - m, 1.0 - b - m), 1.0 / z)


def quadratic_15_8_20(a: float, c: float, z: float) -> float:
    """(1-z)^(c-1) 2F1((c-a)/2, (a+c-1)/2; c; 4z(1-z)), which equals
    2F1(a, 1-a; c; z) for z <= 1/2 (DLMF 15.8.20)."""
    inner = Hyp2F1((c - a) / 2.0, (a + c - 1.0) / 2.0, c)
    return (1.0 - z) ** (c - 1.0) * hyp2f1(inner, 4.0 * z * (1.0 - z))


def quadratic_path(u: UniversalParams, r: float) -> float:
    """The universal closed form on (-1, 1) by the even-argument rewrite,
    for an even degree offset n_index = 2h:

        ((1+r)/2)^mprime (1/2)_h / (-(ell+mprime)/2)_h
          * (1+r)^(-mprime/2) (1-r)^(mprime/2)
          * 2F1(-h, (1+ell+mprime)/2; 1/2; r^2)

    Its ratio to universal_hypergeometric(u, r) does not depend on r.
    """
    half = u.n_index // 2
    hyp = Hyp2F1(-float(half), (1.0 + u.ell + u.mprime) / 2.0, 0.5)
    return (((1.0 + r) / 2.0) ** u.mprime
            * pochhammer(0.5, half)
            / pochhammer(-(u.ell + u.mprime) / 2.0, half)
            * (1.0 + r) ** (-u.mprime / 2.0)
            * (1.0 - r) ** (u.mprime / 2.0)
            * hyp2f1(hyp, r * r))
