"""Independent reference implementations used only by the tests.

Each oracle deliberately avoids the library's own code paths: the series
oracle is a fixed-length direct sum, the Legendre oracle is the three-term
recurrence, the Gegenbauer oracle is its plain three-term recurrence at
the caller's precision, and derivatives come from central differences.
"""

from __future__ import annotations


def direct_2f1(a: float, b: float, c: float, z: float, terms: int = 200) -> float:
    """Plain fixed-length summation of the defining series."""
    acc = 1.0
    term = 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        acc += term
    return acc


def rising(x: float, n: int) -> float:
    acc = 1.0
    for k in range(n):
        acc *= x + k
    return acc


def legendre_recurrence(k: int, x: float) -> float:
    """P_k(x) by the Bonnet three-term recurrence."""
    if k == 0:
        return 1.0
    prev, cur = 1.0, x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return cur


def gegenbauer_table(n: int, lam, x) -> list:
    """[C_0^lam(x), ..., C_n^lam(x)] by the three-term recurrence (DLMF
    18.9.1), in the arithmetic of x and lam: mpmath numbers give a
    high-precision oracle."""
    table = [1 + 0 * x]
    prev = 0 * x
    for k in range(n):
        prev, cur = table[-1], (2 * (k + lam) * x * table[-1]
                                - (k + 2 * lam - 1) * prev) / (k + 1)
        table.append(cur)
    return table


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff2(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def chebyshev_points(lo: float, hi: float, n: int) -> list[float]:
    """n interior Chebyshev-spaced points on (lo, hi)."""
    import math

    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return [mid + half * math.cos(math.pi * (2 * j - 1) / (2 * n))
            for j in range(1, n + 1)]
