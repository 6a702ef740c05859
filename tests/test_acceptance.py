"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete.
"""

import subprocess
import sys

from hyplegendre import (
    BranchId,
    Hyp2F1,
    LegendreTriple,
    OdeParams,
    UniversalParams,
    build_branch,
    connection_check,
    gamma,
    generalized_solutions,
    hyp2f1,
    pfaff_transform,
    residual,
    universal_hypergeometric,
    universal_ode_embedding,
    universal_ode_residual,
    universal_sum,
)
from hyplegendre.ode_solutions import indicial_exponents, root_residual
from hyplegendre.rng import SplitMix64, draw_nondegenerate, draw_ode_params

from identities import inversion_15_8_6, quadratic_15_8_20, quadratic_path
from oracles import chebyshev_points, direct_2f1, legendre_recurrence, rising

SQRT_PI = 1.7724538509055160273


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_indicial_correctness():
    rng = SplitMix64(1001)
    worst = 0.0
    for _ in range(1000):
        p = draw_ode_params(rng)
        exps = indicial_exponents(p)
        for name, pair in (("mu1", exps.mu1), ("mu2", exps.mu2),
                           ("mu_inf", exps.mu_inf)):
            if pair.is_complex:
                continue
            for root in pair.as_tuple():
                worst = max(worst, root_residual(p, name, root))
    _report("criterion 1 (indicial roots, 1000 draws)",
            worst <= 1e-10, f"max residual {worst:.3e} <= 1e-10")


def test_criterion_2_solution_residuals():
    rng = SplitMix64(1002)
    worst = 0.0
    for _ in range(200):
        p, exps = draw_nondegenerate(rng)
        mu1, mu2 = exps.mu1.second, exps.mu2.second
        pts = chebyshev_points(p.xi1, p.xi2, 20)
        for bid in BranchId:
            br = build_branch(p, mu1, mu2, bid)
            for r in pts:
                worst = max(worst, residual(br, p, r))
    _report("criterion 2 (branch residuals, 200 draws x 4 branches x 20 pts)",
            worst <= 1e-8, f"max normalized residual {worst:.3e} <= 1e-8")


def test_criterion_3_connection_identities():
    rng = SplitMix64(1003)
    fractions = (0.15, 0.3, 0.5, 0.7, 0.85)
    worst1 = worst2 = 0.0
    for _ in range(100):
        p, exps = draw_nondegenerate(rng)
        mu1, mu2 = exps.mu1.second, exps.mu2.second
        for t in fractions:
            r = p.xi1 + t * p.width
            lhs, rhs = connection_check(p, mu1, mu2, r)
            worst1 = max(worst1, abs(lhs - rhs) / (1.0 + abs(lhs)))
            lhs2, rhs2 = connection_check(p, mu1, mu2, r, hat=BranchId.HAT2)
            worst2 = max(worst2, abs(lhs2 - rhs2) / (1.0 + abs(lhs2)))
    _report("criterion 3 (connection identity, 100 draws x 5 pts)",
            worst1 <= 1e-8 and worst2 <= 1e-8,
            f"first-kind max {worst1:.3e}, second-kind max {worst2:.3e} <= 1e-8")


def test_criterion_4_classical_reduction():
    worst = 0.0
    for k in range(7):
        p = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0,
                      c3=0.0, lam=float(k * (k + 1)), xi1=-1.0, xi2=1.0)
        t = LegendreTriple(k=float(k), m=0.0, n=0.0)
        for i in range(21):
            r = -0.95 + i * 0.095
            f1, _ = generalized_solutions(t, 0.0, 0.0, p, r)
            worst = max(worst, abs(f1 - legendre_recurrence(k, r)))
    p1 = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                   lam=2.0, xi1=-1.0, xi2=1.0)
    spot1, _ = generalized_solutions(LegendreTriple(1.0, 0.0, 0.0), 0.0, 0.0, p1, 0.3)
    p2 = OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0, c3=0.0,
                   lam=6.0, xi1=-1.0, xi2=1.0)
    spot2, _ = generalized_solutions(LegendreTriple(2.0, 0.0, 0.0), 0.0, 0.0, p2, 0.5)
    spots = abs(spot1 - 0.3) <= 1e-11 and abs(spot2 - (-0.125)) <= 1e-11
    _report("criterion 4 (classical reduction, k=0..6, 21-pt grid)",
            worst <= 1e-11 and spots,
            f"max |F1 - recurrence| {worst:.3e} <= 1e-11, spot values ok")


def test_criterion_5_universal_equivalence_and_parity():
    worst_rel = 0.0
    for mprime in (0.5, 1.0, 1.5, 2.0):
        for n in range(0, 11, 2):
            u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
            worst_abs = scale = 0.0
            for i in range(21):
                r = -0.95 + i * 0.095
                s = universal_sum(u, r)
                h = universal_hypergeometric(u, r)
                worst_abs = max(worst_abs, abs(s - h))
                scale = max(scale, abs(s))
            worst_rel = max(worst_rel, worst_abs / scale)
    worst_parity = 0.0
    for mprime in (0.5, 1.0, 1.5, 2.0):
        for n in range(0, 11):
            u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
            sign = (-1.0) ** n
            for i in range(10):
                r = 0.05 + i * 0.09
                worst_parity = max(
                    worst_parity,
                    abs(universal_sum(u, -r) - sign * universal_sum(u, r)),
                )
    _report("criterion 5 (sum vs closed form + parity)",
            worst_rel <= 1e-10 and worst_parity <= 1e-12,
            f"equivalence max {worst_rel:.3e} <= 1e-10, "
            f"parity max {worst_parity:.3e} <= 1e-12")


def test_criterion_6_universal_ode_membership():
    worst = 0.0
    for mprime in (0.5, 1.0, 1.5, 2.0):
        for n in range(0, 9):
            u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
            p = universal_ode_embedding(u)
            for i in range(21):
                r = -0.95 + i * 0.095
                worst = max(worst, universal_ode_residual(u, r, p))
    _report("criterion 6 (universal family satisfies its equation, n <= 8)",
            worst <= 1e-8, f"max normalized residual {worst:.3e} <= 1e-8")


def test_criterion_7_quadratic_path_proportionality():
    worst = 0.0
    for mprime, n in ((1.0, 2.0), (0.5, 4.0), (2.0, 2.0)):
        u = UniversalParams.from_degrees(ell=mprime + n, mprime=mprime)
        ratios = [quadratic_path(u, r) / universal_hypergeometric(u, r)
                  for r in (0.15, 0.35, 0.55, -0.45)]
        spread = max(abs(x - ratios[0]) / abs(ratios[0]) for x in ratios[1:])
        worst = max(worst, spread)
    _report("criterion 7 (quadratic-path ratio constant, 3 even cases)",
            worst <= 1e-8, f"max ratio spread {worst:.3e} <= 1e-8")


def test_criterion_8_identity_micro_suite():
    # Pfaff involution, bitwise, on dyadic parameters
    involution_ok = True
    vals = [k / 8.0 for k in range(-16, 17)]
    for a in vals[::3]:
        for b in vals[::5]:
            for c in (0.25, 1.5, 3.75):
                p = Hyp2F1(a, b, c)
                q, _ = pfaff_transform(p)
                back, _ = pfaff_transform(q)
                if (back.a, back.b, back.c) != (p.a, p.b, p.c):
                    involution_ok = False

    worst_dup = 0.0
    for i in range(96):
        x = 0.5 + i * 0.1
        lhs = gamma(2.0 * x)
        rhs = 2.0 ** (2.0 * x - 1.0) * gamma(x) * gamma(x + 0.5) / SQRT_PI
        worst_dup = max(worst_dup, abs(lhs - rhs) / abs(lhs))

    worst_inv = 0.0
    for m, b, c, z in ((1, 2.0, 0.5, 0.7), (2, 3.0, 0.5, 2.0), (3, 1.3, 0.4, 1.7)):
        lhs = (-1.0) ** m * rising(c, m) / rising(b, m) * direct_2f1(-m, b, c, z, m + 1)
        rhs = inversion_15_8_6(m, b, c, z)
        worst_inv = max(worst_inv, abs(lhs - rhs) / (1.0 + abs(lhs)))

    worst_quad = 0.0
    for a, c, z in ((-1.0, 0.5, 0.2), (0.3, 1.4, 0.2), (1.2, 0.8, 0.3)):
        lhs = hyp2f1(Hyp2F1(a, 1.0 - a, c), z)
        rhs = quadratic_15_8_20(a, c, z)
        worst_quad = max(worst_quad, abs(lhs - rhs) / (1.0 + abs(lhs)))

    ok = (involution_ok and worst_dup <= 1e-11 and worst_inv <= 1e-11
          and worst_quad <= 1e-11)
    _report("criterion 8 (identity micro-suite)",
            ok,
            f"involution exact: {involution_ok}, duplication {worst_dup:.3e}, "
            f"inversion {worst_inv:.3e}, quadratic {worst_quad:.3e} <= 1e-11")


def test_criterion_9_cli_determinism():
    args = [sys.executable, "-m", "hyplegendre", "verify",
            "--seed", "42", "--cases", "100", "--format", "csv"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout)
    _report("criterion 9 (CLI verify determinism, seed 42, 100 cases)",
            ok,
            f"exit codes ({first.returncode}, {second.returncode}), "
            f"stdout byte-identical: {first.stdout == second.stdout}")
