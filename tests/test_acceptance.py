"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Every expected value is either a hand-derived fixture, an independent
closed form, or a structural property; tolerances are pinned here and
nowhere else.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from muntz import (
    MuntzSeries,
    TargetFunction,
    apply,
    build_moment_data,
    build_weighted_domain,
    christoffel_remez,
    coefficient_convergence,
    dilation_operator,
    distance,
    dual_family,
    eigen_check,
    evaluate,
    explicit_exponents,
    gram,
    hereditary_check,
    oracle_distance,
    power_exponents,
    project,
    solve_moments,
    workbits,
)

from conftest import rel_err
from oracles import inverse_principal_minor

UNIT = build_weighted_domain([(0, 1)], [(1, 0)])
SQUARES = power_exponents(1, 2, 20)

REL_30 = mp.mpf("1e-30")
REL_25 = mp.mpf("1e-25")


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_cauchy_oracle_equivalence():
    start = time.time()
    worst = mp.mpf(0)
    for section in range(1, 11):
        g = gram(UNIT, SQUARES, section, 256)
        for n in range(1, section + 1):
            err = rel_err(distance(g, n), oracle_distance(SQUARES, n, section, 256))
            worst = max(worst, err)
    elapsed = time.time() - start
    report(
        1,
        "closed-form distance oracle, squares up to N=10",
        worst < REL_30 and elapsed < 10,
        f"worst rel err {mp.nstr(worst, 3)}, {elapsed:.2f}s",
    )


def test_criterion_02_hand_derived_fixture():
    lam = explicit_exponents([2, 3])
    g = gram(UNIT, lam, 2, 256)
    checks = []
    want_entries = [[Fraction(1, 5), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 7)]]
    for i in range(2):
        for j in range(2):
            checks.append(rel_err(g.entries()[i][j], want_entries[i][j]) < REL_30)
    fam = dual_family(g)
    for (i, j), want in {
        (0, 0): 180, (1, 0): -210, (0, 1): -210, (1, 1): 252,
    }.items():
        checks.append(rel_err(fam.coeffs[j][i], want) < REL_30)
    with workbits(320):
        checks.append(rel_err(distance(g, 1), 1 / mp.sqrt(mp.mpf(180))) < REL_30)
        checks.append(rel_err(distance(g, 2), 1 / mp.sqrt(mp.mpf(252))) < REL_30)
    series, residual = project(gram(UNIT, lam, 2, 256), TargetFunction.pure_power(1))
    checks.append(rel_err(series.coeffs[0], 3) < REL_30)
    checks.append(rel_err(series.coeffs[1], Fraction(-21, 10)) < REL_30)
    with workbits(320):
        checks.append(rel_err(residual, 1 / mp.sqrt(mp.mpf(300))) < REL_30)
    report(2, "hand-derived two-power fixture", all(checks))


def test_criterion_03_biorthogonality_and_reciprocity():
    rng = random.Random(20240915)
    worst = mp.mpf(0)
    reciprocity_ok = True
    for trial in range(20):
        beta = Fraction(rng.randint(15, 30), 10)  # in [1.5, 3]
        # keep lam_max near 60 so the precision ladder tops out well
        # before the 4096-bit ceiling
        cap = int(float(120 ** (1 / float(beta))))
        count = rng.randint(4, max(4, min(12, cap)))
        c_hi = min(Fraction(2), Fraction(60) / Fraction(count) ** beta)
        c = max(Fraction(1, 10), c_hi * Fraction(rng.randint(5, 10), 10))
        lam = power_exponents(c, beta, count)
        pieces = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, 40), 2 * pieces))
        intervals = [
            (Fraction(cuts[2 * i], 40), Fraction(cuts[2 * i + 1], 40))
            for i in range(pieces)
        ]
        weights = [
            (Fraction(rng.randint(1, 40), 10), Fraction(rng.randint(-5, 30), 10))
            for _ in range(pieces)
        ]
        wd = build_weighted_domain(intervals, weights, 256)
        g = gram(wd, lam, count, 256)
        fam, entries = dual_family(g), g.entries()
        with workbits(g.precision_bits):
            for m in range(count):
                for j in range(count):
                    got = mp.fsum(
                        entries[m][k] * fam.coeffs[j][k] for k in range(count)
                    )
                    worst = max(worst, abs(got - (1 if m == j else 0)))
            reciprocity_ok = reciprocity_ok and all(
                fam.distances[k] == 1 / fam.norms[k] for k in range(count)
            )
    with workbits(300):
        biorth_ok = worst < mp.mpf(2) ** (-128)
    report(
        3,
        "biorthogonality residual and exact reciprocity, 20 random systems",
        biorth_ok and reciprocity_ok,
        f"worst residual {mp.nstr(worst, 3)}",
    )


def test_criterion_04_scaling_law():
    lam = power_exponents(1, 2, 6)
    g_unit = gram(UNIT, lam, 6, 256)
    ok = True
    worst = mp.mpf(0)
    for scale in (Fraction(1, 2), Fraction(2), Fraction(5)):
        scaled = build_weighted_domain([(0, scale)], [(1, 0)], 256)
        g_scaled = gram(scaled, lam, 6, 256)
        with workbits(320):
            r = mp.mpf(scale.numerator) / scale.denominator
            for n in range(1, 7):
                lam_n = mp.mpf((n * n))
                want = distance(g_unit, n) * r ** (lam_n + mp.mpf(1) / 2)
                err = rel_err(distance(g_scaled, n), want)
                worst = max(worst, err)
                ok = ok and err < REL_30
    report(4, "distance scaling law on [0,R], R in {1/2, 2, 5}", ok,
           f"worst rel err {mp.nstr(worst, 3)}")


def test_criterion_05_lower_bound_certificate():
    # u(N) = min_n D_n^(N) / 0.9**lam_n must be positive; the stated
    # stability window (< 50% variation between the N=6 and N=10
    # sections) is asserted as written.
    start = time.time()
    u = {}
    with workbits(256):
        base = mp.mpf("0.9")
        for section in (6, 10):
            g = gram(UNIT, SQUARES, section, 256)
            ratios = [
                distance(g, n) / base ** g.lams[n - 1] for n in range(1, section + 1)
            ]
            u[section] = min(ratios)
        positive = u[6] > 0 and u[10] > 0
        variation = abs(u[10] - u[6]) / u[6]
        stable = variation < mp.mpf(1) / 2
    elapsed = time.time() - start
    report(
        5,
        "lower-bound constant positive and stable between N=6 and N=10",
        positive and stable and elapsed < 10,
        f"u(6)={mp.nstr(u[6], 5)}, u(10)={mp.nstr(u[10], 5)}, "
        f"variation={mp.nstr(variation * 100, 4)}%, {elapsed:.2f}s",
    )


def test_criterion_06_moment_solver():
    rng = random.Random(77)
    lam = power_exponents(1, 2, 10)
    ok = True
    worst = mp.mpf(0)
    for _ in range(10):
        with workbits(256):
            # decay base 0.4 with bounded mantissas keeps the fitted
            # envelope base at or below 0.5
            d = [
                mp.mpf(rng.choice([-1, 1]))
                * mp.mpf(rng.uniform(0.3, 1))
                * mp.mpf("0.4") ** lam.values[k]
                for k in range(10)
            ]
        data = build_moment_data(UNIT, lam, d, 256)
        ok = ok and data.fitted_a <= mp.mpf("0.5")
        _, residuals = solve_moments(gram(UNIT, lam, 10, 256), data)
        with workbits(256):
            worst = max(worst, max(abs(r) for r in residuals))
    with workbits(300):
        ok = ok and worst < mp.mpf(2) ** (-128)
    lam23 = explicit_exponents([2, 3])
    data = build_moment_data(UNIT, lam23, [1, 0], 256)
    series, _ = solve_moments(gram(UNIT, lam23, 2, 256), data)
    fixture_ok = (
        rel_err(series.coeffs[0], 180) < REL_30
        and rel_err(series.coeffs[1], -210) < REL_30
    )
    report(
        6,
        "moment solver residuals vanish; dual fixture recovered",
        ok and fixture_ok,
        f"worst residual {mp.nstr(worst, 3)}",
    )


def test_criterion_07_hereditary_completeness():
    start = time.time()
    two_piece = build_weighted_domain(
        [("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)], 256
    )
    ok = True
    worst = mp.mpf(0)
    for wd in (UNIT, two_piece):
        g = gram(wd, SQUARES, 8, 256)
        # every split of 1..8, index i + 1 a dual when bit i of the mask is set
        reports = [hereditary_check(g, ([i + 1 for i in range(8) if not mask >> i & 1],
                                        [i + 1 for i in range(8) if mask >> i & 1]))
                   for mask in range(2 ** 8)]
        ok = ok and len(reports) == 2 ** 8
        for rep in reports:
            ok = ok and rep.nonsingular and rep.mixed_matrix_det > 0
            err = rel_err(rep.mixed_matrix_det, inverse_principal_minor(g, rep.n2))
            worst = max(worst, err)
            ok = ok and err < REL_25
    elapsed = time.time() - start
    report(
        7,
        "all mixed systems nonsingular at N=8, two domains",
        ok and elapsed < 60,
        f"worst det rel err {mp.nstr(worst, 3)}, {elapsed:.1f}s",
    )


def test_criterion_08_operator_suite():
    rng = random.Random(5150)
    ok = True
    for rho in ("0.3", "0.5", "0.9"):
        g = gram(UNIT, SQUARES, 10, 256)
        spec = dilation_operator(SQUARES, rho, 10, 256)
        rep = eigen_check(spec, g)
        ok = ok and rep.adjoint_eigen_ok
        ok = ok and rep.normality_defect > 0 and rep.tail_decay_ok
        bounds = [b for _, b in rep.tail_bounds]
        ok = ok and all(b < a for a, b in zip(bounds, bounds[1:]))
        with workbits(g.precision_bits):
            q = 2 * spec.rho / (1 + spec.rho)
            ok = ok and all(b / a <= q for a, b in zip(bounds, bounds[1:]))
    with workbits(256):
        coeffs = tuple(mp.mpf(rng.uniform(-1, 1)) for _ in range(10))
        s = MuntzSeries(lam_ref=SQUARES, coeffs=coeffs, radius=mp.mpf(1), precision_bits=256)
        spec = dilation_operator(SQUARES, "0.5", 10, 256)
        dilated = apply(spec, s)
        floor = mp.mpf(2) ** (-128)
        for _ in range(100):
            x = mp.mpf(rng.uniform(0, 0.99))
            direct = evaluate(s, x * spec.rho)
            lifted = evaluate(dilated, x)
            ok = ok and abs(lifted - direct) < floor * (1 + abs(direct))
    report(8, "operator eigenstructure, tails, dilation consistency", ok)


def test_criterion_09_christoffel_monotonicity():
    domain_half = build_weighted_domain([("0.5", "1")], [(1, 0)], 256)
    # nested grids (shared spacing) so the rho comparison is a subset max
    rho_grid = [("0.125", 251), ("0.25", 501), ("0.5", 1001)]
    by_rho = [
        christoffel_remez(gram(domain_half, SQUARES, 10, 256), rho, pts)
        for rho, pts in rho_grid
    ]
    mono_rho = all(b >= a for a, b in zip(by_rho, by_rho[1:]))
    by_section = [
        christoffel_remez(gram(domain_half, SQUARES, n, 256), "0.5", 251)
        for n in (2, 4, 6, 8, 10)
    ]
    mono_section = all(b >= a for a, b in zip(by_section, by_section[1:]))
    # recorded contrast: linear exponents grow much faster than squares
    linear = power_exponents(1, 1, 20)
    with workbits(256):
        ratio_sq = christoffel_remez(gram(domain_half, SQUARES, 20, 256), "0.5", 251) / \
            christoffel_remez(gram(domain_half, SQUARES, 10, 256), "0.5", 251)
        ratio_lin = christoffel_remez(gram(domain_half, linear, 20, 256), "0.5", 251) / \
            christoffel_remez(gram(domain_half, linear, 10, 256), "0.5", 251)
    contrast = ratio_lin > ratio_sq
    report(
        9,
        "grid bound constant monotone in N and rho; non-summable control grows faster",
        mono_rho and mono_section and contrast,
        f"c20/c10 squares {mp.nstr(ratio_sq, 4)} vs linear {mp.nstr(ratio_lin, 4)}",
    )


def test_criterion_10_coefficient_convergence():
    # literal config: x is itself the first power of the squares sequence,
    # so every section recovers it exactly and the differences sit at the
    # rounding floor
    f = TargetFunction.pure_power(1, 256)
    flat = coefficient_convergence(gram(UNIT, SQUARES, 10, 256), [2, 4, 6, 8, 10], f)
    with workbits(256):
        floor = mp.mpf(2) ** (-128)
        flat_ok = all(d < floor for d in flat.diffs[0])
        flat_ok = flat_ok and all(
            rel_err(coeffs[0], 1) < REL_30 for _, coeffs in flat.rows
        )
    # squares with the unit power removed: x sits outside every section,
    # and the leading-coefficient updates shrink monotonically
    shifted = explicit_exponents([k * k for k in range(2, 14)])
    table = coefficient_convergence(gram(UNIT, shifted, 10, 256), [2, 4, 6, 8, 10], f)
    diffs = table.diffs[0]
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    report(
        10,
        "leading-coefficient updates flat in-span, strictly decreasing off-span",
        flat_ok and decreasing,
        "diffs " + ", ".join(mp.nstr(d, 3) for d in diffs),
    )
