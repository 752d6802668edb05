import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import fone, fzero

from muntz import (
    MuntzSeries,
    TargetFunction,
    apply,
    build_moment_data,
    build_weighted_domain,
    christoffel_remez,
    coefficient_convergence,
    convergence_certificate,
    diagonal_operator,
    dilation_operator,
    distance,
    distance_sweep,
    dual_family,
    eigen_check,
    evaluate,
    explicit_exponents,
    finite_sections,
    fmt,
    gram,
    gram_inverse_column,
    hereditary_check,
    hereditary_sweep,
    lower_bound_certificate,
    oracle_distance,
    power_exponents,
    project,
    to_mpf,
    workbits,
)
from muntz.errors import (
    BadPartition,
    BoundViolation,
    DuplicateEigenvalue,
    LengthMismatch,
    NotPositiveDefinite,
    OutsideRadius,
    PrecisionExhausted,
    ValidationError,
    ZeroEigenvalue,
)

import muntz.operator as operator_module
import muntz.series as series_module
from muntz.gram import _factored, _substitute_forward
from conftest import force_sweep_forking, mpf_, rel_err
from oracles import inverse_principal_minor

UNIT = build_weighted_domain([(0, 1)], [(1, 0)])


def test_dilation_multipliers(lam23):
    spec = dilation_operator(lam23, "0.5", 2)
    assert rel_err(spec.u[0], Fraction(1, 4)) < 1e-70
    assert rel_err(spec.u[1], Fraction(1, 8)) < 1e-70


def test_powers_of_rho_and_q_are_the_mpf_powers():
    # one log per base gives rho**lam_n and the tail terms q**lam_n bit for bit
    lam = power_exponents(1, "1/3", 8)
    g = gram(UNIT, lam, 8)
    bits = g.precision_bits
    spec = dilation_operator(lam, "0.7", 8, bits)
    with workbits(bits):
        assert [u._mpf_ for u in spec.u] == [(spec.rho ** v)._mpf_ for v in g.lams]
        q = 2 * spec.rho / (1 + spec.rho)
        powers = [q ** v for v in g.lams[1:]]
        want = [mp.fsum(powers[m:])._mpf_ for m in range(7)]
    assert [t._mpf_ for _, t in eigen_check(spec, g).tail_bounds] == want


def test_duplicate_multiplier_rejected(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    spec = diagonal_operator(["0.25", "0.25"], "0.9")
    with pytest.raises(DuplicateEigenvalue):
        finite_sections(spec, g)


def test_zero_multiplier_rejected(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    spec = diagonal_operator(["0.25", "0"], "0.9")
    with pytest.raises(ZeroEigenvalue):
        finite_sections(spec, g)


def test_bound_violation(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    # rho**lam_1 = 0.25 at rho = 0.5; 0.3 breaks the envelope
    spec = diagonal_operator(["0.3", "0.1"], "0.5")
    with pytest.raises(BoundViolation):
        finite_sections(spec, g)


def test_rho_range():
    lam = explicit_exponents([2, 3])
    with pytest.raises(ValidationError):
        dilation_operator(lam, "1.5", 2)
    with pytest.raises(ValidationError):
        diagonal_operator(["0.1"], "0")


def test_adjoint_matrix_against_exact_arithmetic(unit_domain, lam23):
    # exact rational oracle: G = [[1/5,1/6],[1/6,1/7]], u = (1/4, 1/8)
    # inv(G) * diag(u) * G worked out with Fractions
    gi = [[Fraction(180), Fraction(-210)], [Fraction(-210), Fraction(252)]]
    gm = [[Fraction(1, 5), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 7)]]
    u = [Fraction(1, 4), Fraction(1, 8)]
    du_g = [[u[i] * gm[i][j] for j in range(2)] for i in range(2)]
    want = [
        [sum(gi[i][k] * du_g[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    g = gram(unit_domain, lam23, 2)
    spec = dilation_operator(lam23, "0.5", 2)
    adj = finite_sections(spec, g)
    for i in range(2):
        for j in range(2):
            assert rel_err(adj[i][j], want[i][j]) < 1e-70


def test_eigen_report_all_green(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    spec = dilation_operator(lam23, "0.5", 2)
    rep = eigen_check(spec, g)
    assert rep.adjoint_eigen_ok
    assert rep.normality_defect > 0


def test_adjoint_eigenvector_fixture(unit_domain, lam23):
    # inv(G) diag(u) G applied to the first dual column scales it by u_1
    g = gram(unit_domain, lam23, 2)
    spec = dilation_operator(lam23, "0.5", 2)
    adj = finite_sections(spec, g)
    col = gram_inverse_column(g, 1)
    with workbits(g.precision_bits):
        got = [mp.fsum(adj[i][j] * col[j] for j in range(2)) for i in range(2)]
        for gi, ci in zip(got, col):
            assert rel_err(gi, ci / 4) < 1e-70


def test_tail_bounds_decay(unit_domain):
    lam = power_exponents(1, 2, 8)
    g = gram(unit_domain, lam, 8)
    for rho in ("0.3", "0.5", "0.9"):
        spec = dilation_operator(lam, rho, 8)
        rep = eigen_check(spec, g)
        assert rep.tail_decay_ok
        bounds = [b for _, b in rep.tail_bounds]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        with workbits(g.precision_bits):
            q = 2 * spec.rho / (1 + spec.rho)
            for a, b in zip(bounds, bounds[1:]):
                assert b / a <= q


def test_apply_fixtures(lam23):
    with workbits(256):
        s = MuntzSeries(lam_ref=lam23, coeffs=(mp.mpf(1), mp.mpf(1)), radius=mp.mpf(1), precision_bits=256)
    spec = dilation_operator(lam23, "0.5", 2)
    out = apply(spec, s)
    assert rel_err(out.coeffs[0], Fraction(1, 4)) < 1e-70
    assert rel_err(out.coeffs[1], Fraction(1, 8)) < 1e-70
    with workbits(256):
        zero = MuntzSeries(lam_ref=lam23, coeffs=(mp.mpf(0), mp.mpf(0)), radius=mp.mpf(1), precision_bits=256)
    assert all(c == 0 for c in apply(spec, zero).coeffs)


def test_apply_length_mismatch(lam23):
    with workbits(256):
        s = MuntzSeries(lam_ref=lam23, coeffs=(mp.mpf(1), mp.mpf(1)), radius=mp.mpf(1), precision_bits=256)
    spec = diagonal_operator(["0.25"], "0.5")
    with pytest.raises(LengthMismatch):
        apply(spec, s)


def test_dilation_consistency_pointwise(unit_domain):
    lam = power_exponents(1, 2, 6)
    rng = random.Random(11)
    with workbits(256):
        coeffs = tuple(mp.mpf(rng.uniform(-1, 1)) for _ in range(6))
        s = MuntzSeries(lam_ref=lam, coeffs=coeffs, radius=mp.mpf(1), precision_bits=256)
    spec = dilation_operator(lam, "0.5", 6)
    out = apply(spec, s)
    with workbits(256):
        for _ in range(25):
            x = mp.mpf(rng.uniform(0, 0.98))
            direct = evaluate(s, x * mp.mpf("0.5"))
            lifted = evaluate(out, x)
            assert abs(lifted - direct) < mp.mpf(2) ** (-128) * (1 + abs(direct))


def test_mixed_fixtures(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    rep = hereditary_check(g, ([1], [2]))
    assert rel_err(rep.mixed_matrix_det, 252) < 1e-70
    assert rep.nonsingular
    rep_id = hereditary_check(g, ([1, 2], []))
    assert rel_err(rep_id.mixed_matrix_det, 1) < 1e-70
    rep_inv = hereditary_check(g, ([], [1, 2]))
    assert rel_err(rep_inv.mixed_matrix_det, 1260) < 1e-70


def test_mixed_det_equals_inverse_minor(unit_domain):
    lam = power_exponents(1, 2, 6)
    g = gram(unit_domain, lam, 6)
    rng = random.Random(3)
    for _ in range(12):
        n2 = tuple(i for i in range(1, 7) if rng.random() < 0.5)
        n1 = tuple(i for i in range(1, 7) if i not in n2)
        rep = hereditary_check(g, (n1, n2))
        want = inverse_principal_minor(g, n2)
        assert rel_err(rep.mixed_matrix_det, want) < 1e-60
        assert rep.mixed_matrix_det > 0
        assert rep.nonsingular


def test_hundred_random_partitions_at_n12():
    lam = power_exponents(1, 2, 12)
    g = gram(UNIT, lam, 12)
    rng = random.Random(99)
    seen = set()
    while len(seen) < 100:
        seen.add(rng.randrange(2 ** 12))
    for mask in sorted(seen):
        n2 = tuple(i + 1 for i in range(12) if mask & (1 << i))
        n1 = tuple(i + 1 for i in range(12) if i + 1 not in n2)
        rep = hereditary_check(g, (n1, n2))
        assert rep.nonsingular
        assert rep.mixed_matrix_det > 0


def test_bad_partition(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    with pytest.raises(BadPartition):
        hereditary_check(g, ([1], [1, 2]))
    with pytest.raises(BadPartition):
        hereditary_check(g, ([1], []))
    with pytest.raises(BadPartition):
        hereditary_check(g, ([1, 2], [3]))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_gram_form_adjoint_identity(seed):
    # <M x, y>_G == <x, M_adj y>_G for random coordinate vectors
    rng = random.Random(seed)
    lam = power_exponents(1, 2, 5)
    g = gram(UNIT, lam, 5)
    spec = dilation_operator(lam, "0.7", 5)
    adj = mp.matrix(finite_sections(spec, g))
    with workbits(g.precision_bits):
        m_mat = mp.diag(spec.u[:5])
        x = mp.matrix([mp.mpf(rng.uniform(-1, 1)) for _ in range(5)])
        y = mp.matrix([mp.mpf(rng.uniform(-1, 1)) for _ in range(5)])
        gm = mp.matrix(g.entries())
        lhs = ((m_mat * x).T * gm * y)[0, 0]
        rhs = (x.T * gm * (adj * y))[0, 0]
        assert abs(lhs - rhs) < mp.mpf(2) ** (-(g.precision_bits // 2))



TWO_PIECE = build_weighted_domain([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)])
FAMILIES = {"squares": (1, 2), "linear": (1, 1), "sqrt": (1, Fraction(1, 2))}


def _oracle_min_singular_values(g, partitions):
    """sqrt(lambda_min) of diag(S G[N1,N1] S, S C[N2,N2] S), S = diag**(-1/2)
    of each block, with C = G^-1 from mpmath's own inverse of the entries
    and the spectrum from mp.eigsy, both at P + 64 bits."""
    out = []
    with workbits(g.precision_bits + 64):
        entries = mp.matrix(g.entries())
        inv = mp.inverse(entries)
        for n1, n2 in partitions:
            order = [(i, entries) for i in n1] + [(j, inv) for j in n2]
            mixed = mp.matrix(g.n, g.n)
            for a, (i, m) in enumerate(order):
                for b, (j, m2) in enumerate(order):
                    if m is m2:
                        mixed[a, b] = m[i - 1, j - 1] / mp.sqrt(m[i - 1, i - 1] * m[j - 1, j - 1])
            out.append(mp.sqrt(min(mp.eigsy(mixed, eigvals_only=True))))
    return out


def _split(mask, n):
    n2 = tuple(i + 1 for i in range(n) if mask & (1 << i))
    return tuple(i + 1 for i in range(n) if i + 1 not in n2), n2


@pytest.mark.parametrize("domain", ["unit", "two_piece"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_min_singular_value_against_eigsy_oracle(domain, family):
    # every partition at N = 2, 3 (where a small block is not hidden by a
    # smaller one) and 6, plus 7 sampled at N = 12: 42 over the six cells
    wd = {"unit": UNIT, "two_piece": TWO_PIECE}[domain]
    lam = power_exponents(*FAMILIES[family], 12)
    rng = random.Random(f"{domain}-{family}")
    sizes = [(n, range(2 ** n)) for n in (2, 3, 6)] + [(12, rng.sample(range(2 ** 12), 7))]
    for n, masks in sizes:
        g = gram(wd, lam, n)
        parts = [_split(mask, n) for mask in masks]
        reports = [hereditary_check(g, p) for p in parts]
        for rep, want in zip(reports, _oracle_min_singular_values(g, parts)):
            assert rel_err(rep.min_singular_value, want) < mpf_(2) ** (-(g.precision_bits // 2))
            assert rep.nonsingular


@pytest.mark.parametrize("domain", ["unit", "two_piece"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sweep_rows_equal_single_checks(domain, family):
    # 128 rows per cell, 768 over the six: the sweep's inverse columns are
    # bit for bit the ones hereditary_check solves for, and each block
    # grown from its parent subset is the one folded over its indices
    wd = {"unit": UNIT, "two_piece": TWO_PIECE}[domain]
    g = gram(wd, power_exponents(*FAMILIES[family], 7), 7)
    for rep in hereditary_sweep(g):
        one = hereditary_check(g, (rep.n1, rep.n2))
        assert rep.mixed_matrix_det == one.mixed_matrix_det
        assert rep.min_singular_value == one.min_singular_value
        assert rep.nonsingular == one.nonsingular


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grown_block_equals_factoring_from_scratch(family):
    # a block grown one index at a time has the factor, L^-1 (the forward
    # solves of the unit vectors) and the determinant products that
    # factoring its rows at once gives
    g = gram(TWO_PIECE, power_exponents(*FAMILIES[family], 8), 8)
    rng = random.Random(family)
    with workbits(g.precision_bits):
        prec = mp.prec
        scaled, diag = operator_module._jacobi_scaled(g.entry_rows, prec)
        for _ in range(6):
            idx = sorted(rng.sample(range(8), rng.randint(1, 8)))
            rows = [[scaled[i][j] for j in idx[:a + 1]] for a, i in enumerate(idx)]
            block = operator_module._EMPTY
            for a, i in enumerate(idx):
                block = operator_module._grow(block, rows[a], diag[i], prec)
            factor, squares, diagonals = block
            chol = _factored(rows, prec).chol
            assert factor.rows == rows
            assert factor.chol == chol
            k = len(idx)
            cols = [_substitute_forward(chol, [fone if i == j else fzero for i in range(k)],
                                        prec)[j:] for j in range(k)]
            assert factor.inv_cols == cols
            assert factor.inv_rows == [[col[i - j] for j, col in enumerate(cols[:i + 1])]
                                       for i in range(k)]
            assert squares == mp.fprod(mp.make_mpf(r[a]) ** 2 for a, r in enumerate(chol))._mpf_
            assert diagonals == mp.fprod(mp.make_mpf(diag[i]) for i in idx)._mpf_


def _block_key(rows):
    return tuple(map(tuple, rows))


def _first_check_error(g):
    """The type and message of the error hereditary_check raises on the
    first partition, in increasing mask order, that raises one."""
    for mask in range(2 ** g.n):
        try:
            hereditary_check(g, _split(mask, g.n))
        except (NotPositiveDefinite, PrecisionExhausted) as exc:
            return type(exc), str(exc)
    return None


def _sweep_error(g):
    try:
        hereditary_sweep(g)
    except (NotPositiveDefinite, PrecisionExhausted) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", range(8))
def test_sweep_raises_the_first_failing_partition_error(seed, monkeypatch):
    # blocks chosen at random fail in _smallest_eigenvalue; the sweep,
    # which computes every block before it reports, must raise what
    # hereditary_check over increasing masks raises first, the N1
    # block's error before the N2 block's
    g = gram(UNIT, power_exponents(1, 2, 4), 4)
    original = operator_module._smallest_eigenvalue
    blocks = []

    def recording(a, prec):
        blocks.append(_block_key(a.rows))
        return original(a, prec)

    monkeypatch.setattr(operator_module, "_smallest_eigenvalue", recording)
    for mask in range(2 ** 4):
        hereditary_check(g, _split(mask, 4))
    # two blocks per partition but mask 0 and 15; blocks with the same rows
    # (the scaled 1x1 blocks are all [[1]]) fail together
    assert len(blocks) == 2 * (2 ** 4 - 1)
    distinct = sorted(set(blocks), key=blocks.index)

    rng = random.Random(seed)
    errors = (NotPositiveDefinite, PrecisionExhausted)
    failing = {key: (rng.choice(errors), f"forced on block {n}")
               for n, key in enumerate(rng.sample(distinct, rng.randint(1, 4)))}
    if seed == 0:   # both 2x2 blocks of mask 5: the N1 block's error wins
        failing = {blocks[9]: (PrecisionExhausted, "N1 block"),
                   blocks[10]: (NotPositiveDefinite, "N2 block")}

    def failing_on_chosen(a, prec):
        if _block_key(a.rows) in failing:
            error, message = failing[_block_key(a.rows)]
            raise error(message)
        return original(a, prec)

    monkeypatch.setattr(operator_module, "_smallest_eigenvalue", failing_on_chosen)
    want = _first_check_error(g)
    assert want is not None
    assert _sweep_error(g) == want
    if seed == 0:
        assert want == (PrecisionExhausted, "N1 block")
    # forked, a child's error comes back with its type and message
    for cores in (2, 3, 4):
        force_sweep_forking(monkeypatch, cores)
        assert _sweep_error(g) == want, cores


def test_sweep_raises_the_check_error_when_a_block_does_not_factor(unit_domain, monkeypatch):
    # G[{2,3},{2,3}] indefinite: every N1 block holding both fails, the
    # 3x3 of mask 0 first
    g = gram(unit_domain, power_exponents(1, 2, 3), 3)
    with workbits(g.precision_bits):
        rows = [list(row) for row in g.entry_rows]
        rows[2][1] = (2 * mp.sqrt(mp.make_mpf(rows[1][1]) * mp.make_mpf(rows[2][2])))._mpf_
    bad = replace(g, _attempt=replace(g._attempt, entry_rows=rows))
    want = _first_check_error(bad)
    assert want == (NotPositiveDefinite, "a 3x3 mixed-system block does not factor")
    assert _sweep_error(bad) == want
    for cores in (2, 3, 4):
        force_sweep_forking(monkeypatch, cores)
        assert _sweep_error(bad) == want, cores


def _report_bits(reports):
    return [(r.n1, r.n2, r.mixed_matrix_det._mpf_, r.min_singular_value._mpf_, r.nonsingular)
            for r in reports]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("domain", ["unit", "two_piece"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_forked_sweep_equals_serial_bits(domain, family, monkeypatch):
    # 2N subtree tasks over 2, 3 and 4 processes, one task each allowed
    wd = {"unit": UNIT, "two_piece": TWO_PIECE}[domain]
    lam = power_exponents(*FAMILIES[family], 7)
    for n in (1, 2, 7):
        g = gram(wd, lam, n)
        force_sweep_forking(monkeypatch, 1)
        serial = _report_bits(hereditary_sweep(g))
        assert len(serial) == 2 ** n
        for cores in (2, 3, 4):
            force_sweep_forking(monkeypatch, cores)
            assert _report_bits(hereditary_sweep(g)) == serial, (n, cores)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_sweep_raises_the_child_error(monkeypatch):
    # every 2x2 block fails in whichever process computes it, named by its
    # off-diagonal entry; the first failing partition is mask 3, whose N1
    # block {3, 4} is powers task 2, in whichever piece a process claims.
    # A worker leaves a piece with an error out of its reply and it is
    # recomputed here, so the raised error is the serial sweep's; the
    # pool's workers, forked after the patch, stay alive through it
    g = gram(UNIT, power_exponents(1, 2, 4), 4)
    original = operator_module._smallest_eigenvalue

    def failing_on_pairs(a, prec):
        if len(a.rows) == 2:
            raise PrecisionExhausted(f"2x2 block {mp.make_mpf(a.rows[1][0])}")
        return original(a, prec)

    monkeypatch.setattr(operator_module, "_smallest_eigenvalue", failing_on_pairs)
    force_sweep_forking(monkeypatch, 1)
    want = _sweep_error(g)
    assert want == _first_check_error(g)
    assert want[0] is PrecisionExhausted and want[1].startswith("2x2 block ")
    for cores in (2, 3, 4):
        force_sweep_forking(monkeypatch, cores)
        assert _sweep_error(g) == want, cores
        assert len(series_module._POOL) == cores - 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_sweep_recomputes_a_failed_child(monkeypatch):
    # a worker whose tasks raise anything but a NumericalError leaves the
    # piece out of its reply, and its tasks run again here; it stays in
    # the pool
    g = gram(TWO_PIECE, power_exponents(1, 1, 5), 5)
    force_sweep_forking(monkeypatch, 1)
    serial = _report_bits(hereditary_sweep(g))
    original, parent = operator_module._smallest_eigenvalue, os.getpid()

    def failing_in_children(a, prec):
        if os.getpid() != parent:
            raise RuntimeError("child")
        return original(a, prec)

    monkeypatch.setattr(operator_module, "_smallest_eigenvalue", failing_in_children)
    for cores in (2, 4):
        force_sweep_forking(monkeypatch, cores)
        assert _report_bits(hereditary_sweep(g)) == serial, cores
        assert len(series_module._POOL) == cores - 1


def _raw(value):
    """The raw mpfs in a nest of lists, tuples, dicts and reports, the
    rest as it is."""
    if hasattr(value, "_mpf_"):
        return value._mpf_
    if isinstance(value, dict):
        value = sorted(value.items())
    elif hasattr(value, "__dataclass_fields__"):
        value = [getattr(value, name) for name in value.__dataclass_fields__]
    elif not isinstance(value, (list, tuple)):
        return value
    return [_raw(v) for v in value]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_factor_consumers_ignore_the_ambient_width(monkeypatch):
    # the operator checks, the hereditary blocks, the three forked
    # callers, the distance, series and moment glue, the exponents and
    # fmt take their width as an argument, not mp.prec: inside
    # workbits(53) they give the bits they give at P, forked children
    # included, and leave mp.prec as it was.  Signed data and
    # coefficients that are not 53-bit values catch a unary abs() or a
    # difference rounded at the ambient width
    import muntz.duals as duals_module

    lam = power_exponents(1, "1/2", 7)
    g = gram(TWO_PIECE, lam, 7)
    prec = g.precision_bits
    spec = dilation_operator(lam, "0.7", 7, prec)
    # u_n / 2: Tf and f(rho x) differ in their leading bits, so |Tf - f|
    # rounded at another width would read differently
    halved = diagonal_operator([mp.ldexp(u, -1) for u in spec.u], "0.7", prec)
    series = MuntzSeries(lam, tuple(to_mpf(Fraction(k + 1, 3), prec) for k in range(7)),
                         mpf_(1), prec)
    force_sweep_forking(monkeypatch, 2)
    monkeypatch.setattr(series_module, "_MIN_CHUNK_PRODUCTS", 1)
    monkeypatch.setattr(duals_module, "_MIN_CHUNK_COLUMNS", 1)
    scaled, diag = operator_module._jacobi_scaled(g.entry_rows, prec)
    idx = (1, 3, 4)
    block = [[g.entry_rows[i][j] for j in idx[:a + 1]] for a, i in enumerate(idx)]
    target = TargetFunction.muntz_combo(series)
    data = ["1", "-1/3", "0.1", "-0.7", "0", "2/7"]

    def sweep():
        report = distance_sweep(g, [3, 5, 7], 2, "0.01")
        return report, report.exponent_slopes(), lower_bound_certificate(report, "0.1")

    def outside():
        # the message prints x and the radius to the digits of P
        with pytest.raises(OutsideRadius) as exc:
            evaluate(series, "1.1")
        return str(exc.value)

    def moments():
        moment_data = build_moment_data(TWO_PIECE, lam, data, prec)
        return moment_data, convergence_certificate(g, [2, 4, 6], moment_data)

    calls = [lambda: hereditary_check(g, ([1, 3, 4], [2, 5, 6, 7])),
             lambda: hereditary_sweep(g),
             lambda: eigen_check(spec, g),
             lambda: finite_sections(spec, g),
             lambda: apply(spec, series),
             lambda: operator_module.apply_demo(spec, g),
             lambda: operator_module.apply_demo(halved, g),
             lambda: christoffel_remez(g, "0.9", 101),
             lambda: dual_family(g),
             lambda: operator_module._block_spectrum(block, prec),
             lambda: operator_module._subtree_spectra(scaled, diag, 2, prec),
             lambda: evaluate(series, "0.3"),
             lambda: project(g, TargetFunction.pure_power("2.5", prec)),
             lambda: coefficient_convergence(g, [3, 5, 7], target),
             lambda: distance(g, 3),
             lambda: oracle_distance(lam, 3, 7, prec),
             sweep, moments, outside,
             lambda: power_exponents(1, "1/2", 7, prec),
             lambda: [fmt(2 ** 70 + 1, prec), fmt("0.1", prec)]]

    def reads(width):
        got = []
        for call in calls:
            with workbits(width):
                got.append(_raw(call()))
                assert mp.prec == width
        return got

    assert reads(53) == reads(prec)


@settings(max_examples=5, deadline=None)
@given(cuts=st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=4,
                     unique=True),
       weights=st.lists(st.tuples(st.integers(1, 3), st.sampled_from(["0", "1/2", "1"])),
                        min_size=2, max_size=2),
       family=st.sampled_from(sorted(FAMILIES)))
def test_worst_partition_is_all_powers_or_all_duals(cuts, weights, family):
    # by Cauchy interlacing each Jacobi-scaled block is a principal block
    # of S G S or of T G^-1 T, so no partition sits below both extremes
    # by more than rounding
    ends = sorted(Fraction(c, 10) for c in cuts)
    intervals = list(zip(ends[::2], ends[1::2]))
    wd = build_weighted_domain(intervals, weights[:len(intervals)])
    g = gram(wd, power_exponents(*FAMILIES[family], 6), 6)
    reports = hereditary_sweep(g)
    worst = min(reports[0].min_singular_value, reports[-1].min_singular_value)
    smallest = min(rep.min_singular_value for rep in reports)
    assert rel_err(smallest, worst) < mpf_(2) ** (-(g.precision_bits // 2))


def test_block_that_does_not_factor_raises(unit_domain, lam23):
    # entries 1, 2, 1 make G[N1,N1] indefinite: no singular value comes back
    g = gram(unit_domain, lam23, 2)
    with workbits(g.precision_bits):
        rows = [[mp.mpf(1)._mpf_], [mp.mpf(2)._mpf_, mp.mpf(1)._mpf_]]
        bad = replace(g, _attempt=replace(g._attempt, entry_rows=rows))
    with pytest.raises(NotPositiveDefinite):
        hereditary_check(bad, ([1, 2], []))
    assert hereditary_check(bad, ([], [1, 2])).nonsingular


def test_nearly_orthogonal_powers_settle():
    # exponents 1, 1000 and 10^6 are nearly orthogonal: the scaled block is
    # close to the identity, its spectrum clustered, and only the Gershgorin
    # shift lets inverse iteration settle within its step cap
    g = gram(UNIT, explicit_exponents([1, 1000, 10 ** 6]), 3)
    parts = [_split(mask, 3) for mask in range(2 ** 3)]
    for p, want in zip(parts, _oracle_min_singular_values(g, parts)):
        rep = hereditary_check(g, p)
        assert rel_err(rep.min_singular_value, want) < mpf_(2) ** (-(g.precision_bits // 2))
