from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from muntz import (
    build_weighted_domain,
    explicit_exponents,
    gram,
    gram_inverse,
    gram_inverse_column,
    gram_inverse_diagonal,
    leading_section,
    leading_sections,
    power_exponents,
    solve_spd,
    workbits,
)
from muntz.errors import (
    IndexOutOfRange,
    NotPositiveDefinite,
    PrecisionExhausted,
    ValidationError,
)
from muntz.domain import _moments
from muntz.gram import _cholesky, _smallest_eigenvalue, forward_substitution

from conftest import rel_err


def test_entries_fixture_unit_interval(unit_domain, lam23):
    entries = gram(unit_domain, lam23, 2).entries()
    want = [[Fraction(1, 5), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 7)]]
    for i in range(2):
        for j in range(2):
            with workbits(320):
                w = mp.mpf(want[i][j].numerator) / want[i][j].denominator
            assert rel_err(entries[i][j], w) < 1e-70


def test_single_entry(unit_domain):
    lam = explicit_exponents([2])
    g = gram(unit_domain, lam, 1)
    assert rel_err(g.entries()[0][0], mp.mpf(1) / 5) < 1e-15  # 1/5 at any precision


def test_scaled_domain_entries(lam23):
    wd = build_weighted_domain([(0, 2)], [(1, 0)])
    entries = gram(wd, lam23, 2).entries()
    want = [[Fraction(32, 5), Fraction(32, 3)], [Fraction(32, 3), Fraction(128, 7)]]
    for i in range(2):
        for j in range(2):
            with workbits(320):
                w = mp.mpf(want[i][j].numerator) / want[i][j].denominator
            assert rel_err(entries[i][j], w) < 1e-70


def test_cauchy_oracle_full_precision(unit_domain):
    # on [0,1] with unit weight the entries are exactly 1/(lam_i+lam_j+1)
    lam = power_exponents(1, 2, 8)
    g = gram(unit_domain, lam, 8)
    entries = g.entries()
    with workbits(g.precision_bits):
        for i in range(8):
            for j in range(8):
                want = 1 / (g.lams[i] + g.lams[j] + 1)
                assert entries[i][j] == want


def test_inverse_columns_fixture(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    c1 = gram_inverse_column(g, 1)
    c2 = gram_inverse_column(g, 2)
    assert rel_err(c1[0], 180) < 1e-70
    assert rel_err(c1[1], -210) < 1e-70
    assert rel_err(c2[0], -210) < 1e-70
    assert rel_err(c2[1], 252) < 1e-70


def test_inverse_single(unit_domain):
    lam = explicit_exponents([2])
    g = gram(unit_domain, lam, 1)
    (c,) = gram_inverse_column(g, 1)
    assert rel_err(c, 5) < 1e-70


def test_inverse_column_index_range(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    with pytest.raises(IndexOutOfRange):
        gram_inverse_column(g, 0)
    with pytest.raises(IndexOutOfRange):
        gram_inverse_column(g, 3)


def test_identity_residual_within_guard(unit_domain):
    lam = power_exponents(1, 2, 10)
    g = gram(unit_domain, lam, 10)
    entries = g.entries()
    with workbits(g.precision_bits):
        guard = mp.mpf(2) ** (-(g.precision_bits // 2))
        for n in range(1, 11):
            col = gram_inverse_column(g, n)
            for i in range(10):
                got = mp.fsum(entries[i][j] * col[j] for j in range(10))
                want = 1 if i == n - 1 else 0
                assert abs(got - want) < guard


def test_precondition_errors(unit_domain, lam23):
    with pytest.raises(ValidationError):
        gram(unit_domain, lam23, 0)
    with pytest.raises(ValidationError):
        gram(unit_domain, lam23, 3)
    with pytest.raises(ValidationError):
        gram(unit_domain, lam23, 2, precision_bits=32)


def test_escalation_raises_at_ceiling(unit_domain):
    # exponents this close make the 2x2 section numerically rank one at
    # 64 bits; with the ceiling pinned there, assembly must give up
    lam = explicit_exponents([Fraction(1), Fraction(1) + Fraction(1, 2**70)])
    with pytest.raises((PrecisionExhausted, NotPositiveDefinite)):
        gram(unit_domain, lam, 2, precision_bits=64, max_precision_bits=64)


def test_escalation_recovers_with_headroom(unit_domain):
    lam = explicit_exponents([Fraction(1), Fraction(1) + Fraction(1, 2**70)])
    g = gram(unit_domain, lam, 2, precision_bits=64, max_precision_bits=1024)
    assert g.precision_bits > 64
    assert g.cond_estimate <= mp.mpf(2) ** (g.precision_bits // 2)


@settings(max_examples=15, deadline=None)
@given(scale=st.fractions(min_value="1/4", max_value=4))
def test_scaling_covariance(scale):
    # on [0,R] the entries pick up R**(lam_i+lam_j+1)
    lam = explicit_exponents([1, 2, 4])
    base = gram(build_weighted_domain([(0, 1)], [(1, 0)]), lam, 3)
    scaled = gram(build_weighted_domain([(0, scale)], [(1, 0)]), lam, 3)
    base_entries, scaled_entries = base.entries(), scaled.entries()
    with workbits(320):
        r = mp.mpf(scale.numerator) / scale.denominator
        for i in range(3):
            for j in range(3):
                want = base_entries[i][j] * r ** (int(lam.values[i]) + int(lam.values[j]) + 1)
                assert rel_err(scaled_entries[i][j], want) < 1e-70


# -- nested sections and unit solves: bit for bit what the direct path gives --

FAMILIES = {"squares": (1, 2), "linear": (1, 1), "sqrt": (1, "0.5")}
PIECES = [
    ([(0, 1)], [(1, 0)]),
    ([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)]),
]


def _same(a, b):
    """Equal as exact values: sequences of mpf or of raw rows."""
    return list(a) == list(b)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("pieces", PIECES)
def test_leading_section_equals_gram(pieces, family):
    # at 64 bits linear and sqrt tops of size 12 escalate; the cut then
    # equals gram asked for at the top's own width
    wd = build_weighted_domain(*pieces)
    lam = power_exponents(*FAMILIES[family], 12)
    top = gram(wd, lam, 12, 64)
    assert (top.precision_bits > 64) == (family != "squares")
    for m in range(1, 13):
        cut = leading_section(top, m)
        ref = gram(wd, lam, m, top.precision_bits)
        assert cut.n == ref.n == m
        assert cut.precision_bits == ref.precision_bits
        assert cut.cond_estimate == ref.cond_estimate
        assert cut.lams == ref.lams
        assert _same(cut.entry_rows, ref.entry_rows)
        assert _same(cut.chol_rows, ref.chol_rows)
    with pytest.raises(ValidationError):
        leading_section(top, 13)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("n", [12, 24, 40])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("pieces", PIECES)
def test_cholesky_equals_mpmath(pieces, family, n, bits):
    # the raw-row factor of the rows ``gram`` assembles is mpmath's, exact
    # value for exact value, and it is refused on exactly the sections
    # mpmath refuses
    wd = build_weighted_domain(*pieces)
    lam = power_exponents(*FAMILIES[family], n)
    moment = _moments(wd.pieces, lam.values_at(bits), bits)
    rows = [[moment(i, j) for j in range(i + 1)] for i in range(n)]
    with workbits(bits):
        full = mp.matrix([[mp.make_mpf(rows[max(i, j)][min(i, j)]) for j in range(n)]
                          for i in range(n)])
        try:
            ref = mp.cholesky(full)
        except ValueError:
            ref = None
        got = _cholesky(rows)
    if ref is None:
        assert got is None
    else:
        assert got == [[ref[i, j]._mpf_ for j in range(i + 1)] for i in range(n)]
    try:
        g = gram(wd, lam, n, bits, bits)
    except (NotPositiveDefinite, PrecisionExhausted):
        return
    assert g.entry_rows == rows and g.chol_rows == got


@pytest.mark.parametrize("sizes", [[], [2, 2], [3, 2], [1, 5], [0, 1]])
def test_leading_sections_rejects_bad_sizes(unit_domain, sizes):
    g = gram(unit_domain, power_exponents(1, 2, 4), 4)
    with pytest.raises(ValidationError):
        leading_sections(g, sizes)


def _mpf_forward(chol_rows, rhs):
    """The forward triangular solve written with plain mpf operators."""
    chol = [[mp.make_mpf(v) for v in row] for row in chol_rows]
    y = [mp.mpf(0)] * len(chol)
    for i in range(len(chol)):
        acc = rhs[i]
        for j in range(i):
            acc -= chol[i][j] * y[j]
        y[i] = acc / chol[i][i]
    return y


def _mpf_solve(chol_rows, rhs):
    """The two triangular solves written with plain mpf operators."""
    n = len(chol_rows)
    chol = [[mp.make_mpf(v) for v in row] for row in chol_rows]
    y = _mpf_forward(chol_rows, rhs)
    x = [mp.mpf(0)] * n
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, n):
            acc -= chol[j][i] * x[j]
        x[i] = acc / chol[i][i]
    return x


def test_forward_substitution_equals_mpf_operators(two_piece_domain):
    g = gram(two_piece_domain, power_exponents(1, "0.5", 10), 10)
    with workbits(g.precision_bits):
        rhs = [mp.mpf(k + 1) / 3 for k in range(10)]
        assert _same(forward_substitution(g, rhs), _mpf_forward(g.chol_rows, rhs))
    with pytest.raises(ValidationError):
        forward_substitution(g, rhs[:9])


def test_unit_solves_equal_solve_spd(two_piece_domain):
    g = gram(two_piece_domain, power_exponents(1, "0.5", 10), 10)
    inv = gram_inverse(g)
    for n in range(1, 11):
        with workbits(g.precision_bits):
            unit = [mp.mpf(1) if i == n - 1 else mp.mpf(0) for i in range(10)]
        full = solve_spd(g, unit)
        assert _same(gram_inverse_column(g, n), full)
        assert _same(inv[n - 1], full)
        assert gram_inverse_diagonal(g, n) == full[n - 1]
    with workbits(g.precision_bits):
        rhs = [mp.mpf(k + 1) / 3 for k in range(10)]
        assert _same(solve_spd(g, rhs), _mpf_solve(g.chol_rows, rhs))
    with pytest.raises(IndexOutOfRange):
        gram_inverse_diagonal(g, 11)


def _eigenvalue_args(matrix, bits):
    """The raw lower rows of an mpf matrix rounded to ``bits``, and their
    Cholesky factor rows."""
    with workbits(bits):
        rows = [[(+matrix[i, j])._mpf_ for j in range(i + 1)] for i in range(matrix.rows)]
        return rows, _cholesky(rows)


def _reflected(diagonal, v, bits):
    """H diag(d) H for the Householder reflection H = I - 2 v v^T / v^T v,
    at ``bits``: a full matrix whose spectrum is exactly d."""
    with workbits(bits):
        n = len(diagonal)
        vv = mp.fsum(x * x for x in v)
        h = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                h[i, j] = (i == j) - 2 * mp.mpf(v[i]) * v[j] / vv
        return h * mp.diag(diagonal) * h


@pytest.mark.parametrize("bits", [128, 256])
def test_smallest_eigenvalue_of_hilbert_matrix(bits):
    with workbits(bits + 64):
        hilbert = mp.hilbert(8)
        want = min(mp.eigsy(hilbert, eigvals_only=True))
    with workbits(bits):
        got = _smallest_eigenvalue(*_eigenvalue_args(hilbert, bits))
    assert rel_err(got, want) < mp.mpf(2) ** (-(bits // 2))


def test_smallest_eigenvalue_repeated():
    # the smallest eigenvalue 1/10 twice: the Kato-Temple gap never opens,
    # so the residual and the inertia check have to end the iteration
    with workbits(320):
        tenth = mp.mpf(1) / 10
        a = _reflected([tenth, tenth, mp.mpf(1) / 2, 1, 2, 3], [1, 2, 3, -1, 2, 5], 320)
        want = min(mp.eigsy(a, eigvals_only=True))
    with workbits(256):
        got = _smallest_eigenvalue(*_eigenvalue_args(a, 256))
    assert rel_err(got, Fraction(1, 10)) < mp.mpf(2) ** -128
    assert rel_err(got, want) < mp.mpf(2) ** -128


def test_smallest_eigenvalue_unresolved_cluster_raises():
    # two eigenvalues 2^-100 apart: no step count separates them at 256
    # bits, so the call fails loudly instead of returning an unproven value
    with workbits(256):
        a = _reflected([1 + mp.mpf(2) ** -100, mp.mpf(1), mp.mpf(3)], [1, 2, 3], 256)
        with pytest.raises(PrecisionExhausted):
            _smallest_eigenvalue(*_eigenvalue_args(a, 256))


def test_smallest_eigenvalue_diagonally_dominant():
    # eigenvalues 0.9, 0.95 and 1.1: a clustered spectrum, 0.95/0.9 apart
    with workbits(320):
        a = _reflected([mp.mpf("0.9"), mp.mpf("0.95"), mp.mpf("1.1")], [1, 20, 300], 320)
        want = min(mp.eigsy(a, eigvals_only=True))
    with workbits(256):
        got = _smallest_eigenvalue(*_eigenvalue_args(a, 256))
    assert rel_err(got, want) < mp.mpf(2) ** -128
