import importlib
import os
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import (finf, fnan, fninf, fone, from_man_exp, from_rational, fzero, mpf_div,
                          mpf_mul, mpf_neg, mpf_sum, round_nearest)

from muntz import (
    build_weighted_domain,
    christoffel_remez,
    dual_family,
    explicit_exponents,
    gram,
    gram_inverse,
    gram_inverse_column,
    gram_inverse_diagonals,
    hereditary_sweep,
    leading_section,
    leading_sections,
    power_exponents,
    solve_spd,
    to_mpf,
    workbits,
)
from muntz.errors import (
    IndexOutOfRange,
    NotANumber,
    NotPositiveDefinite,
    PrecisionExhausted,
    ValidationError,
)
from muntz.domain import _moments
from muntz.gram import (_append_row, _factored, _grown, _inverse_block, _inverse_cut,
                        _inverse_diagonals, _smallest_eigenvalue, _substitute_forward,
                        _unit_columns, forward_substitution)
from muntz.precision import _dot

from conftest import rel_err
from oracles import gram_every_row
from test_remez_split import TWO_PIECE, assert_pool_stops_clean, open_fds, use_cores

# the package exports the function ``gram`` under the module's name
GRAM_MODULE = importlib.import_module("muntz.gram")
SERIES_MODULE = importlib.import_module("muntz.series")


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
    # exponents this close round to the same value at 64 bits, so the 2x2
    # section is singular there; with the ceiling pinned there, its second
    # pivot fails
    lam = explicit_exponents([Fraction(1), Fraction(1) + Fraction(1, 2**70)])
    with pytest.raises(NotPositiveDefinite):
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
    # at 64 bits linear and sqrt tops of size 12 escalate; the cut, a view
    # of the top's attempt, then equals gram asked for at the top's own
    # width on an empty store
    wd = build_weighted_domain(*pieces)
    lam = power_exponents(*FAMILIES[family], 12)
    top = gram(wd, lam, 12, 64)
    assert (top.precision_bits > 64) == (family != "squares")
    for m in range(1, 13):
        cut = leading_section(top, m)
        ref = _cold(gram, wd, lam, m, top.precision_bits)
        assert cut._attempt is top._attempt and ref._attempt is not top._attempt
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
        got = []
        if not all(_append_row(got, row, bits) for row in rows):
            got = None
    if ref is None:
        assert got is None
    else:
        assert got == [[ref[i, j]._mpf_ for j in range(i + 1)] for i in range(n)]
    try:
        g = gram(wd, lam, n, bits, bits)
    except (NotPositiveDefinite, PrecisionExhausted):
        return
    assert g.entry_rows == rows and g.chol_rows == got


def test_grown_leaves_its_parent_intact():
    # two children grown from one parent share its parts, so growing must
    # copy what it extends: the parent's four lists stay as they were, and
    # each child is bit for bit its own rows factored at once
    bits = 256
    wd = build_weighted_domain(*PIECES[1])
    moment = _moments(wd.pieces, power_exponents(*FAMILIES["squares"], 6).values_at(bits), bits)
    rows = [[moment(i, j) for j in range(i + 1)] for i in range(6)]
    with workbits(bits):
        parent = _factored(rows[:4], bits)
        before = [[list(row) for row in part] for part in parent]
        # the blocks on indices 0..4 and on 0..3 and 5
        children = [_grown(parent, rows[4], bits), _grown(parent, rows[5][:4] + rows[5][5:], bits)]
        assert [[list(row) for row in part] for part in parent] == before
        assert parent == _factored(rows[:4], bits)
        for child in children:
            assert list(child.rows[:4]) == rows[:4]
            assert child == _factored(child.rows, bits)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("pieces", PIECES)
def test_early_stop_gives_the_full_factor_section(pieces, family, bits):
    # an attempt dropped at the row that trips the guard is one the full
    # factor would have rejected, so every section is the reference's
    wd = build_weighted_domain(*pieces)
    lam = power_exponents(*FAMILIES[family], 40)
    for n in (8, 23, 33, 40):
        got, want = gram(wd, lam, n, bits), gram_every_row(wd, lam, n, bits)
        assert got.precision_bits == want.precision_bits
        assert got.cond_estimate == want.cond_estimate
        assert got.lams == want.lams
        assert got.entry_rows == want.entry_rows
        assert got.chol_rows == want.chol_rows


def test_attempt_stops_at_the_row_that_trips_the_guard(unit_domain, monkeypatch):
    # linear exponents on [0, 1]: the 64-bit guard trips at row 9 and a
    # pivot fails at row 15, the 128-bit guard at row 17; 256 bits settle
    factored = []

    def counting(factor, row, prec):
        factored.append(prec)
        return _append_row(factor, row, prec)

    monkeypatch.setattr(GRAM_MODULE, "_append_row", counting)
    g = gram(unit_domain, power_exponents(1, 1, 20), 20, 64)
    assert g.precision_bits == 256
    assert [factored.count(bits) for bits in (64, 128, 256)] == [9, 17, 20]


def test_warm_attempt_appends_only_the_rows_it_lacks(unit_domain, monkeypatch):
    # the attempts of the test above, kept: asked again they append no
    # row; grown to 24 rows, the widths whose guard tripped below 20 are
    # skipped and the one that settled appends rows 21..24
    factored = []

    def counting(factor, row, prec):
        factored.append(prec)
        return _append_row(factor, row, prec)

    monkeypatch.setattr(GRAM_MODULE, "_append_row", counting)
    lam = power_exponents(1, 1, 40)
    cold = gram(unit_domain, lam, 20, 64)
    factored.clear()
    warm = gram(unit_domain, lam, 20, 64)
    assert factored == [] and warm.chol_rows == cold.chol_rows and warm is not cold
    grown = gram(unit_domain, power_exponents(1, 1, 24), 24, 64)
    assert [factored.count(bits) for bits in (64, 128, 256)] == [0, 0, 4]
    assert grown.precision_bits == 256 and grown.chol_rows[:20] == cold.chol_rows


CEILING_CASES = [
    ("linear", 12, 64, 64, PrecisionExhausted),   # guard trips at row 9, no pivot fails
    ("linear", 16, 64, 64, NotPositiveDefinite),  # guard at row 9, then pivot 15 fails
    ("linear", 40, 64, 128, NotPositiveDefinite),  # at 128: guard at row 17, pivot 29
    ("sqrt", 16, 128, 128, PrecisionExhausted),
    ("sqrt", 23, 128, 128, NotPositiveDefinite),
    ("squares", 40, 64, 128, PrecisionExhausted),
]


@pytest.mark.parametrize("family, n, bits, ceiling, error", CEILING_CASES)
def test_ceiling_error_as_the_full_factor_judges(unit_domain, family, n, bits, ceiling,
                                                 error):
    # at the ceiling every row is factored, so a pivot that fails after
    # the guard tripped still makes the error NotPositiveDefinite
    lam = power_exponents(*FAMILIES[family], n)
    with pytest.raises(error) as got:
        gram(unit_domain, lam, n, bits, ceiling)
    with pytest.raises(error) as want:
        gram_every_row(unit_domain, lam, n, bits, ceiling)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("first", ["smaller", "larger"])
@pytest.mark.parametrize("family, n, bits, ceiling, error", CEILING_CASES)
def test_warm_ceiling_error_as_the_full_factor_judges(unit_domain, family, n, bits, ceiling,
                                                      error, first):
    # the same cases with the attempts of a smaller or a larger section,
    # at the same widths and ceiling, already stored
    lam = power_exponents(*FAMILIES[family], n + 8)
    try:
        gram(unit_domain, lam, n // 2 if first == "smaller" else n + 8, bits, ceiling)
    except (NotPositiveDefinite, PrecisionExhausted):
        pass
    with pytest.raises(error) as got:
        gram(unit_domain, lam, n, bits, ceiling)
    with pytest.raises(error) as want:
        gram_every_row(unit_domain, lam, n, bits, ceiling)
    assert str(got.value) == str(want.value)


def _outcome(wd, lam, n, bits, ceiling):
    """What ``gram`` gives, as raw values with the cut of its stored L^-1,
    or the type and message it raises."""
    try:
        g = gram(wd, lam, n, bits, ceiling)
    except (NotPositiveDefinite, PrecisionExhausted) as exc:
        return type(exc), str(exc)
    assert g.lam is lam and g.domain is wd
    return (g.entry_rows, g.chol_rows, g.cond_estimate._mpf_, g.precision_bits,
            [v._mpf_ for v in g.lams], _inverse_cut(g))


def _cold(call, *args):
    """``call(*args)`` with no attempt stored, the stored ones put back after."""
    kept = GRAM_MODULE._ATTEMPTS.copy()
    GRAM_MODULE._ATTEMPTS.clear()
    try:
        return call(*args)
    finally:
        GRAM_MODULE._ATTEMPTS.clear()
        GRAM_MODULE._ATTEMPTS.update(kept)


# the benchmark's domain x family cells, and a weighted one-piece domain
# whose weight is so small that a pivot falls below 2**(1 - P) before the
# guard trips: for linear exponents at row 10 of 128 bits
TINY_WEIGHT = ([(0, "1.5")], [("1e-30", "0.5")])
STORE_CELLS = [(pieces, family) for pieces in PIECES + [TINY_WEIGHT]
               for family in sorted(FAMILIES)]


def test_a_pivot_that_fails_before_the_guard_stops_its_own_size():
    # linear exponents on the tiny weight: at 128 bits the 10th pivot
    # fails with the guard untripped, so 9 rows settle there and 10 do not
    wd = build_weighted_domain(*TINY_WEIGHT)
    lam = power_exponents(1, 1, 40)
    for n in (10, 9, 10, 40, 9, 1):
        assert _outcome(wd, lam, n, 128, 128) == _cold(_outcome, wd, lam, n, 128, 128)
    assert gram(wd, lam, 9, 128, 128).precision_bits == 128
    with pytest.raises(NotPositiveDefinite):
        gram(wd, lam, 10, 128, 128)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(range(len(STORE_CELLS))), st.integers(1, 40),
                          st.sampled_from([64, 128, 256]), st.integers(0, 3),
                          st.integers(0, 8)),
                min_size=1, max_size=8))
def test_stored_attempts_give_what_a_cold_gram_gives(requests):
    # any sequence of requests, each on newly built inputs, gets from the
    # store what an empty store gives, rows, estimate, width, exponents
    # and errors alike; the ceiling is 1, 2, 4 or 8 times the width
    GRAM_MODULE._ATTEMPTS.clear()
    for cell, n, bits, doublings, spare in requests:
        pieces, family = STORE_CELLS[cell]
        wd = build_weighted_domain(*pieces)
        lam = power_exponents(*FAMILIES[family], n + spare)
        args = (wd, lam, n, bits, bits << doublings)
        got = _outcome(*args)
        assert len(GRAM_MODULE._ATTEMPTS) <= GRAM_MODULE.MAX_STORED_ATTEMPTS
        assert got == _cold(_outcome, *args)
        if len(got) > 2:
            # column j of the cut is the forward solve of e_j, from entry j
            chol_rows, width, cut = got[1], got[3], got[-1]
            units = [[fone if i == j else fzero for i in range(n)] for j in range(n)]
            assert cut == [_reference_forward(chol_rows, e, width)[j:]
                           for j, e in enumerate(units)]


def test_the_benchmark_systems_stay_stored(monkeypatch):
    # the six systems of the benchmark's two domains and three families at
    # N = 40 hold ten attempts, as linear and sqrt escalate to 512 bits;
    # the store keeps every attempt, so a second pass assembles no row
    factored = []

    def counting(factor, row, prec):
        factored.append(prec)
        return _append_row(factor, row, prec)

    monkeypatch.setattr(GRAM_MODULE, "_append_row", counting)
    systems = [(build_weighted_domain(*pieces), power_exponents(*FAMILIES[family], 40))
               for pieces in PIECES for family in sorted(FAMILIES)]
    for wd, lam in systems:
        gram(wd, lam, 40, 256, 4096)
    assert len(GRAM_MODULE._ATTEMPTS) == 10
    assert factored
    factored.clear()
    for wd, lam in systems:
        gram(wd, lam, 40, 256, 4096)
    assert factored == []


def test_a_section_outlives_its_store_slot(two_piece_domain):
    # g's attempt is pushed out of the store by as many others as it
    # holds; g still reads its own attempt, and gives what a cold store
    # gives
    lam = power_exponents(1, "0.5", 12)
    g = gram(two_piece_domain, lam, 12)
    (key,) = GRAM_MODULE._ATTEMPTS
    for k in range(GRAM_MODULE.MAX_STORED_ATTEMPTS):
        gram(two_piece_domain, explicit_exponents([k + 1]), 1)
    assert key not in GRAM_MODULE._ATTEMPTS
    cold = _cold(gram, two_piece_domain, lam, 12)
    assert cold._attempt is not g._attempt
    assert g.entry_rows == cold.entry_rows and g.chol_rows == cold.chol_rows
    assert g.cond_estimate._mpf_ == cold.cond_estimate._mpf_ and g.lams == cold.lams
    assert _inverse_cut(g) == _inverse_cut(cold)
    assert dual_family(g) == dual_family(cold)


def test_the_least_recently_used_attempt_is_dropped(unit_domain, monkeypatch):
    # one bound over every attempt, whatever its system or width: through
    # a store of four, two widths of one system interleaved with four
    # other systems keep the width asked again and drop the oldest ones
    monkeypatch.setattr(GRAM_MODULE, "MAX_STORED_ATTEMPTS", 4)
    lam = power_exponents(1, 2, 4)
    others = [explicit_exponents([k + 1]) for k in range(4)]
    for system, bits in [(lam, 64), (lam, 128), (others[0], 256), (lam, 64),
                         *((other, 256) for other in others[1:])]:
        gram(unit_domain, system, len(system), bits, bits)
    assert list(GRAM_MODULE._ATTEMPTS) == [
        (unit_domain.pieces, GRAM_MODULE._exponent_identity(system), bits)
        for system, bits in [(lam, 64), *((other, 256) for other in others[1:])]]


def test_an_attempt_whose_extension_raises_is_dropped(unit_domain, monkeypatch):
    # an attempt is out of the store while it is extended, so an attempt
    # of four rows interrupted at its seventh leaves no rows behind
    lam = power_exponents(1, 2, 8)
    gram(unit_domain, lam, 4)
    factored = []

    def interrupted(factor, row, prec):
        if len(factored) == 2:
            raise KeyboardInterrupt
        factored.append(prec)
        return _append_row(factor, row, prec)

    monkeypatch.setattr(GRAM_MODULE, "_append_row", interrupted)
    with pytest.raises(KeyboardInterrupt):
        gram(unit_domain, lam, 8)
    assert list(GRAM_MODULE._ATTEMPTS) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("caller, n", [("dual_family", 20), ("hereditary_sweep", 6),
                                       ("christoffel_remez", 16)])
def test_forking_callers_grow_the_stored_inverse_first(caller, n, monkeypatch):
    # on a cold store each caller grows the section's L^-1 in this process
    # before it hands pieces to the pool's workers, so that the store
    # keeps it; the value is bit for bit the serial one.  The remez grid
    # splits its 1000 points past point 0
    call = {"dual_family": dual_family, "hereditary_sweep": hereditary_sweep,
            "christoffel_remez": lambda g: christoffel_remez(g, "0.9", 1001)}[caller]
    lam = power_exponents(1, "0.5", n)
    use_cores(monkeypatch, 1)
    serial = call(gram(TWO_PIECE, lam, n))
    GRAM_MODULE._ATTEMPTS.clear()
    g = gram(TWO_PIECE, lam, n)
    grown, real_workers = [], SERIES_MODULE._workers

    def workers(count):
        grown.append(len(g._attempt.inverse))
        return real_workers(count)

    monkeypatch.setattr(SERIES_MODULE, "_workers", workers)
    fds = open_fds()
    use_cores(monkeypatch, 2)
    assert call(g) == serial
    assert grown == [n]
    (attempt,) = GRAM_MODULE._ATTEMPTS.values()
    assert attempt.inverse is g._attempt.inverse
    assert_pool_stops_clean(fds)


@pytest.mark.parametrize("sizes", [[], [2, 2], [3, 2], [1, 5], [0, 1]])
def test_leading_sections_rejects_bad_sizes(unit_domain, sizes):
    g = gram(unit_domain, power_exponents(1, 2, 4), 4)
    with pytest.raises(ValidationError):
        leading_sections(g, sizes)


def _exact(raw):
    """The exact rational value of a finite raw mpf."""
    sign, man, exp, _ = raw
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _rounded(value, prec):
    """The exact rational ``value`` rounded once to ``prec`` bits."""
    return from_rational(value.numerator, value.denominator, prec, round_nearest)


def _exact_sum(terms):
    """The exact rational sum of terms m * 2**e given as (m, e): integers
    on the smallest exponent, so no sum of fractions is reduced."""
    terms = [(m, e) for m, e in terms if m]
    if not terms:
        return Fraction(0)
    low = min(e for _, e in terms)
    return Fraction(sum(m << (e - low) for m, e in terms)) * Fraction(2) ** low


def _reference_forward(rows, rhs, prec):
    """L y = rhs with each entry's exact rhs_i - sum_j L_ij y_j rounded
    once, then divided by L_ii with one rounding."""
    y = []
    for i, row in enumerate(rows):
        terms = [(-rhs[i][1] if rhs[i][0] else rhs[i][1], rhs[i][2])]
        terms += [(-a[1] * b[1] if a[0] == b[0] else a[1] * b[1], a[2] + b[2])
                  for a, b in zip(row[:i], y)]
        acc = _exact_sum(terms)
        y.append(mpf_div(_rounded(acc, prec), row[i], prec, round_nearest))
    return y


def _reference_solve(rows, rhs, prec):
    """Both triangular solves, each entry rounded as in ``_reference_forward``."""
    n = len(rows)
    y = _reference_forward(rows, rhs, prec)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = _exact(y[i]) - sum(_exact(rows[j][i]) * _exact(x[j]) for j in range(i + 1, n))
        x[i] = mpf_div(_rounded(acc, prec), rows[i][i], prec, round_nearest)
    return x


def test_forward_substitution_rounds_each_entry_once(two_piece_domain):
    g = gram(two_piece_domain, power_exponents(1, "0.5", 10), 10)
    with workbits(g.precision_bits):
        rhs = [mp.mpf(k + 1) / 3 for k in range(10)]
    want = _reference_forward(g.chol_rows, [v._mpf_ for v in rhs], g.precision_bits)
    assert [v._mpf_ for v in forward_substitution(g, rhs)] == want
    with pytest.raises(ValidationError):
        forward_substitution(g, rhs[:9])


def test_unit_solves_equal_solve_spd(two_piece_domain):
    g = gram(two_piece_domain, power_exponents(1, "0.5", 10), 10)
    prec = g.precision_bits
    inv = gram_inverse(g)
    # the block readers give each column of G^-1 at and below its diagonal
    block, part = _inverse_block(g, range(10)), _inverse_block(g, [1, 4, 7])
    column = _unit_columns(g)
    fulls = []
    for n in range(1, 11):
        with workbits(prec):
            unit = [mp.mpf(1) if i == n - 1 else mp.mpf(0) for i in range(10)]
        full = solve_spd(g, unit)
        fulls.append([v._mpf_ for v in full])
        assert _same(gram_inverse_column(g, n), full)
        assert _same(inv[n - 1], full)
        # the reader stopped at entry n - 1: the same bits from there down
        assert column(n - 1, n - 1) == [fzero] * (n - 1) + fulls[-1][n - 1:]
        assert [block[i][n - 1] for i in range(n - 1, 10)] == fulls[-1][n - 1:]
        assert [len(row) for row in block] == list(range(1, 11))
        # (G^-1)_nn = ||L^-1 e_n||^2, the exact sum of squares rounded once
        y = _reference_forward(g.chol_rows, [v._mpf_ for v in unit], prec)
        want = _rounded(sum(_exact(v) ** 2 for v in y), prec)
        assert gram_inverse_diagonals(g, n, [10])[0]._mpf_ == want
        assert rel_err(gram_inverse_diagonals(g, n, [10])[0], full[n - 1]) < 2.0 ** (-prec // 2)
    assert part == [[fulls[j][i] for j in (1, 4, 7)[:a + 1]] for a, i in enumerate((1, 4, 7))]
    with workbits(prec):
        rhs = [mp.mpf(k + 1) / 3 for k in range(10)]
    want = _reference_solve(g.chol_rows, [v._mpf_ for v in rhs], prec)
    assert [v._mpf_ for v in solve_spd(g, rhs)] == want
    with pytest.raises(IndexOutOfRange):
        gram_inverse_diagonals(g, 11, [10])


# right-hand sides of ints, floats, decimal strings and Fractions
RHS_KINDS = [list(range(1, 11)), [(k + 1) / 3 for k in range(10)],
             [f"0.{k + 1}" for k in range(10)], [Fraction(k + 1, 7) for k in range(10)]]


def test_readers_ignore_the_ambient_width(two_piece_domain):
    # the assembly, the readers, the public solves and the inverse
    # iteration take their width as an argument, not mp.prec: inside
    # workbits(53), where a cold gram escalates from 64 bits and the L^-1
    # is grown, they give the bits they give at P and leave mp.prec as it
    # was.  A right-hand side entry that is not an mpf is rounded at the
    # section's width, and a bool or a non-finite one is not a number
    g = gram(two_piece_domain, power_exponents(1, "0.5", 10), 10)
    prec, idx, sizes = g.precision_bits, [1, 4, 7], [3, 7, 10]

    def cold_escalated():
        cold = _cold(gram, two_piece_domain, power_exponents(1, 1, 20), 20, 64)
        return cold.entry_rows, cold.chol_rows, cold.cond_estimate._mpf_, cold.precision_bits

    def columns():
        column = _unit_columns(g)
        return [column(k) for k in range(10)]

    calls = [cold_escalated, columns, lambda: _inverse_block(g, idx),
             lambda: [[v._mpf_ for v in diags] for diags in _inverse_diagonals(g, sizes, range(10))],
             lambda: _smallest_eigenvalue(_factored(g.entry_rows, prec), prec),
             *(lambda solve=solve, rhs=rhs: [v._mpf_ for v in solve(g, rhs)]
               for solve in (solve_spd, forward_substitution) for rhs in RHS_KINDS)]

    def reads(width):
        got = []
        for call in calls:
            with workbits(width):
                got.append(call())
                assert mp.prec == width
        return got

    got = reads(53)
    assert got[0][-1] > 64
    assert got == reads(prec)
    for rhs in RHS_KINDS:
        assert solve_spd(g, rhs) == solve_spd(g, [to_mpf(v, prec) for v in rhs])
    for solve, bad in product((solve_spd, forward_substitution), (True, "inf")):
        with pytest.raises(NotANumber):
            solve(g, [bad] + [1] * 9)


@pytest.mark.parametrize("family", ["squares", "linear", "sqrt"])
def test_inverse_diagonals_equal_leading_sections(two_piece_domain, family):
    g = gram(two_piece_domain, power_exponents(*FAMILIES[family], 16), 16)
    sizes = [3, 7, 12, 16]
    for n in (1, 3):
        got = gram_inverse_diagonals(g, n, sizes)
        want = [gram_inverse_diagonals(leading_section(g, m), n, [m])[0] for m in sizes]
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
    with pytest.raises(IndexOutOfRange):
        gram_inverse_diagonals(g, 4, sizes)
    with pytest.raises(ValidationError):
        gram_inverse_diagonals(g, 1, [7, 3])


@pytest.mark.parametrize("wd", [build_weighted_domain([(0, 1)], [(1, 0)]), TWO_PIECE],
                         ids=["unit", "two_piece"])
@pytest.mark.parametrize("family", ["squares", "sqrt"])
def test_inverse_diagonals_over_every_index(wd, family):
    # per size m, the reader gives (G_m^-1)_kk for every index k below m,
    # each the one-index read over the sizes that hold k
    g = gram(wd, power_exponents(*FAMILIES[family], 16), 16)
    sizes = [3, 7, 12, 16]
    got = _inverse_diagonals(g, sizes, range(16))
    assert [len(diags) for diags in got] == sizes
    for k in range(16):
        held = [i for i, m in enumerate(sizes) if m > k]
        want = gram_inverse_diagonals(g, k + 1, [sizes[i] for i in held])
        assert [got[i][k]._mpf_ for i in held] == [v._mpf_ for v in want]


def _raw_values(max_exp):
    """Raw mpf values: zeros, and either sign with 1..600 mantissa bits."""
    nonzero = st.builds(lambda sign, man, exp: from_man_exp(-man if sign else man, exp),
                        st.booleans(), st.integers(1, 2 ** 600), st.integers(-max_exp, max_exp))
    return st.one_of(st.just(fzero), nonzero)


@pytest.mark.parametrize("prec", [64, 256, 512])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dot_equals_mpf_sum_of_products(prec, data):
    # vectors drawn, with either sign, from a few values whose exponents
    # may lie past 2 * prec apart, so that terms cancel after mpf_sum's
    # drop branches have dropped others
    pool = data.draw(st.lists(_raw_values(data.draw(st.sampled_from([8, 4 * prec]))),
                              min_size=1, max_size=4))
    values = st.builds(lambda v, flip: mpf_neg(v) if flip else v,
                       st.sampled_from(pool), st.booleans())
    a = data.draw(st.lists(values, max_size=8))
    b = data.draw(st.lists(st.one_of(st.just(fone), values), max_size=8))
    minus = data.draw(st.one_of(st.none(), values))
    terms = [mpf_mul(p, q) for p, q in zip(a, b)]
    if minus is not None:
        terms.append(mpf_neg(minus))
    assert _dot(a, b, prec, minus) == mpf_sum(terms, prec, round_nearest)
    # a zero right-hand side is skipped, as ``gram._residual`` relies on
    assert _dot(a, b, prec, fzero) == _dot(a, b, prec)


def test_dot_drops_and_specials_as_mpf_sum():
    # a term past 2 * prec below the sum, or the sum past 2 * prec below
    # a term, is dropped, and shows when the rest cancels
    one, tiny, huge = fone, from_man_exp(3, -2000), from_man_exp(5, 2000)
    cases = [([one, tiny, mpf_neg(one)], [one] * 3, None), ([tiny, one], [one] * 2, one),
             ([tiny, huge], [one, one], huge), ([finf, one], [fzero, one], None),
             ([one], [one], fninf), ([fnan], [one], one), ([], [], None), ([], [], one)]
    for a, b, minus in cases:
        terms = [mpf_mul(p, q) for p, q in zip(a, b)]
        if minus is not None:
            terms.append(mpf_neg(minus))
        assert _dot(a, b, 64, minus) == mpf_sum(terms, 64, round_nearest)
    assert _dot([one, tiny, mpf_neg(one)], [one] * 3, 64) == fzero


def _inverse_columns(factor, prec):
    """The columns of L^-1 for the raw factor rows of L at ``prec``,
    column j the forward solve of e_j from entry j down."""
    k = len(factor)
    return [_substitute_forward(factor, [fone if i == j else fzero for i in range(k)], prec)[j:]
            for j in range(k)]


def _eigenvalue_args(matrix, bits):
    """The ``_Factor`` of the raw lower rows of an mpf matrix rounded to
    ``bits``, whose L^-1 columns are the forward solves of the unit
    vectors."""
    with workbits(bits):
        rows = [[(+matrix[i, j])._mpf_ for j in range(i + 1)] for i in range(matrix.rows)]
        factor = _factored(rows, bits)
        assert factor.inv_cols == _inverse_columns(factor.chol, bits)
        return factor


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
        got = mp.make_mpf(_smallest_eigenvalue(_eigenvalue_args(hilbert, bits), bits))
    assert rel_err(got, want) < mp.mpf(2) ** (-(bits // 2))


def test_smallest_eigenvalue_repeated():
    # the smallest eigenvalue 1/10 twice: the Kato-Temple gap never opens,
    # so the residual and the inertia check have to end the iteration
    with workbits(320):
        tenth = mp.mpf(1) / 10
        a = _reflected([tenth, tenth, mp.mpf(1) / 2, 1, 2, 3], [1, 2, 3, -1, 2, 5], 320)
        want = min(mp.eigsy(a, eigvals_only=True))
    with workbits(256):
        got = mp.make_mpf(_smallest_eigenvalue(_eigenvalue_args(a, 256), 256))
    assert rel_err(got, Fraction(1, 10)) < mp.mpf(2) ** -128
    assert rel_err(got, want) < mp.mpf(2) ** -128


def test_smallest_eigenvalue_unresolved_cluster_raises():
    # two eigenvalues 2^-100 apart: no step count separates them at 256
    # bits, so the call fails loudly instead of returning an unproven value
    with workbits(256):
        a = _reflected([1 + mp.mpf(2) ** -100, mp.mpf(1), mp.mpf(3)], [1, 2, 3], 256)
        with pytest.raises(PrecisionExhausted):
            _smallest_eigenvalue(_eigenvalue_args(a, 256), 256)


def test_smallest_eigenvalue_diagonally_dominant():
    # eigenvalues 0.9, 0.95 and 1.1: a clustered spectrum, 0.95/0.9 apart
    with workbits(320):
        a = _reflected([mp.mpf("0.9"), mp.mpf("0.95"), mp.mpf("1.1")], [1, 20, 300], 320)
        want = min(mp.eigsy(a, eigvals_only=True))
    with workbits(256):
        got = mp.make_mpf(_smallest_eigenvalue(_eigenvalue_args(a, 256), 256))
    assert rel_err(got, want) < mp.mpf(2) ** -128
