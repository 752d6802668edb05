"""Output checks for benchmark reports.

Two tiers.  A *promise miss* breaks the toolkit's stated contract: an
unexpected exit code, an exception escaping ``cli.run``, a value that
misses the ``2^(-P/2)`` accuracy promise at the precision P the report
says it used, or a promised flag that is false.  Promise misses make the
report count as failed.  A *wrong answer* is further out: a distance off
its closed form by more than ``2^-64``, a non-positive mixed-system
determinant, or output that does not parse.  Wrong answers also make
the run's ``correct`` verdict false.

The closed forms are computed here with mpmath alone, at P + 64 bits,
so no code under test takes part in judging it.
"""

from __future__ import annotations

import csv
import io
import json
from typing import List, Optional, Set, Tuple

from mpmath import mp

# Every config requests 256 bits, so every section ran at 256 bits or
# more.  A distance off by more than a quarter of that is wrong, not
# merely short of the promise.
REQUESTED_BITS = 256
GROSS_BITS = 64

CATEGORIES = ("exit_mismatch", "raised", "oracle_miss", "residual_miss", "flag_miss",
              "nondeterministic")


def _exponents(family: str, count: int):
    beta = {"squares": 2, "linear": 1, "sqrt": mp.mpf(1) / 2}[family]
    return [mp.mpf(n) ** beta for n in range(1, count + 1)]


def _oracle(lams, n: int, section: int):
    """Distance of x^lam_n to the span of the other section powers in
    L2[0, 1]: (2 lam_n + 1)^(-1/2) prod_{k != n} |lam_n - lam_k| / (lam_n + lam_k + 1)."""
    ln = lams[n - 1]
    val = 1 / mp.sqrt(2 * ln + 1)
    for k in range(section):
        if k != n - 1:
            val *= abs(ln - lams[k]) / (ln + lams[k] + 1)
    return val


def _distance_misses(family: str, bits: int, triples) -> Tuple[bool, bool]:
    """(promise missed, grossly wrong) over (n, section, reported) triples.

    ``bits`` is the precision the report says it used.  An N-list report
    gives one figure, the largest any of its sections used, which is the
    largest section's; so only that section is held to ``2^(-bits/2)``,
    and the smaller ones to the promise at the requested precision."""
    miss = gross = False
    top = max(s for _, s, _ in triples)
    with mp.workprec(bits + 64):
        lams = _exponents(family, top)
        for n, section, text in triples:
            want = _oracle(lams, n, section)
            err = abs(mp.mpf(text) - want) / want
            promised = bits if section == top else REQUESTED_BITS
            miss |= err > mp.mpf(2) ** (-(promised / 2))
            gross |= err > mp.mpf(2) ** -GROSS_BITS
    return miss, gross


def _below_floor(values, bits: int) -> bool:
    with mp.workprec(bits + 64):
        return all(abs(mp.mpf(v)) < mp.mpf(2) ** (-(bits / 2)) for v in values)


def _rows(text: str) -> List[List[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["N1", "N2", "det", "min_singular_value", "nonsingular"]:
        raise ValueError("unexpected CSV header")
    return rows[1:]


def _judge_partitions(rows, misses: Set[str]) -> bool:
    """Rows of (N1, N2, det, min_singular_value, nonsingular): the det is a
    principal minor of the inverse Gram matrix, so it must be positive."""
    if not rows:
        return True
    wrong = any(mp.mpf(r[2]) <= 0 for r in rows)
    if wrong or any(r[4] not in (True, "True") for r in rows):
        misses.add("flag_miss")
    return wrong


def _judge_output(rep, text: str, misses: Set[str]) -> bool:
    """Apply the command's checks; returns True when the answer is wrong."""
    if rep.fmt == "csv":
        return _judge_partitions(_rows(text), misses)

    res = json.loads(text)["results"]
    bits = int(res.get("precision_bits_used", 0))
    wrong = False
    if rep.command == "distances" and rep.domain == "unit":
        n = res["n"]
        miss, wrong = _distance_misses(rep.family, bits,
                                       [(n, size, d) for size, d in res["sections"]])
        if miss:
            misses.add("oracle_miss")
    elif rep.command == "duals":
        section = len(res["distances"])
        if rep.domain == "unit":
            miss, wrong = _distance_misses(
                rep.family, bits,
                [(k + 1, section, d) for k, d in enumerate(res["distances"])])
            if miss:
                misses.add("oracle_miss")
        if not _below_floor([res["max_biorthogonality_residual"]], bits):
            misses.add("residual_miss")
    elif rep.command == "moments":
        if not _below_floor(res["residuals"], bits):
            misses.add("residual_miss")
    elif rep.command == "hereditary":
        wrong = _judge_partitions(res["rows"], misses)
    elif rep.command == "operator":
        if not (res["eigen_ok"] and res["adjoint_eigen_ok"]):
            misses.add("flag_miss")
    elif rep.command == "remez":
        wrong = not all(mp.mpf(c) > 0 for _, c in res["rows"])
    return wrong


def judge(rep, code: Optional[int], raised: Optional[str], stdout: str) -> Tuple[Set[str], bool]:
    """Check one report; returns (promise-miss categories, grossly wrong)."""
    misses: Set[str] = set()
    if raised is not None:
        misses.add("raised")
        return misses, False
    if code != rep.expect:
        misses.add("exit_mismatch")
        return misses, False
    if code != 0:
        return misses, False
    try:
        wrong = _judge_output(rep, stdout, misses)
    except (ValueError, KeyError, TypeError, IndexError):
        return misses, True
    return misses, wrong
