"""Source-level rules of the library."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "muntz"

# dense mpmath linear algebra: the library works on raw triangular rows
DENSE = re.compile(r"\b(?:mp|mpmath)\.(?:matrix|det|cholesky|svd\w*|inverse)\b")


def test_no_dense_mpmath_in_library():
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if DENSE.search(line)]
    assert hits == []


# a sum of products rounded per term, or summed from a list of products
ROUNDED_MAC = re.compile(r"mpf_sub\(\s*acc\s*,\s*mpf_mul\(|mpf_sum\(\s*\[\s*mpf_mul\(")


def test_gram_sums_products_through_dot():
    # every sum of products in gram.py is one exact ``_dot``, rounded once
    assert ROUNDED_MAC.findall((SRC / "gram.py").read_text()) == []
