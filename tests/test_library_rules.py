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
