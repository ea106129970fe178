"""Reference Gram determinant for the differential tests of `latpack.exactnum`.

This is the `gram_det` that `latpack.exactnum` used before Gram determinants
and LLL shared one integral Gram-Schmidt step, copied unchanged: it builds
the full Gram matrix B * B^T and takes its determinant by Bareiss
fraction-free elimination.  It is a test oracle only.
"""

from __future__ import annotations

from latpack.errors import ParameterError
from latpack.exactnum import IntMatrix


def bareiss_det(G) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    a = [list(r) for r in G]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ParameterError("bareiss_det requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gram_det(B: IntMatrix) -> int:
    """det(B * B^T), exact; 0 when the rows are dependent (degenerate)."""
    gram = [[sum(x * y for x, y in zip(B.m[i], row)) for row in B.m] for i in range(B.rows)]
    return bareiss_det(gram)
