"""The binomial basis of A(n, m, l) and the derivative membership test, kept as oracles.

`latpack.craig.craig_basis` once wrote the rows (x-1)^n, ..., (x-1)^m and
l*(x-1)^(m-1), ..., l*(x-1) in descending degree (the m = 1 case as the
integral rows (x-1)*x^j, which span the same lattice).  Their entries reach
C(n, n/2), so they stay the large-entry inputs of the differential LLL tests
and the other side of the basis-equivalence tests.  `membership` evaluates
every derivative at 1 in full, as `latpack.craig.membership` did before it
took Taylor coefficients by repeated division by x - 1.
"""

from __future__ import annotations

import math


def binomial_row(j: int, width: int) -> list[int]:
    """Coefficient vector of (x-1)^j, length ``width``."""
    return [math.comb(j, i) * (-1) ** (j - i) for i in range(j + 1)] + [0] * (width - j - 1)


def binomial_craig_rows(n: int, m: int, l: int) -> list[list[int]]:
    """Rows of the binomial basis of A(n, m, l), as craig_basis wrote them."""
    width = n + 1
    if m == 1:
        return [[0] * j + [-1, 1] + [0] * (n - 1 - j) for j in range(n)]
    rows = [binomial_row(j, width) for j in range(n, m - 1, -1)]
    rows += [[l * a for a in binomial_row(j, width)] for j in range(m - 1, 0, -1)]
    return rows


def derivative_at_one(coeffs, order: int) -> int:
    """f^(order)(1) for f = sum coeffs[j] x^j, exact."""
    total = 0
    for j, a in enumerate(coeffs):
        if a == 0 or j < order:
            continue
        ff = 1
        for t in range(order):
            ff *= j - t
        total += a * ff
    return total


def membership(m: int, l: int, f) -> bool:
    """f in A(n, m, l) for prime l: f(1) = 0 and f^(i)(1) = 0 mod l for 0 < i < m."""
    if sum(f) != 0:
        return False
    return all(derivative_at_one(f, i) % l == 0 for i in range(1, m))
