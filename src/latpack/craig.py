"""Generalized Craig lattices.

A lattice A(n, m, l), l a prime >= n+1, lives in Z^(n+1) as the coefficient
vectors of integer polynomials f with f(1) = 0 whose derivatives at 1 up to
order m-1 vanish mod l.  It is spanned by (x-1)^n .. (x-1)^m together with
l*(x-1)^(m-1) .. l*(x-1) (Craig 1978; Conway & Sloane, SPLAG ch. 8 sec. 6).
Its squared volume is l^(2(m-1)) * (n+1), and every nonzero vector has
squared norm at least 2m.  craig_basis writes the short echelon rows
(x-1)^m * x^j and, in the top degrees, l*(x-1) * x^j: they lie in A and
have its volume, so they span it.  The order m the paper takes, nearest
n / (2 ln x), comes from nearest_m in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import CapacityError, ParameterError
from .exactnum import (
    IntMatrix,
    _base_log,
    _log2_fixed,
    compare_power_products,
    gram_det,
    is_prime,
    left_solver,
    log2_fraction,
    log2_of,
    next_prime,
    read_int_rows,
    write_int_rows,
)

__all__ = [
    "CraigParams",
    "IntegerLattice",
    "LogDensity",
    "craig_basis",
    "membership",
    "center_density_lb",
    "check_dimension",
    "choose_params",
    "nearest_m",
    "verify_section",
    "write_basis",
    "read_basis",
]

BASIS_CAP = 512  # largest ambient dimension of a basis built by construct, lift, verify_section
# Largest n and l accepted.  They bound the exact integers of a density
# (m^n and l^(2(m-1)) have at most about n * log2(l) bits), so every
# subcommand answers in seconds; the published tables stop at n = 16380.
MAX_N = 65536
MAX_L = 1 << 18


def check_dimension(n: int) -> None:
    """Reject n above MAX_N; callers run it before any prime search on n."""
    if n > MAX_N:
        raise ParameterError(f"n must be <= {MAX_N}, got {n}")


@dataclass(frozen=True)
class CraigParams:
    """The triple (n, m, l): rank n in ambient n+1, derivative order m, modulus l."""

    n: int
    m: int
    l: int

    def __post_init__(self):
        check_dimension(self.n)
        if self.l > MAX_L:
            raise ParameterError(f"l must be <= {MAX_L}, got {self.l}")
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if 2 * self.m > self.n + 1:
            raise ParameterError(f"m={self.m} exceeds (n+1)/2 for n={self.n}")
        if self.l < self.n + 1:
            raise ParameterError(f"l must be >= n+1, got l={self.l} n={self.n}")
        if not is_prime(self.l):
            raise ParameterError(f"l must be prime, got {self.l}")


class IntegerLattice:
    """Exact integer lattice: rank r basis rows in ambient dimension N."""

    def __init__(self, basis: IntMatrix):
        if basis.rows > basis.cols:
            raise ParameterError("rank exceeds ambient dimension")
        self.ambient_dim = basis.cols
        self.rank = basis.rows
        self.basis = basis
        self._vol_sq: int | None = None

    @property
    def vol_sq(self) -> int:
        """Gram determinant det(B B^T), computed once and cached.

        The Craig basis and a lifted basis are echelon in sum(x) = 0,
        so gram_det takes it from their pivots; a basis in any other form (a
        file of the earlier Craig rows, say) runs gso_extend.
        """
        if self._vol_sq is None:
            d = gram_det(self.basis)
            if d == 0:
                raise ParameterError("degenerate basis: rows are dependent")
            self._vol_sq = d
        return self._vol_sq

    def __repr__(self) -> str:
        return f"IntegerLattice(rank={self.rank}, ambient={self.ambient_dim})"


class LogDensity:
    """Center-density lower bound held exactly as delta^2 = prod(base^exp).

    ``pairs`` are (base, exponent) pairs with positive integer bases; they
    merge into the {base: exponent} map ``factors``, where repeated bases
    add up and zero exponents and the base 1 are dropped.  ``>`` orders
    densities exactly (compare_power_products on their maps); ``<`` works by
    reflection.
    """

    __slots__ = ("factors",)

    def __init__(self, pairs):
        factors: dict[int, int] = {}
        for base, e in pairs:
            if not isinstance(base, int) or base <= 0:
                raise ParameterError(f"density bases must be positive integers, got {base!r}")
            factors[base] = factors.get(base, 0) + e
        self.factors = {b: e for b, e in factors.items() if e and b != 1}

    def log2(self, digits: int = 4) -> str:
        return log2_of(self.factors, digits)

    def log2_fraction(self):
        return log2_fraction(self.factors)

    def __gt__(self, other: "LogDensity") -> bool:
        return compare_power_products(self.factors, other.factors) > 0

    def __repr__(self) -> str:
        return f"LogDensity(2^{self.log2(4)})"


def craig_basis(p: CraigParams) -> IntegerLattice:
    """Basis of A(n, m, l) in Z^(n+1).

    The rows are (x-1)^m * x^j for j = 0..n-m, then l*(x-1) * x^j for
    j = n-m+1..n-1, as coefficient vectors in ascending degree.  Every row
    lies in A, row i starts at column i, and the pivot entries (+-1, then -l)
    multiply to +-l^(m-1), so the rows have A's volume
    l^(2(m-1)) * (n+1) (see gram_det) and span A.  Every entry is at most
    max(C(m, m // 2), l) in absolute value.  At m = 1 the second block is
    empty and the rows are the (x-1) * x^j of A_n.
    """
    n, m, l = p.n, p.m, p.l
    top = [math.comb(m, i) * (-1) ** (m - i) for i in range(m + 1)]
    rows = [[0] * j + top + [0] * (n - m - j) for j in range(n - m + 1)]
    rows += [[0] * j + [-l, l] + [0] * (n - 1 - j) for j in range(n - m + 1, n)]
    spans = [(j, j + m + 1) for j in range(n - m + 1)] + [(j, j + 2) for j in range(n - m + 1, n)]
    return IntegerLattice(IntMatrix._trusted(rows, spans))


def membership(p: CraigParams, f) -> bool:
    """Polynomial membership test: f(1) = 0 and f^(i)(1) = 0 mod l for i < m.

    Running sums of the coefficients, highest degree first, divide by x - 1:
    the quotient, then the remainder.  Division i (from 0) leaves f^(i)(1)/i!,
    and i! is a unit mod the prime l >= n+1 > m-1.  f(1) = 0 is checked
    exactly and every later division runs mod l.
    """
    if len(f) != p.n + 1:
        raise ParameterError(f"vector must have length n+1 = {p.n + 1}")
    sums = list(accumulate(f[::-1]))
    for _ in range(1, p.m):
        if sums[-1]:
            return False
        sums = [s % p.l for s in accumulate(sums[:-1])]
    return sums[-1] == 0


def center_density_lb(p: CraigParams, k: int) -> LogDensity:
    """delta^2 = 2^(2k-n) * m^n / (l^(2(m-1)) * (n+1)), exact.

    k = 0 is the bare lattice (norm >= 2m); k > 0 assumes a supporting
    [n+1, k, >= 8m] code, which lift.LiftResult checks.
    """
    if not 0 <= k <= p.n:
        # The subcode lives inside the [n+1, n, 2] even-weight code.
        raise ParameterError(f"need 0 <= k <= n = {p.n}, got k={k}")
    n, m, l = p.n, p.m, p.l
    return LogDensity(((2, 2 * k - n), (m, n), (l, -2 * (m - 1)), (n + 1, -1)))


# 2^64 * log2(e) rounded down, from the partial sum (sum_k 30!/k!) / 30! of e,
# whose tail is under 1/31!: like _base_log(x), under 2 units below the truth.
_LOG2_E = _log2_fixed(sum(math.perm(30, 30 - k) for k in range(31)), math.perm(30), 64)


def nearest_m(n: int, x: int) -> int:
    """floor(n / (2 ln x) + 1/2), the integer nearest n / (2 ln x) (half up).

    n / (2 ln x) + 1/2 = (n * log2(e) + log2(x)) / (2 * log2(x)), read here
    with the 64-bit fixed-point logs _LOG2_E and _base_log(x), no float.
    tests/test_craig.py proves the floor exact for x = n and x = n + 1 at
    every 2 <= n <= MAX_N.
    """
    lx = _base_log(x)
    return (n * _LOG2_E + lx) // (2 * lx)


def choose_params(n: int) -> CraigParams:
    """m nearest to n / (2 ln n) (half up), l the first prime >= n+1."""
    if n < 2:
        raise ParameterError("n must be >= 2")
    check_dimension(n)
    # tests/test_craig.py proves 1 <= m <= max(1, ceil(n/2) - 1), so 2m <= n + 1.
    return CraigParams(n, nearest_m(n, n), next_prime(n + 1))


def verify_section(p: CraigParams) -> bool:
    """Check that A(n, m, l) is the section of A(l-1, m, l) on the first n+1 coords.

    Every basis vector, zero-padded to length l, must solve integrally in the
    big lattice, and the volumes must stand in the ratio l : n+1.  Both
    short bases are echelon in sum(x) = 0, so each row solves by one
    back-substitution along the big basis's pivots and each volume is a
    pivot product.
    """
    if p.l > BASIS_CAP:
        raise CapacityError(f"section check capped at ambient {BASIS_CAP}, got {p.l}")
    small = craig_basis(p)
    big_params = CraigParams(p.l - 1, p.m, p.l)
    big = craig_basis(big_params)
    solve = left_solver(big.basis)
    pad = [0] * (p.l - 1 - p.n)
    for row in small.basis.m:
        if solve(row + pad) is None:
            return False
    lhs = small.vol_sq * p.l
    rhs = big.vol_sq * (p.n + 1)
    return lhs == rhs


def write_basis(lattice: IntegerLattice, fh) -> None:
    """Text format: first line "N r", then r rows of N integers."""
    write_int_rows(fh, [lattice.ambient_dim, lattice.rank], lattice.basis.m, lattice.basis.spans())


def read_basis(fh) -> IntegerLattice:
    """The rows write_basis writes.  read_int_rows has put every token through
    int() and held every row to the header's width, so a nonempty result is
    not checked again; an empty one meets IntMatrix's error."""
    _, rows = read_int_rows(fh, "basis", "N r")
    return IntegerLattice(IntMatrix._trusted(rows) if rows and rows[0] else IntMatrix(rows))
