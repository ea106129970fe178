"""Exact arithmetic kernel.

Binomial prefix sums by one exact walk, their exact bit lengths from bounds,
deterministic primality, integer-matrix Hermite normal form (no src caller:
the tests and the benchmark tracer use it), back-substitution and pivot
volumes for echelon bases, the integral Gram-Schmidt step behind other
Gram determinants and LLL, and for products of integer powers (every density
here is one) their base-2 logarithms rendered to a requested number of
decimal digits and their exact order, plus the integer-row text format of
basis and generator files: the writer puts only each row's nonzero span
through str, and the reader converts each distinct token of a file once
while most tokens repeat, as in a sparse basis.
Everything here is pure integer/rational arithmetic; no floating point
enters any certified path.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from fractions import Fraction

from .errors import ParameterError, ParseError, RankError

__all__ = [
    "IntMatrix",
    "binom_sum",
    "binom_sums",
    "binom_sum_bit_lengths",
    "is_prime",
    "next_prime",
    "hnf",
    "hnf_basis",
    "echelon_pivots",
    "left_solver",
    "solve_left",
    "gso_extend",
    "gram_det",
    "log2_of",
    "log2_fraction",
    "compare_power_products",
    "expand_power_product",
    "div_round_half_even",
    "format_decimal",
    "read_int_rows",
    "write_int_rows",
]

# Fractional bits of log2_fraction, the exact value that table reports and
# record margins are computed from.
LOG2_FRACTION_BITS = 192


class IntMatrix:
    """Dense integer matrix, row-major, arbitrary-precision entries.

    ``IntMatrix(rows)`` copies the rows and checks them, row by row: at
    least one row and one column, each row as wide as the first ("ragged
    rows"), then every entry an int ("entries must be integers").  Outside
    input (rows handed to svp, say) goes through it.
    ``IntMatrix._trusted(rows, spans)`` takes a nonempty list of equal-width
    int lists as it is, with no copy and no check; only rows latpack built
    or parsed itself go through it (craig_basis, lift._preimage_lattice, the
    end of svp.lll_reduce and craig.read_basis).

    ``spans()`` gives each row's exact nonzero span (lo, hi), lo its first
    nonzero column and hi one past its last, or None for a zero row.  A
    builder that knows them passes them; otherwise they are scanned the
    first time they are asked for and kept.  Rows are never modified after
    construction, so the spans cannot go stale.
    """

    __slots__ = ("rows", "cols", "m", "_spans")

    def __init__(self, rows_data):
        data = [list(r) for r in rows_data]
        if not data or not data[0]:
            raise ParameterError("matrix must have at least one row and one column")
        width = len(data[0])
        for r in data:
            if len(r) != width:
                raise ParameterError("ragged rows in matrix")
            for x in r:
                if not isinstance(x, int):
                    raise ParameterError("matrix entries must be integers")
        self.rows = len(data)
        self.cols = width
        self.m = data
        self._spans = None

    @classmethod
    def _trusted(cls, data: list[list[int]], spans=None) -> "IntMatrix":
        self = object.__new__(cls)
        self.rows, self.cols, self.m, self._spans = len(data), len(data[0]), data, spans
        return self

    def spans(self) -> list[tuple[int, int] | None]:
        if self._spans is None:
            self._spans = list(map(_span, self.m))
        return self._spans

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, i: int):
        return self.m[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.m == other.m

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.m[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ParameterError("dimension mismatch in matrix product")
        ot = other.transpose().m
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.m]
        )


# A base-10 spelling int() accepts: sign, then digits with single underscores between.
_INT_SPELLING = re.compile(r"[+-]?\d+(?:_\d+)*")


def _int_tokens(tokens, convert, what: str, line: int) -> list[int]:
    try:
        return list(map(convert, tokens))
    except ValueError:
        for t in tokens:  # name the first token int() rejects
            try:
                int(t)
            except ValueError:
                if _INT_SPELLING.fullmatch(t):  # an integer past int()'s digit limit
                    digits = len(t) - t.count("_") - (t[0] in "+-")
                    raise ParseError(
                        f"{what} file line {line}: integer {t[:12]!r}... has {digits} digits,"
                        f" over the limit of {sys.get_int_max_str_digits()}") from None
                raise ParseError(f"{what} file line {line}: {t!r} is not an integer") from None
        raise


class _IntMemo(dict):
    """token -> int(token) for one file, each distinct token converted once."""

    __slots__ = ()

    def __missing__(self, token):
        value = self[token] = int(token)
        return value


def read_int_rows(fh, what: str, header: str) -> tuple[list[int], list[list[int]]]:
    """Read a header line of integers named by ``header``, then its rows of integers.

    The last two header fields are the row width and the row count.  A short
    file, a wrong field count, a negative width or count, a non-integer token
    or a non-blank line after the declared rows raises ParseError.

    Every token goes through int().  Rows go through a memo scoped to this
    call, so a sparse file converts each distinct token once.  Once the memo
    holds more than half a row's width of tokens the file is mostly
    distinct, and its remaining rows go through int() directly.
    """
    fields = fh.readline().split()
    if len(fields) != len(header.split()):
        raise ParseError(f"{what} file must start with '{header}'")
    head = _int_tokens(fields, int, what, 1)
    width, count = head[-2:]
    if width < 0 or count < 0:
        raise ParseError(f"{what} file line 1: row width {width} and row count {count}"
                         " must not be negative")
    memo = _IntMemo()
    convert = memo.__getitem__
    rows = []
    for i in range(count):
        line = fh.readline()
        parts = line.split()
        if not line or len(parts) != width:
            raise ParseError(f"{what} row {i + 1} must have {width} entries")
        rows.append(_int_tokens(parts, convert, what, i + 2))
        if 2 * len(memo) > width:
            convert = int
    for i, line in enumerate(fh, count + 2):
        if line.strip():
            raise ParseError(f"{what} file line {i}: more rows than the header's {count}")
    return head, rows


def write_int_rows(fh, header, rows, spans=None) -> None:
    """The format read_int_rows reads: the header line, then one line per row.

    Each line is the row's ints joined by single spaces.  The zero runs
    before and after a row's nonzero span (from ``spans``, as
    IntMatrix.spans gives them, or scanned here) are written by string
    repetition, so only the span goes through str.
    """
    fh.write(" ".join(map(str, header)) + "\n")
    for row, span in zip(rows, spans or map(_span, rows)):
        if span is None:
            fh.write(" ".join(["0"] * len(row)) + "\n")
        else:
            lo, hi = span
            fh.write("0 " * lo + " ".join(map(str, row[lo:hi])) + " 0" * (len(row) - hi) + "\n")


def _checked_rs(n: int, rs) -> list[int]:
    """``rs`` as a list, each r in 0..n; raises ParameterError otherwise."""
    rs = list(rs)
    if n < 0 or any(r < 0 for r in rs):
        raise ParameterError("binom_sum arguments must be nonnegative")
    for r in rs:
        if r > n:
            raise ParameterError(f"binom_sum requires r <= n, got r={r} n={n}")
    return rs


def binom_sums(n: int, rs) -> list[int]:
    """Sums of binomial coefficients C(n,0..r) for each r in ``rs``, exact.

    One walk up row n to max(rs), one coefficient at a time
    (c = c * (n - i) // (i + 1), an exact division), serves every r.
    """
    rs = _checked_rs(n, rs)
    sums = {}
    total = 0
    c = 1
    done = 0  # total holds C(n,0..done-1) and c is C(n,done)
    for r in sorted(set(rs)):
        for i in range(done, r + 1):
            total += c
            c = c * (n - i) // (i + 1)
        done = r + 1
        sums[r] = total
    return [sums[r] for r in rs]


def binom_sum(n: int, r: int) -> int:
    """Sum of binomial coefficients C(n,0..r), exact."""
    return binom_sums(n, [r])[0]


# binom_sum_bit_lengths keeps its bounds to about this many bits.
_BOUND_BITS = 256
# The walk adds at most this many terms one at a time; farther, it jumps in
# exact math.perm chunks of this many factors of the row.
_CHUNK = 64
# The descending series stops at a term below 2^-_TAIL_BITS of its sum.
_TAIL_BITS = 64


def binom_sum_bit_lengths(n: int, rs) -> list[int]:
    """binom_sum(n, r).bit_length() for each r in ``rs``, exact.

    For 2r >= n - 1 it is n, or n + 1 at r = n: V(n, r), the sum of
    C(n, 0..r), is then at least 2^(n-1) and below 2^n unless r = n.

    Below that, one walk up row n through the sorted r keeps floor and
    ceiling bounds c_lo * 2^e <= C(n, i) <= c_hi * 2^e at the last r = i,
    and v_lo, v_hi alike for V(n, i), renormalised to about _BOUND_BITS
    bits.  An r at most _CHUNK past i adds its terms one at a time.  A
    farther r moves C by exact math.perm chunks of the row and bounds V(n, r)
    afresh by the descending series C(n, r) * sum_t prod_{s<t} (r-s)/(n-r+1+s),
    stopped at a term below 2^-_TAIL_BITS of its sum; that term's geometric
    tail bound covers the rest.  An r whose two bounds differ in bit length
    is decided by the exact binom_sums, as compare_power_products expands
    only what its bounds leave open.
    """
    rs = _checked_rs(n, rs)
    bits, undecided = {}, []
    i = e = 0
    c_lo = c_hi = v_lo = v_hi = 1
    for r in sorted(set(rs)):
        if 2 * r >= n - 1:
            bits[r] = n + (r == n)
            continue
        if r - i <= _CHUNK:
            for j in range(i, r):
                c_lo, c_hi = c_lo * (n - j) // (j + 1), -(-c_hi * (n - j) // (j + 1))
                v_lo, v_hi = v_lo + c_lo, v_hi + c_hi
        else:
            for a in range(i, r, _CHUNK):
                b = min(a + _CHUNK, r)
                p, q = math.perm(n - a, b - a), math.perm(b, b - a)
                s = max(c_hi.bit_length() - _BOUND_BITS, 0)
                c_lo, c_hi, e = (c_lo >> s) * p // q, -((-c_hi >> s) * p // q), e + s
            t_lo = t_hi = 1 << _BOUND_BITS
            s_lo = s_hi = t = 0
            while t_hi << _TAIL_BITS >= s_lo:
                s_lo, s_hi, den = s_lo + t_lo, s_hi + t_hi, n - r + 1 + t
                t_lo, t_hi, t = t_lo * (r - t) // den, -(-t_hi * (r - t) // den), t + 1
            # Each later term is at most (r-t)/(n-r+1+t) times the one before.
            s_hi += -(-t_hi * (n - r + 1 + t) // (n - 2 * r + 1 + 2 * t))
            v_lo, v_hi = c_lo * s_lo >> _BOUND_BITS, -(-c_hi * s_hi >> _BOUND_BITS)
        i, s = r, max(c_hi.bit_length() - _BOUND_BITS, 0)
        c_lo, c_hi, v_lo, v_hi, e = c_lo >> s, -(-c_hi >> s), v_lo >> s, -(-v_hi >> s), e + s
        if v_lo.bit_length() == v_hi.bit_length():
            bits[r] = v_lo.bit_length() + e
        else:
            undecided.append(r)
    if undecided:
        bits.update((r, v.bit_length()) for r, v in zip(undecided, binom_sums(n, undecided)))
    return [bits[r] for r in rs]


# The first 13 prime bases prove primality for every n below
# 3_317_044_064_679_887_385_961_981 (Sorenson & Webster 2017); the first 12
# alone only below 318_665_857_834_031_151_167_461, itself a composite they pass.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


@functools.lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test; raises ParameterError at or above _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ParameterError(f"primality is proven here only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """Smallest prime p with p >= x."""
    if x < 2:
        raise ParameterError("next_prime requires x >= 2")
    if x == 2:
        return 2
    c = x if x % 2 == 1 else x + 1
    while not is_prime(c):
        c += 2
    return c


def _hnf_inplace(mat, ncols):
    """Row-style HNF of the first ``ncols`` columns of ``mat`` (list of lists).

    Row operations act on whole rows, so columns past ``ncols`` (an appended
    identity, say) record the transform.  Pivots positive, entries above
    each pivot reduced into [0, pivot).  Returns the pivot column indices.

    Gcd elimination below the pivots gives the echelon form first.  One pass
    from the bottom up then reduces each pivot row against the rows below it,
    which are already reduced and zero left of their pivots, so no row is
    reduced twice at a column.  The reduced form H is unique, and so is the
    transform of a full-row-rank matrix.
    """
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # Clear column c below row r by gcd elimination.
        while True:
            nz = [i for i in range(r, nrows) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(mat[i][c]), i))
            if i0 != r:
                mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, nrows):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if mat[r][c] == 0:
            continue
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        pivots.append(c)
        r += 1
    for i in range(r - 2, -1, -1):
        row = mat[i]
        for s in range(i + 1, r):
            q = row[pivots[s]] // mat[s][pivots[s]]
            if q:
                row = [a - q * b for a, b in zip(row, mat[s])]
        mat[i] = row
    return pivots


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Hermite normal form of a full-row-rank matrix.

    Returns (H, U) with U unimodular and U*M = H, read off the HNF of the
    augmented matrix [M | I].  Raises RankError when the rows are dependent;
    use hnf_basis for generating sets.
    """
    c = M.cols
    mat = [row + [1 if i == j else 0 for j in range(M.rows)] for i, row in enumerate(M.m)]
    pivots = _hnf_inplace(mat, c)
    if len(pivots) != M.rows:
        raise RankError(f"matrix has rank {len(pivots)} < {M.rows} rows")
    return IntMatrix([r[:c] for r in mat]), IntMatrix([r[c:] for r in mat])


def hnf_basis(M: IntMatrix) -> IntMatrix:
    """Canonical basis (nonzero HNF rows) of the lattice generated by the rows of M."""
    mat = [list(r) for r in M.m]
    pivots = _hnf_inplace(mat, M.cols)
    if not pivots:
        raise RankError("matrix generates the zero lattice")
    return IntMatrix(mat[: len(pivots)])


def _span(row: list[int]) -> tuple[int, int] | None:
    """(first nonzero column, one past the last) of an int list, or None when it is zero.

    filter, list.index and operator.indexOf scan the zeros in C, the trailing
    ones through a reversed iterator rather than a reversed copy.
    """
    lead = next(filter(None, row), 0)
    if not lead:
        return None
    last = next(filter(None, reversed(row)))
    return row.index(lead), len(row) - operator.indexOf(reversed(row), last)


def echelon_pivots(M: IntMatrix) -> list[int] | None:
    """Pivot columns of an echelon basis, or None.

    A basis is echelon when no row is zero and the rows' first nonzero
    columns strictly increase (HNF output, the Craig basis, lifted
    lattices).  Each row's pivot is its first nonzero column, so every row
    is zero at the pivots of the rows before it and the rows are
    independent.
    """
    pivots = []
    for span in M.spans():
        if span is None or (pivots and span[0] <= pivots[-1]):
            return None
        pivots.append(span[0])
    return pivots


def left_solver(B: IntMatrix):
    """Factor B once; return a function v -> integer x with x*B = v, or None.

    B must be echelon (see echelon_pivots) and is its own factor: each call
    walks its rows in order, back-substituting at each pivot, and x is the
    quotients.  A row is subtracted only from its pivot to its last nonzero
    column.  Nothing is modified by a call.  Raises ParameterError when B is
    not echelon.
    """
    if echelon_pivots(B) is None:
        raise ParameterError("solving needs an echelon basis (rows starting at increasing columns)")
    # Each row's pivot column and entry and its nonzero span pc..hi-1.
    steps = [(pc, row[pc], hi, row[pc:hi]) for row, (pc, hi) in zip(B.m, B.spans())]

    def solve(v) -> list[int] | None:
        if len(v) != B.cols:
            raise ParameterError("vector length does not match matrix columns")
        residual = list(v)
        q = []
        for pc, pivot, hi, span in steps:
            qi, r = divmod(residual[pc], pivot)
            if r != 0:
                return None
            if qi:
                residual[pc:hi] = [a - qi * b for a, b in zip(residual[pc:hi], span)]
            q.append(qi)
        return None if any(residual) else q

    return solve


def solve_left(B: IntMatrix, v) -> list[int] | None:
    """Integer solution x of x*B = v, or None when v is outside the row lattice."""
    return left_solver(B)(v)


def gso_extend(rows, d, lam) -> bool:
    """Append the integral Gram-Schmidt data of row k = len(lam) of ``rows``.

    ``d[i]`` is the Gram determinant of the first i rows (``d[0] = 1``) and
    ``lam[i][j] = d[j+1] * mu[i][j]`` for j < i, all integers (Cohen, GTM 138,
    Alg. 2.6.7).  Given that data for rows 0..k-1, appends ``lam[k]`` and
    ``d[k+1]`` and returns True; returns False, appending nothing, when row k
    depends on the rows before it.
    """
    k = len(lam)
    lam_k: list[int] = []
    for j in range(k + 1):
        lam_j = lam[j] if j < k else lam_k
        u = sum(map(operator.mul, rows[k], rows[j]))
        for i in range(j):
            u = (d[i + 1] * u - lam_k[i] * lam_j[i]) // d[i]
        lam_k.append(u)
    d_k = lam_k.pop()
    if d_k == 0:
        return False
    d.append(d_k)
    lam.append(lam_k)
    return True


def gram_det(B: IntMatrix) -> int:
    """det(B * B^T), exact; 0 when the rows are dependent (degenerate).

    A rank N-1 echelon basis in Z^N whose rows all sum to 0, as every
    lattice in the hyperplane sum(x) = 0 built here is, takes it from its
    pivots, walking the rows in order: det(B B^T) = N * (product of the
    pivot entries)^2.  By Cauchy-Binet it is the sum of the squared maximal
    minors.  Their signed vector is orthogonal to every row, so parallel to
    (1, ..., 1), and all N minors share one absolute value; the minor
    without the non-pivot column is triangular with the pivot entries on its
    diagonal.  Any other basis runs gso_extend over its rows.  The sums and
    the pivot entries are read from each row's nonzero span alone.
    """
    if B.rows == B.cols - 1 and echelon_pivots(B) is not None:
        bands = [row[lo:hi] for row, (lo, hi) in zip(B.m, B.spans())]
        if not any(map(sum, bands)):
            det = math.prod(band[0] for band in bands)
            return B.cols * det * det
    d, lam = [1], []
    return d[-1] if all(gso_extend(B.m, d, lam) for _ in range(B.rows)) else 0


def _log2_fixed(num: int, den: int, frac_bits: int) -> int:
    """Integer T with T <= 2^frac_bits * log2(num/den) < T + 1 + 2^-61.

    Every truncation below rounds down, so T never exceeds the true value.
    The mantissa carries 64 guard bits: the first mantissa and each squaring
    step (two truncations) lose under 2.9 * 2^-(frac_bits+64) in log2, and
    every squaring doubles the loss so far, which therefore ends below
    5.8 * 2^-64 < 2^-61 units; the dropped remainder adds less than 1 unit.
    """
    if num <= 0 or den <= 0:
        raise ParameterError("log2 requires a positive rational")
    e = num.bit_length() - den.bit_length()
    return _log2_squarings(e, _scaled_floor(num, den, frac_bits + 64 - e), frac_bits)


def _scaled_floor(num: int, den: int, t: int) -> int:
    """floor(num / den * 2^t) for any integer t."""
    return (num << t) // den if t >= 0 else num // (den << -t)


def _log2_squarings(e: int, mant: int, frac_bits: int) -> int:
    """_log2_fixed's T from all it reads of num and den: their bit length
    difference e and mant = floor(num/den * 2^(frac_bits + 64 - e))."""
    work = frac_bits + 64
    if mant < (1 << work):
        mant <<= 1
        e -= 1
    frac = 0
    top = 1 << (work + 1)
    for _ in range(frac_bits):
        mant = (mant * mant) >> work
        frac <<= 1
        if mant >= top:
            mant >>= 1
            frac |= 1
    return (e << frac_bits) + frac


def _power_bracket(pairs, bits: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo * 2^shift <= prod(b^e) over ``pairs`` <= hi * 2^shift:
    one square-and-multiply over all the exponents, cut back to ``bits`` bits
    after each step, lo by floor and hi by ceiling, so exact while it fits.
    """
    lo = hi = 1
    shift = 0  # stays 0 until the first cut, and every step after it cuts
    for i in reversed(range(max([e.bit_length() for _, e in pairs], default=0))):
        lo, hi = lo * lo, hi * hi
        for b, e in pairs:
            if e >> i & 1:
                lo, hi = lo * b, hi * b
        s = hi.bit_length() - bits
        if s > 0:
            lo, hi, shift = lo >> s, -(-hi >> s), 2 * shift + s
    return lo, hi, shift


# compare_power_products ranks by logs with this many fractional bits.
_PRODUCT_LOG_BITS = 64


@functools.lru_cache(maxsize=4096)
def _base_log(base: int) -> int:
    """_log2_fixed(base, 1, _PRODUCT_LOG_BITS), memoized: a few bases recur."""
    return _log2_fixed(base, 1, _PRODUCT_LOG_BITS)


def _log_error_bound(exponent_sum: int) -> int:
    """Integer at least exponent_sum * (1 + 2^-61), the error of that many logs.

    Each _log2_fixed log undershoots 2^_PRODUCT_LOG_BITS * log2(base) by less
    than 1 + 2^-61 units.
    """
    return exponent_sum + (-(-exponent_sum >> 61))


def expand_power_product(factors) -> tuple[int, int]:
    """(num, den) with num/den = prod(base^exp) over a {base: exponent} map."""
    num = den = 1
    for base, e in factors.items():
        if e >= 0:
            num *= base**e
        else:
            den *= base ** (-e)
    return num, den


def compare_power_products(a, b) -> int:
    """Exact order of two products prod(base^exp) given as {base: exponent} maps.

    Bases are positive integers and exponents any integers.  Returns -1, 0
    or 1 as a < b, a == b or a > b.  The fixed-point logs of the bases decide
    whenever their error interval excludes 0; only then are the products
    expanded.  No float enters.
    """
    exps = dict(a)
    for base, e in b.items():
        exps[base] = exps.get(base, 0) - e
    total = up = down = 0
    for base, e in exps.items():
        if e == 0 or base == 1:
            continue
        total += e * _base_log(base)
        if e > 0:
            up += e
        else:
            down -= e
    # 2^_PRODUCT_LOG_BITS * log2(a/b) is at least total - err(down) and at
    # most total + err(up).
    if total > _log_error_bound(down):
        return 1
    if total < -_log_error_bound(up):
        return -1
    num, den = expand_power_product(exps)
    return (num > den) - (num < den)


def div_round_half_even(a: int, b: int) -> int:
    """Round a/b (b > 0) to the nearest integer, ties to even."""
    if b <= 0:
        raise ParameterError("denominator must be positive")
    q, r = divmod(a, b)
    twice = 2 * r
    if twice > b or (twice == b and q % 2 == 1):
        q += 1
    return q


def format_decimal(x: Fraction, digits: int) -> str:
    """Render x with exactly ``digits`` >= 1 decimals, rounded half to even."""
    scaled = div_round_half_even(x.numerator * 10**digits, x.denominator)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


# The squaring loop in _log2_squarings is quadratic in the digit count: 1000
# digits take about 0.03 s, 3000 digits about 0.4 s (2-core x86-64 host).
MAX_LOG2_DIGITS = 1000


def log2_fraction(factors, frac_bits: int = LOG2_FRACTION_BITS) -> Fraction:
    """(1/2)*log2 of prod(base^exp) as an exact dyadic approximation.

    Bit for bit _log2_fixed of the unreduced expand_power_product(factors),
    which reads only two integers of num and den, e and mant.  Brackets of
    num and den at frac_bits + 128 bits bound both from below (num's floor
    over den's ceiling) and above (the reverse); where the two agree they
    are e and mant exactly.  Only where they differ (num/den a power of two
    over other bases, say) are num and den expanded.
    """
    work, sides = frac_bits + 64, set()
    if min(factors, default=1) > 0:
        pos, neg = ([(b, s * e) for b, e in factors.items() if s * e > 0] for s in (1, -1))
        (nl, nh, ns), (dl, dh, ds) = _power_bracket(pos, work + 64), _power_bracket(neg, work + 64)
        for n, d in ((nl, dh), (nh, dl)):  # num/den from below, then from above
            e = n.bit_length() - d.bit_length() + ns - ds
            sides.add((e, _scaled_floor(n, d, work - e + ns - ds)))
    t = (_log2_squarings(*sides.pop(), frac_bits) if len(sides) == 1
         else _log2_fixed(*expand_power_product(factors), frac_bits))
    return Fraction(t, 1 << (frac_bits + 1))


def log2_of(factors, digits: int) -> str:
    """(1/2)*log2 of prod(base^exp) to ``digits`` decimals, round half to even."""
    if not 1 <= digits <= MAX_LOG2_DIGITS:
        raise ParameterError(f"digits must lie in 1..{MAX_LOG2_DIGITS}, got {digits}")
    # Internal precision: at least 64 decimal digits worth of bits.
    frac_bits = max(256, -(-(digits + 24) * 3322 // 1000))  # ceil(3.322 * (digits + 24))
    return format_decimal(log2_fraction(factors, frac_bits), digits)
