"""Linear codes over GF(2), GF(4) and GF(8).

Field elements are encoded as bit-polynomials 0..q-1 with the moduli
x^2+x+1 and x^3+x+1.  Minimum distances come from full codeword
enumeration (capped; one Gray-code walk over GF(2) combinations serves
every field), existence questions from exact Gilbert-Varshamov
integer comparisons, never the entropy approximation.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, replace
from importlib.resources import files

from .errors import CapacityError, ParameterError, ParseError
from .exactnum import _log2_fixed, binom_sum_bit_lengths, read_int_rows, write_int_rows

__all__ = [
    "CodeSpec",
    "LinearCode",
    "CodeTable",
    "gf_mul",
    "repetition",
    "extend_parity",
    "concatenate",
    "min_distance",
    "gv_exists",
    "gv_max_k",
    "gv_max_ks",
    "griesmer_length",
    "lemma62_params",
    "load_code_table",
    "dual_hamming_7_3_4",
    "extended_hamming_8_4_4",
    "single_parity_3_2_2",
    "write_generator",
    "read_generator",
]

ENUMERATION_CAP = 1 << 26

CONSTRUCTED = "constructed"
TABLE_KNOWN = "table-known"
GV_EXISTS = "gv-exists"
HYPOTHETICAL = "hypothetical"
_STATUSES = (CONSTRUCTED, TABLE_KNOWN, GV_EXISTS, HYPOTHETICAL)

_MODULUS = {2: 0b10, 4: 0b111, 8: 0b1011}


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _reduce(x: int, mod: int) -> int:
    mb = mod.bit_length()
    while x.bit_length() >= mb:
        x ^= mod << (x.bit_length() - mb)
    return x


def gf_mul(q: int, a: int, b: int) -> int:
    if q not in _MODULUS:
        raise ParameterError(f"unsupported field size {q}")
    return _reduce(_clmul(a, b), _MODULUS[q])


@functools.cache
def _mul_table(q: int) -> tuple[tuple[int, ...], ...]:
    """The product table of GF(q): ``_mul_table(q)[a][b] == gf_mul(q, a, b)``."""
    return tuple(tuple(gf_mul(q, a, b) for b in range(q)) for a in range(q))


def _gf_eliminate(q: int, work, ncols: int) -> list[int]:
    """Reduced row echelon form over GF(q) of the first ``ncols`` columns of ``work``.

    Works in place on whole rows, so columns past ``ncols`` (an appended
    identity, say) record the row operations.  Returns the pivot columns.
    """
    mul = _mul_table(q)
    pivcols = []
    for c in range(ncols):
        rank = len(pivcols)
        if rank == len(work):
            break
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        scale = mul[mul[work[rank][c]].index(1)]
        prow = work[rank] = [scale[x] for x in work[rank]]
        for i in range(len(work)):
            f = work[i][c]
            if f and i != rank:
                fm = mul[f]
                work[i] = [x ^ fm[y] for x, y in zip(work[i], prow)]
        pivcols.append(c)
    return pivcols


def gf_rank(q: int, rows) -> int:
    """Rank of a matrix over GF(q) by Gaussian elimination."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    return len(_gf_eliminate(q, work, len(work[0])))


def gf_solve(q: int, rows, target):
    """Coefficients x with sum x_i * rows[i] = target over GF(q), or None.

    Eliminates [rows | I]; the identity columns of a pivot row give its
    coefficients over the original rows.  The target and its coefficients
    then reduce together along the pivot rows, as one row of [rows | I].
    """
    nrows = len(rows)
    ncols = len(rows[0])
    if len(target) != ncols:
        raise ParameterError("target length does not match the rows")
    aug = [list(r) + [1 if i == j else 0 for j in range(nrows)] for i, r in enumerate(rows)]
    mul = _mul_table(q)
    acc = list(target) + [0] * nrows
    for i, c in enumerate(_gf_eliminate(q, aug, ncols)):
        f = acc[c]
        if f:
            fm = mul[f]
            acc = [a ^ fm[b] for a, b in zip(acc, aug[i])]
    if any(acc[:ncols]):
        return None
    return acc[ncols:]


@dataclass(frozen=True)
class CodeSpec:
    """Parameter record [n, k, d] over GF(q) with a provenance status."""

    q: int
    n: int
    k: int
    d: int
    status: str = TABLE_KNOWN

    def __post_init__(self):
        if self.q not in (2, 4, 8):
            raise ParameterError(f"field size must be 2, 4 or 8, got {self.q}")
        if not (1 <= self.k <= self.n):
            raise ParameterError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if not (1 <= self.d <= self.n):
            raise ParameterError(f"need 1 <= d <= n, got d={self.d} n={self.n}")
        if self.status not in _STATUSES:
            raise ParameterError(f"unknown status {self.status!r}")

    def __str__(self) -> str:
        sub = "" if self.q == 2 else f"_{self.q}"
        return f"[{self.n},{self.k},{self.d}]{sub}"


class LinearCode:
    """A CodeSpec together with a generator matrix of full rank over GF(q)."""

    def __init__(self, spec: CodeSpec, generator):
        gen = [list(r) for r in generator]
        if len(gen) != spec.k or any(len(r) != spec.n for r in gen):
            raise ParameterError("generator shape does not match spec")
        for row in gen:
            for x in row:
                if not (0 <= x < spec.q):
                    raise ParameterError("generator entries must lie in 0..q-1")
        if gf_rank(spec.q, gen) != spec.k:
            raise ParameterError("generator rows are dependent over GF(q)")
        self.spec = spec
        self.generator = gen

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def k(self) -> int:
        return self.spec.k

    def __repr__(self) -> str:
        return f"LinearCode({self.spec})"


def repetition(n: int, q: int = 2) -> LinearCode:
    """[n, 1, n] repetition code."""
    if n < 1:
        raise ParameterError("length must be >= 1")
    return LinearCode(CodeSpec(q, n, 1, n, CONSTRUCTED), [[1] * n])


def _scaled_rows(q: int, rows) -> list[list[int]]:
    """The rows alpha^t * g for each row g and t < log2(q), with alpha = x.

    Their GF(2) combinations are exactly the GF(q) combinations of ``rows``.
    """
    mul = _mul_table(q)
    return [[mul[1 << t][s] for s in g] for g in rows for t in range(q.bit_length() - 1)]


def min_distance(c: LinearCode) -> int:
    """Exact minimum weight by full enumeration of the q^k codewords.

    Each alpha^t-scaled generator row is packed b = log2(q) bits per symbol,
    and a Gray-code walk over their GF(2) combinations XORs one mask per
    codeword; a symbol is nonzero when any of its b bits is set.
    """
    q, n, k = c.q, c.n, c.k
    if q**k > ENUMERATION_CAP:
        raise CapacityError(f"{q}^{k} codewords exceed the enumeration cap")
    b = q.bit_length() - 1
    digits = [format(s, f"0{b}b") for s in range(q)]  # symbol j sits at bits j*b .. j*b+b-1
    rows = _scaled_rows(q, c.generator)
    masks = [int("".join([digits[s] for s in reversed(row)]), 2) for row in rows]
    low = int(digits[1] * n, 2)  # the lowest bit of every symbol
    best = n + 1
    word = 0
    for i in range(1, 1 << len(masks)):  # Gray-code walk: one row XOR per codeword
        word ^= masks[(i & -i).bit_length() - 1]
        w = word.bit_count() if b == 1 else ((word | word >> 1 | word >> (b - 1)) & low).bit_count()
        if 0 < w < best:
            best = w
    return best


def _enumerated(q: int, n: int, rows) -> LinearCode:
    """The code of length n spanned by ``rows``, built once; one walk then fills in d."""
    code = LinearCode(CodeSpec(q, n, len(rows), 1, CONSTRUCTED), rows)
    code.spec = replace(code.spec, d=min_distance(code))
    return code


def extend_parity(c: LinearCode) -> LinearCode:
    """Append an overall parity bit: weights become even and d becomes d + (d mod 2).

    That d is exact when c's is (MacWilliams & Sloane, ch. 1), so the status
    carries over: an odd d's weight-d words gain a 1 and all others already
    weigh d + 1 or more; an even d's weight-d words keep their weight.
    """
    if c.q != 2:
        raise ParameterError("parity extension applies to binary codes only")
    rows = [row + [sum(row) % 2] for row in c.generator]
    d = c.spec.d + (c.spec.d % 2)
    return LinearCode(CodeSpec(2, c.n + 1, c.k, d, c.spec.status), rows)


def concatenate(outer: LinearCode, inner: LinearCode) -> LinearCode:
    """Concatenated code: outer over GF(2^b) composed with a binary [n_i, b, d_i] inner."""
    ospec = outer.spec
    b = ospec.q.bit_length() - 1
    if inner.q != 2:
        raise ParameterError("inner code must be binary")
    if inner.k != b:
        raise ParameterError(
            f"inner dimension {inner.k} must equal log2 of outer field size ({b})"
        )
    n_out = ospec.n * inner.n
    k_out = ospec.k * b
    d_out = ospec.d * inner.spec.d
    words = [[0] * inner.n]  # words[s]: the inner codeword of symbol s's bits
    for s in range(1, 1 << b):
        low_bit = (s & -s).bit_length() - 1
        words.append([x ^ y for x, y in zip(words[s & (s - 1)], inner.generator[low_bit])])
    rows = [[x for s in row for x in words[s]] for row in _scaled_rows(ospec.q, outer.generator)]
    if 2**k_out <= ENUMERATION_CAP:
        code = _enumerated(2, n_out, rows)
        if code.spec.d < d_out:
            raise ParameterError("concatenated distance fell below the product bound")
        return code
    return LinearCode(CodeSpec(2, n_out, k_out, d_out, TABLE_KNOWN), rows)


def gv_exists(n: int, k: int, d: int) -> bool:
    """Gilbert-Varshamov sufficient condition: V(n, d-1) < 2^(n-k+1), exact.

    V(n, d-1) = C(n, 0..d-1) summed is below 2^(n-k+1) exactly when its bit
    length is at most n-k+1, and binom_sum_bit_lengths gives that length.
    """
    if not (1 <= k <= n) or not (1 <= d <= n):
        raise ParameterError("need 1 <= k <= n and 1 <= d <= n")
    return binom_sum_bit_lengths(n, [d - 1])[0] <= n - k + 1


def gv_max_ks(n: int, ds) -> list[int]:
    """gv_max_k(n, d) for each d in ``ds``, from one walk up binomial row n.

    The largest k with V(n, d-1) < 2^(n-k+1) is n + 1 minus the bit length
    of V(n, d-1), clipped to 0..n.  binom_sum_bit_lengths gives every such
    length from bounds on the row, and expands a sum exactly only where its
    bounds straddle a power of two.
    """
    ds = list(ds)
    if not all(1 <= d <= n for d in ds):
        raise ParameterError("need 1 <= d <= n")
    bits = binom_sum_bit_lengths(n, [d - 1 for d in ds])
    return [min(max(n + 1 - b, 0), n) for b in bits]


def gv_max_k(n: int, d: int) -> int:
    """Largest k certified by the exact GV comparison; 0 if none."""
    return gv_max_ks(n, [d])[0]


def griesmer_length(q: int, k: int, d: int) -> int:
    """Griesmer (1960) bound: every [n, k, d]_q code has n >= sum_{i<k} ceil(d/q^i).

    The terms are 1 once q^i >= d, so the sum takes O(log d) steps.
    """
    total, i, qi = 0, 0, 1
    while i < k and qi < d:
        total += -(-d // qi)
        i += 1
        qi *= q
    return total + (k - i)


_RATE_BITS = 160
_RATE_SCALED = 6 * _log2_fixed(3, 1, _RATE_BITS) - (8 << _RATE_BITS)  # 6*log2(3) - 8


def lemma62_params(t: int) -> CodeSpec:
    """GV-certified family [8t, floor((6 log2 3 - 8) t), 2t]."""
    if t < 1:
        raise ParameterError("t must be >= 1")
    k = (_RATE_SCALED * t) >> _RATE_BITS
    spec = CodeSpec(2, 8 * t, k, 2 * t, GV_EXISTS)
    if not gv_exists(spec.n, spec.k, spec.d):
        raise ParameterError(f"GV cross-check failed for t={t}")
    return spec


class CodeTable:
    """Best-known distances and upper bounds keyed by (q, n, k).

    Rows of status hypothetical are validated and accepted but not stored.
    """

    def __init__(self):
        self.known: dict[tuple[int, int, int], int] = {}
        self.upper: dict[tuple[int, int, int], int] = {}
        # known, grouped by length: (q, n) -> {k: d}
        self._known_by_length: dict[tuple[int, int], dict[int, int]] = {}

    def add(self, q: int, n: int, k: int, d: int, status: str) -> None:
        key = (q, n, k)
        if status in (TABLE_KNOWN, CONSTRUCTED, GV_EXISTS):
            if d > self.known.get(key, 0):
                self.known[key] = d
                self._known_by_length.setdefault((q, n), {})[k] = d
        elif status == "upper":
            if d < self.upper.get(key, 1 << 62):
                self.upper[key] = d
        elif status != HYPOTHETICAL:
            raise ParameterError(f"unknown status {status!r}")

    def best_known(self, q: int, n: int, k: int) -> int | None:
        return self.known.get((q, n, k))

    def upper_bound(self, q: int, n: int, k: int) -> int | None:
        return self.upper.get((q, n, k))

    def best_k_at_distance(self, q: int, n: int, d_min: int) -> int:
        """Largest known-constructible k at length n with distance >= d_min."""
        at_length = self._known_by_length.get((q, n), {})
        best = max((k for k, d in at_length.items() if d >= d_min), default=0)
        if n >= d_min:
            best = max(best, 1)  # repetition code
        return best


def read_csv_rows(path, header_field: str, nfields: int):
    """Yield (line, stripped fields) for each data row of a CSV file.

    Blank rows and rows starting with '#' are skipped, as is a first row
    whose first field is ``header_field``; any other row must have exactly
    ``nfields`` fields.
    """
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            if ln == 1 and row[0].strip().lower() == header_field:
                continue
            if len(row) != nfields:
                raise ParseError(f"{path}: line {ln}: expected {nfields} fields, got {len(row)}")
            yield ln, [x.strip() for x in row]


def load_code_table(path) -> CodeTable:
    """CSV with header q,n,k,d,status; status 'table' normalizes to table-known."""
    table = CodeTable()
    for ln, row in read_csv_rows(path, "q", 5):
        try:
            q, n, k, d = (int(x) for x in row[:4])
            table.add(q, n, k, d, TABLE_KNOWN if row[4] == "table" else row[4])
        except ValueError as exc:  # ParameterError from add() included
            raise ParseError(f"{path}: line {ln}: {exc}") from None
    return table


@functools.cache
def builtin_code_table() -> CodeTable:
    """The packaged code table, loaded once and shared: callers must not add to it."""
    return load_code_table(files("latpack").joinpath("data/codes.csv"))


def dual_hamming_7_3_4() -> LinearCode:
    """The [7,3,4] simplex code (all nonzero columns of weight-3 space)."""
    gen = [
        [1, 0, 0, 1, 0, 1, 1],
        [0, 1, 0, 1, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 1],
    ]
    return LinearCode(CodeSpec(2, 7, 3, 4, CONSTRUCTED), gen)


def extended_hamming_8_4_4() -> LinearCode:
    gen = [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
    ]
    return LinearCode(CodeSpec(2, 8, 4, 4, CONSTRUCTED), gen)


def single_parity_3_2_2() -> LinearCode:
    return LinearCode(CodeSpec(2, 3, 2, 2, CONSTRUCTED), [[1, 0, 1], [0, 1, 1]])


def write_generator(code: LinearCode, fh) -> None:
    """Text format: first line "q n k", then k rows of n symbols."""
    write_int_rows(fh, [code.q, code.n, code.k], code.generator)


def read_generator(fh, check=None) -> LinearCode:
    """Read the write_generator format; the minimum distance is enumerated.

    ``check(q, n)``, if given, may reject the header's q and n before the walk.
    """
    (q, n, _), rows = read_int_rows(fh, "generator", "q n k")
    if check is not None:
        check(q, n)
    return _enumerated(q, n, rows)
