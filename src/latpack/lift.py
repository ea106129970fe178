"""Code-to-lattice lifting and the derived construction pipelines.

The core move: reduce A(n, m, l) coordinatewise mod 2 (the image is the
even-weight [n+1, n, 2] code), pick a subcode V of dimension k with
distance >= 8m, and take the preimage, a lattice of index 2^(n-k) whose
nonzero vectors have squared norm >= 8m: center density
2^(k-n/2) m^(n/2) / (l^(m-1) (n+1)^(1/2)).  The Craig basis B has odd
pivots, so B mod 2 is unit upper triangular and the preimage is
Construction A over B (Conway & Sloane, SPLAG ch. 5): each reduced row of V
lifts by one parity walk down B's band, with no integer solve.
Everything downstream (the 8x Craig improvement, the conditional tables,
the GV pipelines, the dimension sweeps) instantiates that formula with
different code sources.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .exactnum import (
    IntMatrix,
    _span,
    div_round_half_even,
    is_prime,
    next_prime,
)
from .craig import (
    BASIS_CAP,
    CraigParams,
    IntegerLattice,
    LogDensity,
    center_density_lb,
    check_dimension,
    craig_basis,
    nearest_m,
)
from . import codes
from .codes import (
    CodeSpec,
    LinearCode,
    concatenate,
    dual_hamming_7_3_4,
    griesmer_length,
    gv_exists,
    gv_max_k,
    gv_max_ks,
    repetition,
)

__all__ = [
    "LiftResult",
    "lift_sublattice",
    "lift_with_length_n_code",
    "improve_craig_8x",
    "conditional_eval",
    "mw_beater_search",
    "pipeline_24n",
    "sweep_dimension",
    "mordell_weil_density",
    "construction_a_density",
]

SWEEP_WINDOW = 3


@dataclass
class LiftResult:
    """A lifted (or, with no code, bare) Craig lattice; density and guarantee follow from its code.

    The one check that a code backs 8m: binary, of length n or n+1, d >= 8m.
    """

    params: CraigParams
    code: CodeSpec | None
    lattice: IntegerLattice | None = None

    def __post_init__(self):
        c, p = self.code, self.params
        if c and (c.q != 2 or c.n not in (p.n, p.n + 1)):
            raise ParameterError(f"code {c} is not binary of length n or n+1 = {p.n + 1}")
        if c and c.d < 8 * p.m:
            raise ParameterError(f"code distance {c.d} is below the required 8m = {8 * p.m}")

    @property
    def k(self) -> int:
        return self.code.k if self.code else 0

    @property
    def density(self) -> LogDensity:
        return center_density_lb(self.params, self.k)

    @property
    def min_norm_guarantee(self) -> int:
        return 8 * self.params.m if self.code else 2 * self.params.m


def _preimage_lattice(p: CraigParams, code_rows) -> IntegerLattice:
    """Echelon basis of {v in A : v mod 2 in span(code_rows)}: Construction A over B.

    Row j of the Craig basis B starts at column j with an odd pivot (+-1 or
    -l), so B mod 2 is unit upper triangular.  The code rows, of length n or
    n+1, are reduced over their first n columns.  A reduced row v, with
    pivot i, lifts by one walk down the band: add B[j], for j = i..n-1,
    wherever the sum and v differ in parity at column j.  The lift is x*B
    with x 0/1 and x_i = 1; its column n is the parity of the others, as A
    mod 2 is the even-weight code.  An even-weight [n+1, k] code lifts as its
    first n columns do: the walk reads only v[j] for j < n, no reduced row
    has pivot n (that row would be e_n, of odd weight), and rows independent
    over n+1 columns stay independent over the first n.  Row i of the basis
    is the lift, or 2*B[i] off the code's pivots: echelon, with pivots
    multiplying to 2^(n-k) * (+-l^(m-1)), k the rank.
    """
    n = p.n
    base = craig_basis(p).basis
    B, spans = base.m, list(base.spans())  # spans[i] becomes row i's
    # Only each row's nonzero span is doubled, or added in the walk.
    rows = [row[:lo] + [2 * a for a in row[lo:hi]] + row[hi:] for row, (lo, hi) in zip(B, spans)]
    V = [list(v) for v in code_rows]  # reduced here, not in the caller's rows
    for i, v in zip(codes._gf_eliminate(2, V, n), V):
        row = rows[i] = [0] * (n + 1)
        for j in range(i, n):
            if (row[j] ^ v[j]) & 1:
                lo, hi = spans[j]
                row[lo:hi] = [a + b for a, b in zip(row[lo:hi], B[j][lo:hi])]
        spans[i] = _span(row)
    return IntegerLattice(IntMatrix._trusted(rows, spans))


def _lift(p: CraigParams, code: LinearCode) -> LiftResult:
    """The body of both lifts: check the code, then build its preimage under BASIS_CAP."""
    result = LiftResult(p, code.spec)  # refuses the code before any basis is built
    result.lattice = _preimage_lattice(p, code.generator) if p.n + 1 <= BASIS_CAP else None
    return result


def lift_sublattice(p: CraigParams, V: LinearCode) -> LiftResult:
    """Lift an even-weight [n+1, k, >= 8m] subcode into A(n, m, l).

    The returned density is exact; the basis itself is constructed only when
    the ambient dimension fits under BASIS_CAP (the density formula does not
    need it).
    """
    if V.n != p.n + 1:
        raise ParameterError(f"subcode length must be n+1 = {p.n + 1}")
    for row in V.generator:
        if sum(row) % 2 != 0:
            raise ParameterError("subcode is not inside the even-weight code")
    return _lift(p, V)


def lift_with_length_n_code(p: CraigParams, c: LinearCode) -> LiftResult:
    """Lift a binary [n, k, >= 8m] code: A mod 2 is fixed by its first n coordinates."""
    if c.n != p.n:
        raise ParameterError(f"code length must be n = {p.n}")
    return _lift(p, c)


def improve_craig_8x(p: int) -> LiftResult:
    """Eightfold density improvement of the best Craig lattice in dimension p-1.

    Concatenates the [floor(n/7), 1, floor(n/7)] repetition code over GF(8)
    with the binary [7, 3, 4] code, pads to length n, and lifts with k = 3;
    the density gain over the bare lattice is exactly 2^3.
    """
    n = p - 1
    if n < 1222:
        raise ParameterError("regime requires p - 1 >= 1222 (inner distance may fall short)")
    m = nearest_m(n, p)
    params = CraigParams(n, m, p)
    n7 = n // 7
    cc = concatenate(repetition(n7, 8), dual_hamming_7_3_4())
    padded_rows = [row + [0] * (n - cc.n) for row in cc.generator]
    code = LinearCode(CodeSpec(2, n, 3, cc.spec.d, codes.CONSTRUCTED), padded_rows)
    return lift_with_length_n_code(params, code)


def conditional_eval(result: LiftResult) -> str:
    """Table- and bound-backed verdict on the code a conditional row assumes.

    realized: a known code (or the exact GV bound) supplies the parameters;
    refuted-by-table: the required distance exceeds the table's upper bound;
    refuted-by-bound: the required length is below the Griesmer bound;
    open: consistent with both bounds but not known to exist.  The density
    such a code would give is result.density.
    """
    n, k, d = result.code.n, result.code.k, result.code.d
    table = codes.builtin_code_table()
    known = table.best_known(2, n, k)
    if (known is not None and known >= d) or gv_exists(n, k, d):
        return "realized"
    upper = table.upper_bound(2, n, k)
    if upper is not None and upper < d:
        return "refuted-by-table"
    if n < griesmer_length(2, k, d):
        return "refuted-by-bound"
    return "open"


def mordell_weil_density(p: int) -> LogDensity:
    """Reference density ((p+1)/12)^(p-1) / p^((p-5)/6) for dimension 2p-2."""
    if not is_prime(p) or p % 6 != 5:
        raise ParameterError("requires a prime p with p = 5 mod 6")
    return LogDensity(((p + 1, 2 * (p - 1)), (12, -2 * (p - 1)), (p, -((p - 5) // 3))))


def mw_beater_search(p: int) -> LiftResult:
    """GV-certified lattice in dimension 2p-2 denser than the reference density.

    m = floor((p-1)/16), l the next prime above 2p, and k the exact GV
    maximum for [2p-2, k, (p-1)/2] (always at least floor(0.3776 (p-1))).
    """
    mw = mordell_weil_density(p)
    if not (1667 <= p <= 2039):
        raise ParameterError("no improvement guarantee outside 1667 <= p <= 2039")
    n = 2 * p - 2
    m = (p - 1) // 16
    l = next_prime(2 * p + 1)
    d = (p - 1) // 2
    k = gv_max_k(n, d)
    k_floor = 3776 * (p - 1) // 10000
    if k < k_floor:
        raise ParameterError("exact GV scan fell below the guaranteed dimension")
    result = LiftResult(CraigParams(n, m, l), CodeSpec(2, n, k, d, codes.GV_EXISTS))
    if not result.density > mw:
        raise ParameterError(f"construction does not beat the reference density at p={p}")
    return result


def pipeline_24n(N: int) -> LiftResult:
    """Dimension N = 24t pipeline: m = floor(3t/4), k = floor(4.5312 t), d = 6t."""
    if N % 24 != 0:
        raise ParameterError("dimension must be a multiple of 24")
    if not (4104 <= N <= 8640):
        raise ParameterError("pipeline covers 4104 <= N <= 8640")
    t = N // 24
    m = (3 * t) // 4
    k = 45312 * t // 10000
    d = 6 * t
    if not gv_exists(N, k, d):
        raise ParameterError(f"GV cross-check failed for N={N}")
    return LiftResult(CraigParams(N, m, next_prime(N + 1)),
                      CodeSpec(2, N, k, d, codes.GV_EXISTS))


def _candidate_ms(n: int) -> list[int]:
    """Sweep window: around n/(2 ln n), around n/32, plus m = 1."""
    hi = max(1, -(-n // 2) - 1)
    centers = {nearest_m(n, n), max(1, div_round_half_even(n, 32))}
    cands = {1}
    for c in centers:
        for m in range(max(1, c - SWEEP_WINDOW), min(hi, c + SWEEP_WINDOW) + 1):
            cands.add(m)
    return sorted(cands)


def sweep_dimension(n: int) -> LiftResult:
    """Best density over a bounded window of m, with k from GV and the code table.

    One gv_max_ks walk up binomial row n, bounding each V(n, 8m - 1) just
    tightly enough to read its bit length, gives every GV k, and candidates
    are ranked by LogDensity's exact order.  Deterministic tie-break: higher
    density, then smaller m (max keeps the first of equal maxima, and m
    ascends).
    """
    if n < 8:
        raise ParameterError("sweep requires n >= 8")
    check_dimension(n)
    table = codes.builtin_code_table()
    l = next_prime(n + 1)
    ms = _candidate_ms(n)
    coded = [m for m in ms if 8 * m <= n]
    gv_k = dict(zip(coded, gv_max_ks(n, [8 * m for m in coded])))
    results = []
    for m in ms:
        k = 0
        if m in gv_k:
            k = max(gv_k[m], table.best_k_at_distance(2, n, 8 * m))
        code = CodeSpec(2, n, k, 8 * m, codes.GV_EXISTS) if k else None
        results.append(LiftResult(CraigParams(n, m, l), code))
    return max(results, key=lambda r: r.density)


def construction_a_density(c: CodeSpec) -> LogDensity:
    """Integer vectors congruent mod 2 to codewords: delta = min(sqrt(d), 2)^n / 2^(2n-k)."""
    if c.q != 2:
        raise ParameterError("construction applies to binary codes")
    return LogDensity(((min(c.d, 4), c.n), (2, -2 * (2 * c.n - c.k))))
