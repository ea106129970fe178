"""Property tests for the shared elimination, rounding and solving routines.

One HNF elimination serves `hnf` and `hnf_basis`, one GF(q) elimination
serves `gf_rank` and `gf_solve`, and one round-half-even renderer
(`format_decimal`) prints every margin and logarithm; each property below
checks one of them against an independent oracle (Gram determinants,
brute-force spans, the polynomial membership criterion, `decimal`
formatting, a `binom_sum` scan).  The table-driven GF(q) elimination is
also checked against one that calls `gf_mul` for every entry.  The
binomial prefix sums are checked against `math.comb` and against the
one-coefficient walk of `tests/binom_reference.py`, their bit lengths from
bounds on the row against the exact sums (also with
the bounds' precision patched down, so that the exact fallback decides),
the GV dimensions against the GV condition itself, the memoized base logs
against the fixed-point kernel, and the exact power-product order, with
`LogDensity`'s `>` and `<` on it, against `Fraction`.  The rendering of a
density's {base: exponent} map is checked against the lowest-terms rational
rendering it replaced, and `log2_fraction`'s bracketed products against the
full expansion they replaced, bit for bit, also where only that expansion
can decide (`tests/log2_reference.py`).  The integral
Gram-Schmidt step that `gram_det` shares with LLL is checked against the
Bareiss determinant of the Gram matrix it replaced (`tests/gram_reference.py`).
Echelon bases solve by back-substitution along their own pivots, checked
against solves through the reference HNF (`tests/hnf_reference.py`); rank
N-1 sum-zero echelon bases take their Gram determinant from their pivots,
checked against the Bareiss oracle, and every other basis (rows shuffled,
or ending rather than starting at distinct columns) reaches `gso_extend`
and is refused by the solver.  The one Gray-code codeword walk that
serves every field, and the concatenated rows built from the same scaled
rows, are checked against the recursive walk and the symbol-by-symbol
builder they replaced (`tests/codes_reference.py`); preimage lattices
lifted by the parity walk are checked against the GF(2) solve per codeword
(`tests/lift_reference.py`).  The parity rule d + (d mod 2) is checked
against a walk of the extended code, and membership by repeated division by
x - 1 against the derivative criterion it replaced
(`tests/craig_reference.py`).
"""

import itertools
import math
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latpack import exactnum
from latpack.codes import (
    CONSTRUCTED,
    CodeSpec,
    LinearCode,
    concatenate,
    extend_parity,
    gf_mul,
    gf_rank,
    gf_solve,
    gv_exists,
    gv_max_k,
    gv_max_ks,
    min_distance,
)
from latpack.craig import MAX_L, CraigParams, LogDensity, craig_basis, membership
from latpack.errors import ParameterError, RankError
from latpack.exactnum import (
    LOG2_FRACTION_BITS,
    IntMatrix,
    _CHUNK,
    _base_log,
    _log2_fixed,
    binom_sum,
    binom_sum_bit_lengths,
    binom_sums,
    compare_power_products,
    echelon_pivots,
    format_decimal,
    gram_det,
    hnf,
    hnf_basis,
    log2_fraction,
    log2_of,
    next_prime,
    solve_left,
)
from latpack.lift import _candidate_ms, _preimage_lattice
from latpack.records import RecordEntry, RecordTable, compare

import binom_reference
import codes_reference
import craig_reference
import gram_reference
import hnf_reference
import lift_reference
import log2_reference

settings.register_profile("latpack", max_examples=150, deadline=None)
settings.load_profile("latpack")


@st.composite
def int_matrices(draw):
    """Up to 8 rows, wide or tall, dense or nonzero only in a band right of
    the diagonal (as in the short Craig basis), so pivot rows reach into the
    columns of later pivots and the final reduction pass has work to do."""
    rows = draw(st.integers(1, 8))
    cols = max(1, rows + draw(st.integers(-2, 2)))
    band = draw(st.sampled_from([cols, 2, 3]))
    entry = st.integers(-9, 9)
    return IntMatrix(
        [[draw(entry) if 0 <= j - i < band else 0 for j in range(cols)] for i in range(rows)]
    )


def is_hermite(rows) -> bool:
    """Pivots strictly increase to the right and are positive; entries above
    a pivot lie in [0, pivot)."""
    prev = -1
    for i, row in enumerate(rows):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None or c <= prev or row[c] <= 0:
            return False
        if any(not 0 <= rows[t][c] < row[c] for t in range(i)):
            return False
        prev = c
    return True


@given(int_matrices())
def test_hnf_transform_and_form(M):
    try:
        H, U = hnf(M)
    except RankError:
        assert gram_det(M) == 0
        return
    assert U.matmul(M) == H
    assert gram_det(U) == 1
    assert is_hermite(H.m)
    assert hnf_basis(M) == H


@st.composite
def degenerate_matrices(draw):
    """Up to 6 rows of up to 6 columns, so often more rows than columns, with
    some rows zero or a combination of the rows before them."""
    cols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(cols)])
        else:
            rows.append(draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)))
    return IntMatrix(rows)


@given(st.one_of(int_matrices(), degenerate_matrices()))
def test_gram_det_matches_bareiss_reference(M):
    assert gram_det(M) == gram_reference.gram_det(M)


@given(int_matrices(), st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_hnf_basis_of_generating_set(M, coeffs):
    assume(any(any(r) for r in M.m))
    extra = [sum(c * row[j] for c, row in zip(coeffs, M.m)) for j in range(M.cols)]
    B = hnf_basis(IntMatrix(M.m + [extra]))
    assert is_hermite(B.m)
    assert all(solve_left(B, row) is not None for row in M.m)
    if gram_det(M) != 0:
        # A dependent extra row leaves the lattice, so the basis is M's HNF.
        assert B == hnf(M)[0]


@st.composite
def echelon_bases(draw):
    """Up to 7 columns, rows in order of strictly increasing pivot columns.

    Each row is zero left of its pivot and free right of it (HNF output,
    the Craig basis, lifted lattices).  Pivot entries are nonzero, of either
    sign and any size up to 9."""
    cols = draw(st.integers(1, 7))
    pivots = sorted(draw(st.permutations(range(cols)))[: draw(st.integers(1, cols))])
    entry = st.integers(-9, 9)
    rows = []
    for pc in pivots:
        row = [draw(entry) if c > pc else 0 for c in range(cols)]
        row[pc] = draw(entry.filter(bool))
        rows.append(row)
    return IntMatrix(rows)


@st.composite
def other_forms(draw, bases):
    """A basis drawn from ``bases`` with its rows shuffled and, half the
    time, its columns reversed, so that the rows end rather than start at
    distinct columns (the form of the earlier Craig rows); often no longer
    echelon."""
    rows = draw(bases).m
    if draw(st.booleans()):
        rows = [row[::-1] for row in rows]
    return IntMatrix(draw(st.permutations(rows)))


def lattice_vectors(data, B):
    """An integer combination of B's rows, moved off the lattice half the time."""
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=B.rows, max_size=B.rows))
    v = [sum(c * row[j] for c, row in zip(coeffs, B.m)) for j in range(B.cols)]
    if data.draw(st.booleans()):
        bump = data.draw(st.lists(st.integers(-1, 1), min_size=B.cols, max_size=B.cols))
        v = [a + b for a, b in zip(v, bump)]
    return v


def reference_solve(B, v):
    """x with x*B = v via the reference HNF (H, U), or None."""
    H, U = hnf_reference.hnf(B)
    residual, x = list(v), [0] * B.rows
    for hrow, urow in zip(H.m, U.m):
        pc = next(c for c, a in enumerate(hrow) if a)
        q, r = divmod(residual[pc], hrow[pc])
        if r:
            return None
        residual = [a - q * b for a, b in zip(residual, hrow)]
        x = [a + q * b for a, b in zip(x, urow)]
    return None if any(residual) else x


@given(echelon_bases(), st.data())
def test_echelon_back_substitution_matches_hnf_reference(B, data):
    v = lattice_vectors(data, B)
    with mock.patch.object(exactnum, "hnf", side_effect=AssertionError("echelon B reached hnf")):
        x = solve_left(B, v)
    assert x == reference_solve(B, v)


@st.composite
def mixed(draw, bases):
    """A basis drawn from ``bases`` with one row added to another: the same
    lattice, often no longer echelon."""
    rows = [list(r) for r in draw(bases).m]
    assume(len(rows) >= 2)
    i, j = draw(st.permutations(range(len(rows))))[:2]
    rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows)


@given(st.one_of(mixed(echelon_bases()), other_forms(echelon_bases())), st.data())
def test_non_echelon_bases_solve_through_hnf(M, data):
    # No basis solves through the HNF any more: one that is not echelon is
    # refused before any solve.
    assume(exactnum.echelon_pivots(M) is None)
    v = lattice_vectors(data, M)
    with mock.patch.object(exactnum, "hnf", side_effect=AssertionError("reached hnf")):
        with pytest.raises(ParameterError, match="echelon"):
            solve_left(M, v)


@st.composite
def sum_zero_echelon_bases(draw):
    """Rank N-1 in Z^N with every row summing to 0, in pivot order.

    Row i has a nonzero pivot at column i and free entries right of it;
    column N-1 is minus the sum of the rest."""
    cols = draw(st.integers(2, 7))
    entry = st.integers(-9, 9)
    rows = []
    for pc in range(cols - 1):
        row = [draw(entry) if pc < c < cols - 1 else 0 for c in range(cols)]
        row[pc] = draw(entry.filter(bool))
        row[cols - 1] = -sum(row)
        rows.append(row)
    return IntMatrix(rows)


@given(sum_zero_echelon_bases())
def test_pivot_volume_matches_gram_reference(B):
    with mock.patch.object(exactnum, "gso_extend", side_effect=AssertionError("reached GSO")):
        assert gram_det(B) == gram_reference.gram_det(B)


def pivot_volume_applies(M) -> bool:
    return (M.rows == M.cols - 1 and not any(sum(r) for r in M.m)
            and exactnum.echelon_pivots(M) is not None)


@given(st.one_of(int_matrices(), echelon_bases(), mixed(sum_zero_echelon_bases()),
                 other_forms(sum_zero_echelon_bases())))
def test_other_bases_reach_gso_extend(M):
    with mock.patch.object(exactnum, "gso_extend", wraps=exactnum.gso_extend) as spy:
        assert gram_det(M) == gram_reference.gram_det(M)
    assert spy.called != pivot_volume_applies(M)


def test_gram_det_pivot_case_examples():
    # Sum-zero and rank N-1 but not echelon: both rows start at column 0
    # and end at column 2.
    M = IntMatrix([[1, 1, -2], [1, -2, 1]])
    assert not pivot_volume_applies(M)
    with mock.patch.object(exactnum, "gso_extend", wraps=exactnum.gso_extend) as spy:
        assert gram_det(M) == 27
    assert spy.called
    # Echelon and rank N-1 but the rows do not sum to 0.
    M = IntMatrix([[2, 1, 0], [0, 3, 1]])
    with mock.patch.object(exactnum, "gso_extend", wraps=exactnum.gso_extend) as spy:
        assert gram_det(M) == gram_reference.gram_det(M) == 41
    assert spy.called


@st.composite
def craig_vectors(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, (n + 1) // 2))
    l1 = next_prime(n + 1)
    p = CraigParams(n, m, draw(st.sampled_from([l1, next_prime(l1 + 1)])))
    rows = craig_basis(p).basis.m
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n + 1)]
    if draw(st.booleans()):
        bump = draw(st.lists(st.integers(-1, 1), min_size=n + 1, max_size=n + 1))
        v = [a + b for a, b in zip(v, bump)]
    return p, rows, v


@given(craig_vectors())
def test_solve_left_agrees_with_membership(case):
    p, rows, v = case
    x = solve_left(IntMatrix(rows), v)
    assert (x is not None) == membership(p, v)
    if x is not None:
        assert [sum(c * r[j] for c, r in zip(x, rows)) for j in range(len(v))] == v


@st.composite
def craig_vectors_near_and_off(draw):
    """A(n, m, l) with m up to (n+1)/2, and a lattice vector, a perturbed one or a random one.

    A perturbation adds c * (x-1)^i * x^j with 0 < i < m and c a unit mod l,
    which keeps f(1) = 0 and the Taylor coefficients below i, so the first
    i divisions by x - 1 pass and the next one decides.
    """
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, (n + 1) // 2))
    first = next_prime(n + 1)
    p = CraigParams(n, m, draw(st.sampled_from([first, next_prime(first + 1)])))
    kind = draw(st.sampled_from(["member", "perturbed", "random"]))
    if kind == "random":
        return p, draw(st.lists(st.integers(-p.l, p.l), min_size=n + 1, max_size=n + 1))
    rows = craig_basis(p).basis.m
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n + 1)]
    if kind == "perturbed" and m > 1:
        i = draw(st.integers(1, m - 1))
        j = draw(st.integers(0, n - i))
        c = draw(st.integers(1, p.l - 1)) * draw(st.sampled_from([1, -1]))
        bump = craig_reference.binomial_row(i, n + 1)
        v = [a + c * b for a, b in zip(v, [0] * j + bump[: n + 1 - j])]
    return p, v


@given(craig_vectors_near_and_off())
@settings(max_examples=300)
def test_membership_matches_derivative_reference(case):
    p, v = case
    assert membership(p, v) == craig_reference.membership(p.m, p.l, v)


def combine(q, coeffs, rows):
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [a ^ gf_mul(q, c, b) for a, b in zip(out, row)]
    return out


@given(st.sampled_from([2, 4, 8]), st.data())
def test_gf_solve_and_rank_agree_with_brute_force_span(q, data):
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    symbol = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=k, max_size=k))
    if data.draw(st.booleans()):
        target = combine(q, data.draw(st.lists(symbol, min_size=k, max_size=k)), rows)
    else:
        target = data.draw(st.lists(symbol, min_size=n, max_size=n))
    span = {tuple(combine(q, c, rows)) for c in itertools.product(range(q), repeat=k)}
    inside = tuple(target) in span
    x = gf_solve(q, rows, target)
    assert (x is not None) == inside
    if x is not None:
        assert combine(q, x, rows) == target
    assert (gf_rank(q, rows + [target]) == gf_rank(q, rows)) == inside


def _gf_eliminate_per_entry(q, work, ncols):
    """Reduced row echelon form over GF(q) with one gf_mul call per entry, in place."""
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = next(e for e in range(1, q) if gf_mul(q, work[rank][c], e) == 1)
        work[rank] = [gf_mul(q, inv, x) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [x ^ gf_mul(q, f, y) for x, y in zip(work[i], work[rank])]
        pivots.append(c)
    return pivots


def _gf_solve_per_entry(q, rows, target):
    """x with sum x_i * rows[i] = target, reduced along the pivot rows of [rows | I]."""
    n, k = len(rows[0]), len(rows)
    aug = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(rows)]
    pivots = _gf_eliminate_per_entry(q, aug, n)
    acc = list(target) + [0] * k
    for c, row in zip(pivots, aug):
        f = acc[c]
        acc = [a ^ gf_mul(q, f, b) for a, b in zip(acc, row)]
    return None if any(acc[:n]) else acc[n:]


@given(st.sampled_from([2, 4, 8]), st.data())
def test_gf_solve_and_rank_match_per_entry_elimination(q, data):
    k = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 8))
    symbol = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=k, max_size=k))
    assert gf_rank(q, rows) == len(_gf_eliminate_per_entry(q, [list(r) for r in rows], n))
    for _ in range(3):
        if data.draw(st.booleans()):
            target = combine(q, data.draw(st.lists(symbol, min_size=k, max_size=k)), rows)
        else:
            target = data.draw(st.lists(symbol, min_size=n, max_size=n))
        assert gf_solve(q, rows, target) == _gf_solve_per_entry(q, rows, target)


@st.composite
def generators(draw, q, k, max_n):
    """A full-rank k x n generator matrix over GF(q), k <= n <= max_n."""
    n = draw(st.integers(k, max_n))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=k, max_size=k))
    assume(gf_rank(q, rows) == k)
    return rows


@given(st.sampled_from([2, 4, 8]), st.data())
def test_min_distance_and_concatenate_match_reference_walks(q, data):
    # Every field walks the GF(2) span of its alpha^t-scaled rows; the
    # reference walks the GF(q) span by recursion and builds the
    # concatenated rows symbol by symbol.
    b = q.bit_length() - 1
    k = data.draw(st.integers(1, {2: 6, 4: 3, 8: 2}[q]))
    rows = data.draw(generators(q, k, 7))
    outer = LinearCode(CodeSpec(q, len(rows[0]), k, 1, CONSTRUCTED), rows)
    assert min_distance(outer) == codes_reference.min_distance(q, rows)
    inner_rows = data.draw(generators(2, b, b + 3))
    inner = LinearCode(CodeSpec(2, len(inner_rows[0]), b, 1, CONSTRUCTED), inner_rows)
    got = concatenate(outer, inner)
    want = codes_reference.concatenated_rows(q, rows, inner_rows)
    assert got.generator == want
    assert got.spec.d == codes_reference.min_distance(2, want)


@given(st.data())
def test_parity_extension_keeps_d_exact(data):
    # d + (d mod 2) is the extended code's exact distance, so no walk is needed.
    k = data.draw(st.integers(1, 8))
    rows = data.draw(generators(2, k, 16))
    n = len(rows[0])
    probe = LinearCode(CodeSpec(2, n, k, 1, CONSTRUCTED), rows)
    code = LinearCode(CodeSpec(2, n, k, min_distance(probe), CONSTRUCTED), rows)
    ext = extend_parity(code)
    assert ext.spec.d == min_distance(ext)
    assert ext.spec.status == CONSTRUCTED


@st.composite
def preimage_cases(draw):
    """Craig parameters with l one of the first two odd primes >= n+1, and even-weight rows."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, (n + 1) // 2))
    first = next_prime(n + 1)  # odd, as n + 1 >= 3
    l = draw(st.sampled_from([first, next_prime(first + 1)]))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = [r + [sum(r) % 2] for r in draw(st.lists(bits, min_size=1, max_size=6))]
    if draw(st.booleans()):  # a dependent row
        rows.append([x ^ y for x, y in zip(rows[0], rows[-1])])
    return CraigParams(n, m, l), rows


@given(preimage_cases())
@settings(max_examples=60)
def test_parity_walk_lift_matches_gf2_solve_reference(case):
    # A lifted basis is echelon with pivots 0..n-1, not the reference's
    # reduced HNF; equal reduced HNFs mean the same lattice.
    p, rows = case
    got = _preimage_lattice(p, rows)
    want = lift_reference.preimage_lattice(p, rows)
    assert hnf_basis(got.basis) == want.basis
    assert echelon_pivots(got.basis) == list(range(p.n))
    assert got.basis.spans() == IntMatrix(got.basis.m).spans()
    assert got.vol_sq == want.vol_sq


def _records():
    table = RecordTable()
    table.add(RecordEntry(100, "50.0000", "reference", "test", "record"))
    return table


def test_compare_margin_ties_round_to_even():
    cases = {
        Fraction(1, 20000): ("ties", "0.0000"),
        Fraction(-1, 20000): ("ties", "0.0000"),
        Fraction(-3, 20000): ("below", "-0.0002"),
        Fraction(3, 20000): ("beats", "0.0002"),
    }
    for delta, want in cases.items():
        v = compare(100, 50 + delta, _records())
        assert (v.relation, v.margin) == want, delta


@given(st.fractions(min_value=-2, max_value=2, max_denominator=10**6))
def test_compare_margin_matches_decimal_rounding(delta):
    v = compare(100, 50 + delta, _records())
    scaled = round(delta * 10000)  # Fraction.__round__ rounds half to even
    assert v.margin == f"{Decimal(scaled).scaleb(-4):.4f}"
    assert v.relation == ("beats" if scaled > 0 else "below" if scaled < 0 else "ties")


@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
       st.integers(1, 12))
@example(Fraction(5, 2 * 10**4), 4)  # ties: 0.00025 -> 0.0002, -0.00035 -> -0.0004
@example(Fraction(-7, 2 * 10**4), 4)
@example(Fraction(-1, 20), 1)  # -0.05 -> "0.0", no sign
def test_format_decimal_matches_decimal_rounding(x, digits):
    scaled = round(x * 10**digits)  # Fraction.__round__ rounds half to even
    assert format_decimal(x, digits) == f"{Decimal(scaled).scaleb(-digits):.{digits}f}"


@given(st.data())
def test_gv_max_k_is_the_largest_gv_k(data):
    n = data.draw(st.integers(1, 80))
    d = data.draw(st.integers(1, n))
    ks = [k for k in range(1, n + 1) if gv_exists(n, k, d)]
    assert gv_max_k(n, d) == (max(ks) if ks else 0)
    # the oracle itself: V(n, d-1) < 2^(n-k+1)
    assert ks == [k for k in range(1, n + 1) if binom_sum(n, d - 1) < 2 ** (n - k + 1)]


positive = st.integers(1, 10**40)


@given(positive, positive, positive, positive, st.booleans(), st.integers(1, 12))
def test_log2_of_is_monotone(a, b, c, d, near, digits):
    x = LogDensity(((a, 1), (b, -1))).factors
    # a neighbour within c parts in 10^50 of x, or an unrelated value
    y = LogDensity(((a * 10**50 + c, 1), (b, -1), (10, -50)) if near else ((c, 1), (d, -1)))
    y = y.factors
    if compare_power_products(y, x) < 0:
        x, y = y, x
    assert Fraction(log2_of(x, digits)) <= Fraction(log2_of(y, digits))


@given(st.integers(-10**6, 10**6), st.integers(1, 8))
def test_log2_of_rounds_ties_to_even(j, digits):
    # Stub the kernel's squaring loop so the value lies exactly halfway
    # between two renderings: T / 2^(b+1) = (2j+1) / 2^(digits+1), an odd
    # multiple of half a unit in the last decimal place.
    def tie(e, mant, frac_bits):
        return (2 * j + 1) << (frac_bits - digits)

    exact = Fraction(2 * j + 1, 2 ** (digits + 1))
    with mock.patch.object(exactnum, "_log2_squarings", side_effect=tie) as kernel:
        got = log2_of({3: 1}, digits)
    kernel.assert_called_once()  # log2_of bypasses the memoized base logs
    want = Decimal(exact.numerator) / Decimal(exact.denominator)
    assert got == str(want.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN))
    # the rendering is one of the two neighbours, and its last digit is even
    assert abs(Fraction(got) - exact) == Fraction(1, 2 * 10**digits)
    assert int(got[-1]) % 2 == 0


@given(st.data())
def test_binom_sums_match_comb(data):
    n = data.draw(st.integers(0, 150))
    rs = data.draw(st.lists(st.integers(0, n), max_size=8))
    assert binom_sums(n, rs) == [sum(math.comb(n, i) for i in range(r + 1)) for r in rs]


@given(st.data())
def test_gv_max_ks_matches_gv_max_k(data):
    n = data.draw(st.integers(1, 400))
    ds = data.draw(st.lists(st.integers(1, n), max_size=8))
    assert gv_max_ks(n, ds) == [gv_max_k(n, d) for d in ds]


@st.composite
def binom_rows(draw):
    """A row n <= 3000 and a list of r in 0..n for binom_sums.

    The r are a running sum of gaps of lengths around one chunk of
    binom_sum_bit_lengths' walk, with 0, n and repeats mixed in and the list
    shuffled, so segments start, end and split at and beside chunk edges.
    """
    n = draw(st.integers(0, 3000))
    gap = st.one_of(
        st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
        st.integers(0, n),
    )
    r = draw(st.integers(0, n))
    rs = [r]
    for g in draw(st.lists(gap, max_size=6)):
        r = min(n, r + g)
        rs.append(r)
    rs += draw(st.lists(st.sampled_from([0, n, *rs]), max_size=3))
    return n, draw(st.permutations(rs))


@given(binom_rows())
def test_binom_sums_match_walk_reference(row):
    n, rs = row
    sums = binom_reference.binom_sums(n, rs)
    assert binom_sums(n, rs) == sums
    assert binom_sum_bit_lengths(n, rs) == [v.bit_length() for v in sums]


def _gv_k_by_definition(n: int, volume: int) -> int:
    """Largest k in 1..n with volume < 2^(n-k+1), the GV condition; 0 if none."""
    return max((k for k in range(1, n + 1) if volume < 1 << (n - k + 1)), default=0)


@given(binom_rows())
@settings(max_examples=40)
def test_gv_max_ks_match_walk_reference(row):
    n, rs = row
    assume(n >= 1)
    ds = [max(r, 1) for r in rs]
    want = [_gv_k_by_definition(n, v) for v in binom_reference.binom_sums(n, [d - 1 for d in ds])]
    assert gv_max_ks(n, ds) == want


@pytest.mark.parametrize("n", [8190, 16380])
def test_binom_sums_on_sweep_windows(n):
    # The r that sweep_dimension asks for, 8m - 1 for each candidate m, and
    # those of a scan of every m with 8m <= n.
    full = [8 * m - 1 for m in range(1, n // 8 + 1)]
    window = [8 * m - 1 for m in _candidate_ms(n) if 8 * m <= n]
    sums = dict(zip(full, binom_reference.binom_sums(n, full)))
    assert binom_sums(n, window) == [sums[r] for r in window]
    ks = [_gv_k_by_definition(n, sums[r]) for r in window]
    assert gv_max_ks(n, [r + 1 for r in window]) == ks
    with mock.patch.object(exactnum, "binom_sums", wraps=exactnum.binom_sums) as exact:
        for rs in (window, full):
            assert binom_sum_bit_lengths(n, rs) == [sums[r].bit_length() for r in rs]
    exact.assert_not_called()  # no sum here lies within its bounds of a power of two


def _exact_bit_lengths(n: int, rs) -> list[int]:
    return [v.bit_length() for v in binom_sums(n, rs)]


def test_binom_sum_bit_lengths_every_r_of_small_rows():
    # The whole row in one call walks term by term; each r alone, past
    # _CHUNK, jumps and bounds its sum by the descending series.
    for n in range(201):
        want = _exact_bit_lengths(n, range(n + 1))
        assert binom_sum_bit_lengths(n, range(n + 1)) == want, n
        assert binom_sum_bit_lengths(n, range(n, -1, -1)) == want[::-1], n
        assert [binom_sum_bit_lengths(n, [r])[0] for r in range(n + 1)] == want, n


@pytest.mark.parametrize("n, r, power", [
    (23, 3, 11),  # the Golay sphere: 1 + 23 + 253 + 1771
    (90, 2, 12),  # 1 + 90 + 4005
    *[(2**j - 1, 1, j) for j in (2, 3, 8, 13, 16)],  # Hamming spheres
    *[(2 * t + 1, t, 2 * t) for t in (0, 1, 5, 50, 2047)],  # half of an odd row
    *[(n, n, n) for n in (0, 1, 7, 64, 4096)],  # the whole row
])
def test_binom_sum_bit_lengths_at_exact_powers_of_two(n, r, power):
    assert binom_sum(n, r) == 2**power
    assert binom_sum_bit_lengths(n, [r]) == [power + 1]
    assert binom_sum_bit_lengths(n, [max(r - 1, 0), r]) == _exact_bit_lengths(n, [max(r - 1, 0), r])


@pytest.mark.parametrize("n", [2, 3, 40, 41, 999, 1000, 4096, 4097, 16380, 16381])
def test_binom_sum_bit_lengths_at_the_closed_form_edge(n):
    # 2r >= n - 1 takes the closed form; the r just below it walk the row.
    rs = list(range(max((n - 1) // 2 - 1, 0), (n - 1) // 2 + 3))
    assert binom_sum_bit_lengths(n, rs) == _exact_bit_lengths(n, rs)
    for r in rs:
        assert binom_sum_bit_lengths(n, [r]) == _exact_bit_lengths(n, [r])


@pytest.mark.parametrize("constant, value", [("_BOUND_BITS", 4), ("_TAIL_BITS", 1)])
def test_binom_sum_bit_lengths_fall_back_to_exact_sums_at_low_precision(constant, value):
    # Bounds kept to 4 bits, or a series stopped at a term below half its
    # sum, leave many sums straddling a power of two; the exact binom_sums
    # decides those, and every answer stays exact.
    cases = [(n, range(n + 1)) for n in (30, 120, 257)]
    cases += [(n, range(r0, n, 70)) for n in (300, 1001) for r0 in range(0, 70, 9)]
    cases += [(n, [r]) for n in range(60, 400, 21) for r in range(0, n // 2, 5)]
    want = [_exact_bit_lengths(n, rs) for n, rs in cases]
    with (mock.patch.object(exactnum, constant, value),
          mock.patch.object(exactnum, "binom_sums", wraps=exactnum.binom_sums) as exact):
        assert [binom_sum_bit_lengths(n, rs) for n, rs in cases] == want
    exact.assert_called()


@given(st.one_of(st.integers(1, 10**4), st.integers(1, 10**40)))
def test_memoized_base_log_matches_kernel(base):
    assert _base_log(base) == _log2_fixed(base, 1, 64)
    assert _base_log(base) == _base_log(base)
    assert _base_log.cache_info().maxsize is not None  # bounded


def _order(x, y) -> int:
    return (x > y) - (x < y)


def _pow2_times_order(t, x, y) -> int:
    """Order of 2^t * x against y, exact for any integer t."""
    return _order(x << t, y) if t >= 0 else _order(x, y << -t)


@given(st.integers(1, 10**9), st.integers(1, 10**9), st.integers(0, 9))
def test_log2_fixed_error_bound(num, den, bits):
    # The stated bound is T <= 2^bits log2(num/den) < T + 1 + 2^-61; the exact
    # check of the upper end is against T + 1, which only a value within
    # 2^-61 of the next unit could pass the bound and fail.
    t = _log2_fixed(num, den, bits)
    x, y = den ** (1 << bits), num ** (1 << bits)  # (num/den)^(2^bits) = y/x
    assert _pow2_times_order(t, x, y) <= 0
    assert _pow2_times_order(t + 1, x, y) > 0


@given(st.integers(2, 10**12))
def test_log2_fixed_error_bound_at_64_bits(base):
    # At the comparator's 64 bits, against 192 bits of the same kernel:
    # T64 <= 2^64 log2(base) < T64 + 1.
    t64 = _log2_fixed(base, 1, 64)
    t192 = _log2_fixed(base, 1, 192)
    assert t64 << 128 <= t192
    assert t192 + 2 <= (t64 + 1) << 128


def _product(factors) -> Fraction:
    value = Fraction(1)
    for base, e in factors.items():
        value *= Fraction(base) ** e
    return value


power_products = st.dictionaries(st.integers(1, 60), st.integers(-40, 40), max_size=5)


@given(power_products, power_products)
def test_compare_power_products_matches_fraction_order(a, b):
    assert compare_power_products(a, b) == _order(_product(a), _product(b))


@given(st.integers(2, 10**6), st.integers(2, 12), st.integers(-30, 30), st.integers(2, 10**6))
def test_compare_power_products_equal_products_written_differently(b, j, e, c):
    # Equal values over different bases: the logs cannot separate them, so
    # the answer 0 has to come from the expansion.
    assume(c not in (b, b**j))
    assert compare_power_products({b: j * e}, {b**j: e}) == 0
    assert compare_power_products({b * c: e}, {b: e, c: e}) == 0
    assert compare_power_products({b**j: e, c: 1}, {b: j * e, c: 1}) == 0


@given(st.integers(2, 1000), st.integers(1, 5), st.integers(-3, 3))
def test_compare_power_products_below_log_resolution(b, e, delta):
    # (b^j + delta)^e against b^(j e) with b^j > 2^72: the logs differ by
    # less than their error, and only the expansion decides.
    j = 72 // b.bit_length() + 2
    assert compare_power_products({b**j + delta: e}, {b: j * e}) == _order(delta, 0)


def test_compare_power_products_examples():
    assert compare_power_products({4: 1}, {2: 2}) == 0
    assert compare_power_products({6: 1}, {2: 1, 3: 1}) == 0
    assert compare_power_products({}, {1: 5, 7: 0}) == 0
    assert compare_power_products({2**64 + 1: 1}, {2: 64}) == 1
    assert compare_power_products({3: 1000}, {2: 1585}) == -1  # 1000 log2 3 = 1584.96
    assert compare_power_products({2: -3}, {}) == -1


# (base, exponent) pairs as the density formulas write them: bases up to 10^6,
# often repeated (a small pool), exponents -300..300.
density_pairs = st.lists(
    st.tuples(st.one_of(st.integers(1, 10**6), st.sampled_from([1, 2, 3, 4, 6, 12])),
              st.integers(-300, 300)),
    max_size=6,
)


@given(density_pairs)
def test_log_density_renders_as_lowest_terms_oracle(pairs):
    d = LogDensity(pairs)
    assert _product(d.factors) == math.prod(Fraction(b) ** e for b, e in pairs)
    old = log2_reference.expanded(d.factors)
    for digits in range(1, 13):
        assert d.log2(digits) == log2_reference.log2_of(old, digits)
    # The unreduced expansion can change the last mantissa bit of _log2_fixed,
    # so the 192-bit values may differ by one unit; both lie within the
    # kernel's bound of the same logarithm.
    unit = Fraction(1, 1 << (LOG2_FRACTION_BITS + 1))
    assert abs(d.log2_fraction() - old.log2_fraction()) <= unit


# log2_fraction's precisions: its default, log2_of's least, and log2_of's at
# MAX_LOG2_DIGITS = 1000 digits, ceil(3.322 * 1024).
LOG2_BITS = (LOG2_FRACTION_BITS, 256, 3402)

# Maps as large as a density at the CLI caps writes, and exact powers of two
# written over other bases: those put mant exactly on a power of two, where
# brackets that are not exact cannot decide and a wrong one (a floor for the
# ceiling, say) puts T one unit low.  (b*b*c)^e over b^2e c^e makes the two
# square-and-multiply walks differ; (b*c)^e over b^e c^e would walk alike.
large_maps = st.dictionaries(st.integers(1, MAX_L), st.integers(-70000, 70000), max_size=4)
power_of_two_twins = st.builds(
    lambda b, c, e, t: LogDensity([(b * b * c, e), (b, -2 * e), (c, -e), (2, t)]).factors,
    st.integers(3, MAX_L), st.integers(3, MAX_L), st.integers(-3000, 3000),
    st.integers(-3000, 3000))


@settings(max_examples=60)
@given(st.one_of(large_maps, power_of_two_twins), st.sampled_from(LOG2_BITS))
def test_log2_fraction_equals_the_expanding_kernel(factors, frac_bits):
    want = log2_reference.expanded_log2_fraction(factors, frac_bits)
    assert log2_fraction(factors, frac_bits) == want


@pytest.mark.parametrize("frac_bits", LOG2_BITS)
@pytest.mark.parametrize("factors, expands_at", [
    ({6: 1000, 2: -1000, 3: -1000}, {192, 256}),  # num = den; 6^1000 fits 3530 bits
    ({15: 2000, 3: -2000, 5: -2000}, set(LOG2_BITS)),
    ({6: 1000, 3: -1000}, {192, 256}),  # 2^1000
    ({2: 70000}, set()),  # a power of two is its own floor and ceiling
    ({4: 500, 2: -999}, set()),
])
def test_log2_fraction_expands_only_what_its_brackets_leave_open(factors, expands_at, frac_bits):
    assert _expands_to_the_oracle(factors, frac_bits) == (frac_bits in expands_at)


def _expands_to_the_oracle(factors, frac_bits) -> bool:
    """Whether log2_fraction expanded the product; its value equals the oracle's either way."""
    with mock.patch.object(exactnum, "expand_power_product",
                           wraps=exactnum.expand_power_product) as expand:
        got = log2_fraction(factors, frac_bits)
    assert got == log2_reference.expanded_log2_fraction(factors, frac_bits)
    return expand.called


def _reduction_sensitive(frac_bits, expands):
    """{h*k: 1, h*d: -1} whose T differs from that of k/d alone.

    k/d lies just above 2^(j/2^r) times a power of two, so its log lies just
    above a multiple of 2^-frac_bits, and h moves e by one from that of
    k/d, which moves mant's last bit.  With ``expands``, k/d also lies
    2^-100 of a mantissa unit below an integer, closer than brackets at
    frac_bits + 128 bits can tell.
    """
    w = frac_bits + 64
    for r in (1, 2, 3):
        for j in range(1, 1 << r, 2):
            root = 1 << (j + (w << r))
            for _ in range(r):
                root = math.isqrt(root)  # floor(2^(w + j/2^r))
            k, d = ((root + 2) << 100, (2 << (w + 100)) + 1) if expands else (root + 1, 1 << w)
            for h in (3, 5, 7, 11, 13):
                if _log2_fixed(h * k, h * d, frac_bits) != _log2_fixed(k, d, frac_bits):
                    return {h * k: 1, h * d: -1}
    raise AssertionError(f"no reduction-sensitive case at {frac_bits} bits")


@pytest.mark.parametrize("frac_bits", LOG2_BITS)
@pytest.mark.parametrize("expands", [False, True])
def test_log2_fraction_takes_e_from_the_unreduced_expansion(frac_bits, expands):
    assert _expands_to_the_oracle(_reduction_sensitive(frac_bits, expands), frac_bits) == expands


@given(density_pairs, density_pairs)
def test_density_order_matches_expanded_fractions(a, b):
    x, y = LogDensity(a), LogDensity(b)
    want = _order(log2_reference.delta_sq(x), log2_reference.delta_sq(y))
    assert compare_power_products(x.factors, y.factors) == want
    assert (x > y) == (want > 0)
    assert (x < y) == (want < 0)
    # The same product written differently: b^e as (b^2)^e * b^-e.
    twin = LogDensity([(b * b, e) for b, e in a] + [(b, -e) for b, e in a])
    assert not x > twin and not x < twin


@given(density_pairs, st.integers(-10**6, 0), st.integers(-300, 300))
def test_log_density_rejects_nonpositive_bases(pairs, base, e):
    with pytest.raises(ParameterError):
        LogDensity([*pairs, (base, e)])
