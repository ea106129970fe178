import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from latpack import svp
from latpack.errors import CapacityError, ParameterError, RankError
from latpack.exactnum import IntMatrix, gram_det, next_prime
from latpack.craig import CraigParams, craig_basis
from latpack.svp import Certificate, lll_reduce, shortest_vector, verify_min_norm

import enum_reference
import svp_cases
import svp_reference
from svp_cases import DEFAULT_QUALITY, scramble


def _inverse_diagonal(gram) -> list[Fraction]:
    """Diagonal of the inverse of a nonsingular integer matrix, by exact
    Gauss-Jordan elimination over Fraction."""
    n = len(gram)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n + i] for i in range(n)]


def brute_force_min(basis: IntMatrix) -> int:
    """Exhaustive box search over the reference-LLL-reduced basis.

    Independent of latpack's LLL and of the DFS path.  A vector
    v = sum_i x_i b_i has x_i = <v, b'_i> for the dual basis b' = G^-1 B,
    whose rows have squared norms (G^-1)_ii, G = B B^T.  So by
    Cauchy-Schwarz every v with |v|^2 <= bound, the shortest row norm, has
    |x_i| <= isqrt(bound * (G^-1)_ii), computed exactly: the boxes hold
    every vector no longer than the shortest row, so the search is provably
    exhaustive.  Every coefficient vector in the boxes is visited; x G x^T
    is summed level by level, fixing x_k adding x_k^2 G_kk + 2 x_k y_k with
    the prefix sums y = sum_{j<k} x_j G_j.
    """
    red = svp_reference.lll_reduce(basis)
    rows = red.basis.m
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    r = len(rows)
    bound = min(gram[i][i] for i in range(r))
    boxes = [math.isqrt(math.floor(bound * g)) for g in _inverse_diagonal(gram)]
    best = None

    def search(k, partial, prefix, nonzero):
        nonlocal best
        g, y, c = gram[k], prefix[k], boxes[k]
        for x in range(-c, c + 1):
            norm = partial + x * x * g[k] + 2 * x * y
            if k + 1 < r:
                search(k + 1, norm, [p + x * gi for p, gi in zip(prefix, g)], nonzero or x != 0)
            elif (nonzero or x != 0) and (best is None or norm < best):
                best = norm

    search(0, 0, [0] * r, False)
    return best


def test_lll_identity_unchanged():
    I4 = IntMatrix.identity(4)
    red = lll_reduce(I4)
    assert red.basis == I4


def test_lll_preserves_gram_det():
    rng = random.Random(2)
    for p in [CraigParams(6, 2, 7), CraigParams(8, 3, 11), CraigParams(5, 2, 7)]:
        L = craig_basis(p)
        scr = scramble(L.basis, rng)
        red = lll_reduce(scr)
        assert gram_det(red.basis) == L.vol_sq
    red = lll_reduce(craig_basis(CraigParams(6, 2, 7)))
    assert gram_det(red.basis) == 343  # 7^2 * 7


def test_lll_rejects_dependent_row_after_the_first():
    # Row 2 = row 0 + row 1, reached only after rows 0 and 1 are reduced.
    with pytest.raises(RankError):
        lll_reduce([[1, 2, 3], [0, 1, 1], [1, 3, 4]])
    # A zero row and more rows than columns.
    with pytest.raises(RankError):
        lll_reduce([[3, 1], [0, 0]])
    with pytest.raises(RankError):
        lll_reduce([[1, 0], [0, 1], [5, 7]])


def test_lll_lovasz_condition_holds():
    # after size reduction |mu| <= 1/2, so B_i >= (quality - 1/4) B_{i-1}
    rng = random.Random(9)
    checked = 0
    q = Fraction(3, 4)
    while checked < 5:
        M = IntMatrix([[rng.randrange(-8, 9) for _ in range(5)] for _ in range(4)])
        try:
            red = lll_reduce(M, q)
        except Exception:
            continue
        b = red.gso_norms
        for i in range(1, len(b)):
            assert b[i] > 0
            assert b[i] >= (q - Fraction(1, 4)) * b[i - 1]
        checked += 1


def test_lll_a2_scrambled_finds_min():
    rng = random.Random(4)
    basis = craig_basis(CraigParams(2, 1, 3)).basis
    for _ in range(10):
        red = lll_reduce(scramble(basis, rng))
        norms = [sum(x * x for x in row) for row in red.basis.m]
        assert min(norms) == 2


def test_lll_quality_validation():
    with pytest.raises(ParameterError):
        lll_reduce(IntMatrix.identity(2), Fraction(1, 4))
    with pytest.raises(ParameterError):
        lll_reduce(IntMatrix.identity(2), Fraction(3, 2))
    # Only a Fraction or an int is exact; anything else is refused before any
    # arithmetic, NaN and infinity included.
    for bad in (float("nan"), float("inf"), 0.99, "0.99"):
        with pytest.raises(ParameterError, match="exact rational"):
            lll_reduce(IntMatrix.identity(2), bad)


def test_shortest_vector_examples():
    assert shortest_vector(IntMatrix.identity(3))[0] == 1
    assert shortest_vector(craig_basis(CraigParams(2, 1, 3)))[0] == 2
    norm, witness = shortest_vector(craig_basis(CraigParams(6, 2, 7)))
    assert norm == 4
    assert sum(x * x for x in witness) == 4


def test_shortest_vector_witness_consistency():
    lat = craig_basis(CraigParams(8, 2, 11))
    norm, witness = shortest_vector(lat)
    assert sum(x * x for x in witness) == norm
    # witness is a member: integer combination of basis rows
    from latpack.exactnum import solve_left

    assert solve_left(lat.basis, witness) is not None


def test_shortest_vector_matches_brute_force():
    rng = random.Random(23)
    bases = []
    for p in [CraigParams(4, 2, 5), CraigParams(5, 2, 7), CraigParams(6, 3, 7),
              CraigParams(7, 3, 11), CraigParams(8, 4, 11)]:
        basis = craig_basis(p).basis
        bases += [basis, scramble(basis, rng)]
    for n in (2, 3, 5, 8):
        bases.append(craig_basis(CraigParams(n, 1, next_prime(n + 1))).basis)
    for basis in bases:
        got, _ = shortest_vector(basis)
        assert got == brute_force_min(basis)


def test_enumeration_invariant_under_scrambling():
    rng = random.Random(31)
    lat = craig_basis(CraigParams(7, 3, 11))
    want, _ = shortest_vector(lat)
    for _ in range(20):
        scr = scramble(lat.basis, rng)
        got, _ = shortest_vector(scr)
        assert got == want


def test_rank_cap():
    with pytest.raises(CapacityError):
        shortest_vector(IntMatrix.identity(41))


def test_verify_min_norm():
    cert = verify_min_norm(craig_basis(CraigParams(10, 3, 11)), 6)
    assert cert.holds and cert.norm >= 6 and cert.witness is None
    cert = verify_min_norm(IntMatrix.identity(3), 2)
    assert not cert.holds
    assert sorted(abs(x) for x in cert.witness) == [0, 0, 1]


@pytest.mark.parametrize("rows", [
    [[float("nan"), 0], [0, 1]],  # LLL's Lovasz test is never true on NaN
    [[0.5, 0], [0, 1]],
    [[1, 0, 0], [0, 1]],  # ragged
])
def test_non_integer_or_ragged_rows_are_refused_before_lll(rows):
    # svp calls gso_extend under its own name; a row list that reaches it
    # fails at once instead of looping.
    with mock.patch.object(svp, "gso_extend", side_effect=AssertionError("reached LLL")):
        with pytest.raises(ParameterError):
            verify_min_norm(rows, 1)
        with pytest.raises(ParameterError):
            lll_reduce(rows)


def test_certificate_derives_holds():
    fields = [f.name for f in dataclasses.fields(Certificate)]
    assert fields == ["bound", "norm", "witness", "nodes"]
    assert Certificate(6, 6, None, 0).holds and not Certificate(7, 6, [1], 0).holds


def test_certificate_node_count():
    basis = craig_basis(CraigParams(9, 4, 11)).basis
    cert = verify_min_norm(basis, 8)
    assert cert.holds and cert.nodes > 0
    assert verify_min_norm(basis, 8) == cert
    moved = _signed_permutation(basis, random.Random(12))
    assert moved != basis
    assert verify_min_norm(moved, 8) == cert


def _signed_permutation(basis: IntMatrix, rng) -> IntMatrix:
    """The rows with their coordinates permuted and sign-flipped: an isometry,
    so the same Gram matrix, the same LLL steps and the same enumeration tree."""
    perm = list(range(basis.cols))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in perm]
    return IntMatrix([[s * row[p] for p, s in zip(perm, signs)] for row in basis.m])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20, 32, 40])
def test_a_n_node_count(n):
    # The search keeps one vector of each +-v pair: n(n+1)/2 nodes, where
    # the search over both signs took n^2.
    basis = craig_basis(CraigParams(n, 1, next_prime(n + 1))).basis
    cert = verify_min_norm(basis, 2)
    assert cert.holds and cert.norm == 2
    assert cert.nodes == n * (n + 1) // 2
    assert verify_min_norm(_signed_permutation(basis, random.Random(n)), 2).nodes == cert.nodes


# Differential tests against the rational reference implementation, whose
# outputs on these inputs are recorded in svp_reference_data.json.


def _result_or_rank_error(fn, *args):
    try:
        return fn(*args)
    except RankError:
        return RankError


def assert_same_as_reference(rows, quality=DEFAULT_QUALITY) -> bool:
    """Assert that latpack.svp and the reference agree on `rows`: the same
    reduced basis and Gram-Schmidt data and, at the default quality, the
    same minimum and witness; or RankError on both sides.  Returns whether
    the rows were independent."""
    want = svp_cases.recorded_reference(rows, quality)
    got = _result_or_rank_error(lll_reduce, rows, quality)
    if want is RankError:
        assert got is RankError
        with pytest.raises(RankError):
            shortest_vector(rows)
        return False
    reduced, shortest = want
    assert got.basis == reduced.basis
    assert got.mu == reduced.mu
    assert got.gso_norms == reduced.gso_norms
    if quality == DEFAULT_QUALITY:
        assert shortest_vector(rows) == shortest
    return True


def test_differential_criterion_2_lattices():
    # The binomial bases, whose entries reach C(n, n/2): large-entry inputs.
    checked = 0
    for rows in svp_cases.criterion_2_bases():
        assert assert_same_as_reference(rows)
        checked += 1
    assert checked == 84


def test_differential_short_bases():
    checked = 0
    for rows in svp_cases.short_bases():
        assert assert_same_as_reference(rows)
        checked += 1
    assert checked == 40


def test_differential_scrambles():
    checked = 0
    for rows in svp_cases.scrambled_bases():
        assert assert_same_as_reference(rows)
        checked += 1
    assert checked == 80


def test_differential_random_matrices():
    independent = 0
    for rows, quality in svp_cases.random_matrices():
        independent += assert_same_as_reference(rows, quality)
    # both outcomes are exercised
    assert 0 < independent < 600


# Differential tests against the enumeration over both signs that the
# search replaced (tests/enum_reference.py): the same minimum and witness,
# and between half and all of its nodes, since each positive branch that is
# pruned is no larger than its negative mirror, which is kept.


def assert_same_as_enum_reference(rows) -> bool:
    """Assert equal (norm, witness) and oracle_nodes / 2 <= nodes <=
    oracle_nodes, or RankError on both sides.  Returns whether the rows
    were independent."""
    want_stats, got_stats = {}, {}
    want = _result_or_rank_error(enum_reference.shortest_vector, rows, want_stats)
    got = _result_or_rank_error(shortest_vector, rows, got_stats)
    assert got == want
    if want is RankError:
        return False
    assert want_stats["nodes"] <= 2 * got_stats["nodes"] <= 2 * want_stats["nodes"]
    return True


def test_enumeration_matches_reference_on_svp_cases():
    seen = set()
    independent = 0
    for rows, _ in svp_cases.all_inputs():
        key = svp_cases.case_key(rows, DEFAULT_QUALITY)
        if key not in seen:
            seen.add(key)
            independent += assert_same_as_enum_reference(rows)
    assert 0 < independent < len(seen)


@st.composite
def small_bases(draw):
    r = draw(st.integers(1, 6))
    cols = draw(st.integers(r, r + 1))
    entries = st.one_of(st.integers(-4, 4), st.integers(-60, 60))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=r, max_size=r))


@given(small_bases())
@example([[3, -1]])
@example([[0, 5, 0]])
@example([[1, 0], [0, 1]])
@example([[2, 1], [1, 2]])
@example([[1, 1, 0], [1, -1, 0]])
@example([[1, 2], [2, 4]])
@settings(max_examples=300, deadline=None)
def test_enumeration_matches_reference_on_small_bases(rows):
    assert_same_as_enum_reference(rows)
