import itertools
import math
import random
from fractions import Fraction

import pytest

from latpack.errors import ParameterError, RankError
from latpack.exactnum import (
    _MR_LIMIT,
    IntMatrix,
    binom_sum,
    binom_sum_bit_lengths,
    binom_sums,
    compare_power_products,
    div_round_half_even,
    gram_det,
    hnf,
    hnf_basis,
    is_prime,
    left_solver,
    log2_of,
    next_prime,
    solve_left,
)
from latpack.craig import CraigParams, LogDensity, craig_basis

import hnf_reference
from craig_reference import binomial_craig_rows


def test_binom_sum_examples():
    assert binom_sum(4, 4) == 16
    # 1 + 24 + 276 + 2024 + 10626 + 42504
    assert binom_sum(24, 5) == 55455
    with pytest.raises(ParameterError):
        binom_sum(3, 4)


def test_binom_sum_matches_comb_oracle():
    for n in (10, 17, 33):
        for r in (0, 1, n // 2, n):
            assert binom_sum(n, r) == sum(math.comb(n, i) for i in range(r + 1))


def test_binom_sum_full_row_is_power_of_two():
    for n in range(65):
        assert binom_sum(n, n) == 2**n


def test_binom_sum_4096_bitlength():
    # Exact value; the published entropy bound 2^(4096 H(1/4)) ~ 2^3323 is
    # far looser than the true sum (see decisions ledger).
    assert binom_sum(4096, 1023).bit_length() == 3316


def test_binom_sums_one_walk_serves_every_r():
    assert binom_sums(24, [5, 0, 24, 5, 2]) == [55455, 1, 2**24, 55455, 301]
    assert binom_sums(7, []) == []
    assert binom_sums(4096, [1023, 1022]) == [binom_sum(4096, 1023), binom_sum(4096, 1022)]
    with pytest.raises(ParameterError):
        binom_sums(3, [1, 4])
    with pytest.raises(ParameterError):
        binom_sums(3, [-1])


def test_binom_sum_bit_lengths_examples():
    assert binom_sum_bit_lengths(24, [5, 0, 24, 5, 2]) == [16, 1, 25, 16, 9]
    assert binom_sum_bit_lengths(7, []) == []
    assert binom_sum_bit_lengths(4096, [1023]) == [3316]


@pytest.mark.parametrize("kernel", [binom_sums, binom_sum_bit_lengths])
def test_binom_kernels_share_one_input_check(kernel):
    with pytest.raises(ParameterError, match=r"^binom_sum requires r <= n, got r=4 n=3$"):
        kernel(3, [1, 4])
    for n, rs in ((3, [-1]), (-1, [])):
        with pytest.raises(ParameterError, match="^binom_sum arguments must be nonnegative$"):
            kernel(n, rs)


def _naive_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_against_trial_division():
    for n in range(2, 3000):
        assert is_prime(n) == _naive_is_prime(n), n
    # Carmichael numbers must not fool the tester.
    for c in (561, 1105, 1729, 2465, 294409, 56052361):
        assert not is_prime(c)
    for p in (4099, 4111, 8191, 16381, 2_147_483_647):
        assert is_prime(p)


def test_is_prime_past_the_twelve_base_bound():
    # The first twelve prime bases prove primality only below this number,
    # which is a strong pseudoprime to all of them (Sorenson & Webster 2017).
    psi12 = 318_665_857_834_031_151_167_461
    assert psi12 == 399_165_290_221 * 798_330_580_441
    assert not is_prime(psi12)
    assert is_prime(399_165_290_221) and is_prime(798_330_580_441)


def test_is_prime_refuses_past_the_thirteen_base_bound():
    # No trial-division fallback: above the proven range the answer is an error.
    for n in (_MR_LIMIT, _MR_LIMIT + 1, 10**27 + 7, 2**89 - 1):
        with pytest.raises(ParameterError):
            is_prime(n)
    with pytest.raises(ParameterError):
        next_prime(10**25)
    assert isinstance(is_prime(_MR_LIMIT - 2), bool)  # just below, it answers


def test_next_prime_examples():
    assert next_prime(4099) == 4099
    assert next_prime(8) == 11
    assert next_prime(2) == 2
    # independent scan oracle
    want = 3334
    while not _naive_is_prime(want):
        want += 1
    assert next_prime(3334) == want == 3343
    with pytest.raises(ParameterError):
        next_prime(1)


def test_hnf_identity():
    I3 = IntMatrix.identity(3)
    H, U = hnf(I3)
    assert H == I3 and U == I3


def test_hnf_transform_invariants():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rows + rng.randrange(0, 3)
        M = IntMatrix([[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
        try:
            H, U = hnf(M)
        except RankError:
            continue
        assert U.matmul(M) == H
        assert gram_det(U) == 1
        # Row spaces agree: HNF of H equals H itself, and equals HNF of M.
        assert hnf_basis(M).m == [r for r in H.m if any(r)]


def test_hnf_rank_error():
    with pytest.raises(RankError):
        hnf(IntMatrix([[1, 2], [2, 4]]))


def test_hnf_basis_even_sum_lattice():
    # Generators of {x in Z^2 : x1 + x2 even}: 2Z^2 stacked with (1,1).
    M = IntMatrix([[2, 0], [0, 2], [1, 1]])
    assert hnf_basis(M).m == [[1, 1], [0, 2]]
    # Oracle: enumerate cosets of 2Z^2 and check generation.
    basis = hnf_basis(M)
    for x in range(-2, 3):
        for y in range(-2, 3):
            inside = (x + y) % 2 == 0
            assert (solve_left(basis, [x, y]) is not None) == inside


def test_hnf_preserves_gram_det_a2():
    A2 = IntMatrix([[-1, 1, 0], [0, -1, 1]])
    H, U = hnf(A2)
    assert gram_det(H) == gram_det(A2) == 3


def _reference_agrees(M):
    """hnf and hnf_basis of M equal the reference kernel's, RankError included."""
    for new, old in ((hnf, hnf_reference.hnf), (hnf_basis, hnf_reference.hnf_basis)):
        try:
            want = old(M)
        except RankError:
            with pytest.raises(RankError):
                new(M)
        else:
            assert new(M) == want


def test_hnf_matches_reference_on_craig_bases():
    # m = n/2 stops at n = 48: the reference takes seconds on it beyond.
    for n in (8, 17, 31, 48, 63, 80, 96):
        l = next_prime(n + 1)
        for m in sorted({1, 2, 3, n // 8} | ({n // 2} if n <= 48 else set())):
            _reference_agrees(craig_basis(CraigParams(n, m, l)).basis)
            if n <= 63:
                _reference_agrees(IntMatrix(binomial_craig_rows(n, m, l)))


def test_hnf_basis_matches_reference_on_preimage_stacks():
    # Generating sets of preimage lattices: the closed-form lifts
    # l*(c - wt(c)*e_0) of the generators of a seeded even-weight code over
    # twice the Craig basis.
    rng = random.Random(95)
    for n, m in ((31, 1), (47, 2), (63, 3), (79, 2), (95, 3)):
        l = next_prime(n + 1)
        base = craig_basis(CraigParams(n, m, l)).basis.m
        for k in (1, n // 4, n // 2):
            lifted = []
            for _ in range(k):
                row = [rng.randrange(2) for _ in range(n)]
                c = row + [sum(row) % 2]
                lifted.append([l * (x - (j == 0) * sum(c)) for j, x in enumerate(c)])
            stack = IntMatrix(lifted + [[2 * x for x in row] for row in base])
            want = hnf_reference.hnf_basis(stack)
            assert hnf_basis(stack) == want
            assert want.rows == n


def test_hnf_matches_reference_on_random_matrices():
    rng = random.Random(40)
    for _ in range(250):
        rows = rng.randrange(1, 41)
        cols = max(1, rows + rng.randrange(-3, 4))
        band = rng.choice((cols, 1, 2, 4))  # dense, or nonzero only near the diagonal
        bound = rng.choice((1, 3, 50, 10**6))
        mat = [
            [rng.randint(-bound, bound) if 0 <= j - i < band else 0 for j in range(cols)]
            for i in range(rows)
        ]
        for j in rng.sample(range(cols), rng.randrange(0, min(3, cols))):
            for row in mat:  # zero columns
                row[j] = 0
        if rows > 2 and rng.random() < 0.4:  # a dependent row: a generating set
            a, b = rng.sample(range(rows), 2)
            f, g = rng.randint(-3, 3), rng.randint(-3, 3)
            c = rng.choice([i for i in range(rows) if i not in (a, b)])
            mat[c] = [f * x + g * y for x, y in zip(mat[a], mat[b])]
        rng.shuffle(mat)
        _reference_agrees(IntMatrix(mat))


def test_gram_det_examples():
    for n in (1, 2, 5):
        assert gram_det(IntMatrix.identity(n)) == 1
    assert gram_det(IntMatrix([[-1, 1, 0], [0, -1, 1]])) == 3
    assert gram_det(IntMatrix([[1, 1], [2, 2]])) == 0  # degenerate


def test_gram_det_unimodular_invariance():
    rng = random.Random(5)
    base = IntMatrix([[2, 1, 0, 3], [0, 1, 4, 1], [1, 0, 0, 2]])
    want = gram_det(base)
    for _ in range(20):
        rows = [list(r) for r in base.m]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randrange(-3, 4)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        assert gram_det(IntMatrix(rows)) == want


def test_solve_left():
    B = IntMatrix([[-1, 1, 0], [0, -1, 1]])
    x = solve_left(B, [-1, 0, 1])
    assert x is not None
    assert [x[0] * -1, x[0] - x[1], x[1]] == [-1, 0, 1]
    assert solve_left(B, [1, 0, 0]) is None  # coordinate sum nonzero


def test_left_solver_reused_matches_fresh_calls_and_brute_force():
    # The lattice of the triangular T: every v with entries in [-3, 3] has
    # coefficients within 5 of zero, so the box search below decides membership.
    T = [[1, 2, 0, 3], [0, 2, 1, 1], [0, 0, 3, 2]]
    box = range(-5, 6)
    inside = set()
    for x in itertools.product(box, repeat=3):
        v = tuple(sum(c * r[j] for c, r in zip(x, T)) for j in range(4))
        if all(-3 <= a <= 3 for a in v):
            inside.add(v)
    # One solver on T answers every target, twice over, exactly as fresh
    # solve_left calls do.
    E = IntMatrix(T)
    solve = left_solver(E)
    targets = [list(v) for v in itertools.product(range(-3, 4), repeat=4)]
    random.Random(11).shuffle(targets)
    first = [solve(v) for v in targets]
    for v, x in zip(targets, first):
        assert x == solve_left(E, v)
        assert (x is not None) == (tuple(v) in inside)
        if x is not None:
            assert [sum(c * r[j] for c, r in zip(x, T)) for j in range(4)] == v
    assert [solve(v) for v in targets] == first
    with pytest.raises(ParameterError):
        solve([0, 0, 0])
    # A scrambled basis of the same lattice is not echelon: refused before
    # any solve.
    B = IntMatrix([[1, 4, 1, 4], [0, 2, 1, 1], [2, 4, 3, 8]])
    assert hnf_basis(B) == hnf_basis(E)
    with pytest.raises(ParameterError, match="echelon"):
        left_solver(B)
    with pytest.raises(ParameterError, match="echelon"):
        solve_left(B, targets[0])


def test_log2_of_examples():
    assert log2_of({2: -4}, 4) == "-2.0000"
    assert log2_of({2: 1}, 4) == "0.5000"
    # delta^2 for the (52, 6, 53) lattice lifted with k = 1
    v = LogDensity(((2, 2), (6, 52), (2, -52), (53, -11))).factors
    assert log2_of(v, 3) == "10.705"
    assert log2_of(v, 4) == "10.7055"


def test_log2_of_against_decimal_oracle():
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    rng = random.Random(3)
    for _ in range(40):
        num = rng.randrange(1, 10**9)
        den = rng.randrange(1, 10**9)
        got = Fraction(log2_of(LogDensity(((num, 1), (den, -1))).factors, 8))
        want = (Decimal(num).ln() - Decimal(den).ln()) / Decimal(2).ln() / 2
        assert abs(got - Fraction(str(want))) < Fraction(1, 10**7)


def test_log2_monotone_within_ulp():
    rng = random.Random(17)
    vals = []
    for _ in range(60):
        num = rng.randrange(1, 10**6)
        den = rng.randrange(1, 10**6)
        vals.append((num, den))
    vals.sort(key=lambda v: Fraction(*v))
    rendered = [Fraction(log2_of(LogDensity(((num, 1), (den, -1))).factors, 6))
                for num, den in vals]
    ulp = Fraction(1, 10**6)
    for a, b in zip(rendered, rendered[1:]):
        assert a <= b + ulp


def test_div_round_half_even():
    assert div_round_half_even(5, 2) == 2  # 2.5 -> 2
    assert div_round_half_even(7, 2) == 4  # 3.5 -> 4
    assert div_round_half_even(-5, 2) == -2  # -2.5 -> -2
    assert div_round_half_even(-7, 2) == -4  # -3.5 -> -4
    assert div_round_half_even(9, 3) == 3
    assert div_round_half_even(-10, 4) == -2  # -2.5 -> -2


def test_log_density_merges_factors():
    # Repeated bases add up; zero exponents and the base 1 drop out.
    v = LogDensity(((6, 1), (4, -1), (2, 1), (2, -1), (1, 5), (7, 0)))
    assert v.factors == {6: 1, 4: -1}
    assert compare_power_products(v.factors, {3: 1, 2: -1}) == 0  # 6/4 = 3/2
    # A zero numerator or denominator is the base 0; any non-positive or
    # non-integer base is rejected.
    for base, e in ((0, 1), (0, -1), (0, 0), (-3, 2), (2.0, 1), (Fraction(3, 2), 1)):
        with pytest.raises(ParameterError):
            LogDensity(((2, 1), (base, e)))
