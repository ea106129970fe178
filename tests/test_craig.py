import io
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest

from latpack import exactnum
from latpack.codes import repetition
from latpack.errors import CapacityError, ParameterError, ParseError
from latpack.exactnum import (
    IntMatrix,
    _base_log,
    _log2_fixed,
    gram_det,
    hnf_basis,
    next_prime,
    solve_left,
)
from latpack.craig import (
    MAX_N,
    _LOG2_E,
    CraigParams,
    IntegerLattice,
    center_density_lb,
    choose_params,
    craig_basis,
    membership,
    nearest_m,
    read_basis,
    verify_section,
    write_basis,
)
from latpack.lift import lift_sublattice
from latpack.svp import shortest_vector

from craig_reference import binomial_craig_rows, binomial_row
from log2_reference import delta_sq

CERTIFY_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "certify.json"


def first_primes_ge(x, count):
    out = []
    p = next_prime(x)
    while len(out) < count:
        out.append(p)
        p = next_prime(p + 1)
    return out


def test_params_validation():
    CraigParams(2, 1, 3)  # flag regime is accepted
    with pytest.raises(ParameterError):
        CraigParams(4, 3, 5)  # 2m > n+1
    with pytest.raises(ParameterError):
        CraigParams(4, 2, 4)  # l < n+1
    with pytest.raises(ParameterError):
        CraigParams(4, 0, 5)
    with pytest.raises(ParameterError, match="l must be prime"):
        CraigParams(10, 2, 12)  # composite l: no 2m bound


def test_basis_a2():
    L = craig_basis(CraigParams(2, 1, 3))
    assert L.basis.m == [[-1, 1, 0], [0, -1, 1]]
    assert L.vol_sq == 3


def test_basis_volumes():
    assert craig_basis(CraigParams(4, 2, 5)).vol_sq == 125
    assert craig_basis(CraigParams(6, 3, 7)).vol_sq == 7**5


@pytest.mark.parametrize("n", range(4, 17))
def test_volume_identity_small(n):
    for l in first_primes_ge(n + 1, 2):
        for m in range(1, (n - 1) // 2 + 1):
            L = craig_basis(CraigParams(n, m, l))
            assert L.vol_sq == l ** (2 * (m - 1)) * (n + 1)


def test_index_in_full_sum_zero_lattice():
    # det ratio against m=1 gives the square of the index l^(m-1)
    for (n, m, l) in [(6, 2, 7), (8, 3, 11), (10, 4, 11)]:
        sub = craig_basis(CraigParams(n, m, l)).vol_sq
        top = craig_basis(CraigParams(n, 1, l)).vol_sq
        assert sub == top * l ** (2 * (m - 1))


# Criterion 2's lattices (n <= 24, the first two primes l >= n+1) and larger
# ones up to rank 95, where the binomial entries reach 92 bits.
EQUIVALENCE_PARAMS = [
    (n, m, l)
    for n in range(3, 25)
    for l in first_primes_ge(n + 1, 2)
    for m in range(1, (n - 1) // 2 + 1)
] + [(31, 2, 37), (39, 3, 41), (47, 4, 53), (55, 2, 59), (63, 3, 67), (71, 4, 73), (95, 3, 97)]


def test_short_basis_spans_the_binomial_lattice():
    assert len(EQUIVALENCE_PARAMS) == 264 + 7
    for n, m, l in EQUIVALENCE_PARAMS:
        rows = craig_basis(CraigParams(n, m, l)).basis.m
        assert [next(c for c, a in enumerate(row) if a) for row in rows] == list(range(n))
        assert hnf_basis(IntMatrix(rows)) == hnf_basis(IntMatrix(binomial_craig_rows(n, m, l)))
        assert max(abs(a) for row in rows for a in row) <= max(math.comb(m, m // 2), l)


def test_short_basis_volume_at_large_rank():
    for n, m, l in EQUIVALENCE_PARAMS[-7:]:
        assert gram_det(craig_basis(CraigParams(n, m, l)).basis) == l ** (2 * (m - 1)) * (n + 1)


def test_short_basis_rows():
    # (x-1)^2 x^j for j = 0..2, then 7(x-1) x^3, in ascending degree
    assert craig_basis(CraigParams(4, 2, 7)).basis.m == [
        [1, -2, 1, 0, 0],
        [0, 1, -2, 1, 0],
        [0, 0, 1, -2, 1],
        [0, 0, 0, -7, 7],
    ]


def test_short_basis_minima_match_golden():
    # Minima captured from the binomial bases; the file is read, never written.
    minima = json.loads(CERTIFY_GOLDEN.read_text())["minima"]
    assert len(minima) == 42
    for key, want in minima.items():
        n, m, l = map(int, key.split(","))
        assert shortest_vector(craig_basis(CraigParams(n, m, l)))[0] == want, key


def test_membership_examples():
    p = CraigParams(6, 3, 7)
    assert membership(p, binomial_row(3, 7))
    assert not membership(p, binomial_row(1, 7))
    assert membership(p, [7 * a for a in binomial_row(1, 7)])
    with pytest.raises(ParameterError):
        membership(p, [0, 0, 0])


def test_membership_matches_lattice_solve():
    rng = random.Random(23)
    for (n, m, l) in [(6, 3, 7), (8, 2, 11), (10, 4, 11), (12, 5, 13)]:
        p = CraigParams(n, m, l)
        B = craig_basis(p).basis
        for _ in range(200):
            v = [rng.randint(-l, l) for _ in range(n + 1)]
            assert membership(p, v) == (solve_left(B, v) is not None)


def test_cyclic_shift_closure_when_modulus_matches():
    # coordinate rotation of every basis vector stays in the lattice
    for np1 in (5, 7, 11, 13):
        n = np1 - 1
        for m in range(1, (n - 1) // 2 + 1):
            p = CraigParams(n, m, np1)
            for row in craig_basis(p).basis.m:
                rotated = [row[-1]] + row[:-1]
                assert membership(p, rotated)


def test_center_density_examples():
    assert center_density_lb(CraigParams(52, 6, 53), 1).log2(3) == "10.705"
    assert center_density_lb(CraigParams(2, 1, 3), 0).log2(4) == "-1.7925"
    # frozen from the high-precision oracle: 443.02557...
    assert center_density_lb(CraigParams(360, 19, 367), 16).log2(4) == "443.0256"


def test_center_density_rejects_k_above_n():
    # The lifted subcode lies inside the [n+1, n, 2] even-weight code.
    assert center_density_lb(CraigParams(52, 6, 53), 52).log2(4) == "61.7055"
    with pytest.raises(ParameterError):
        center_density_lb(CraigParams(52, 6, 53), 53)
    with pytest.raises(ParameterError):
        center_density_lb(CraigParams(52, 6, 53), 999)


def test_center_density_matches_volume_form():
    # delta_plain^2 == (2m/4)^n / gram_det
    from fractions import Fraction

    for (n, m, l) in [(6, 2, 7), (8, 3, 11), (10, 2, 11)]:
        p = CraigParams(n, m, l)
        d = center_density_lb(p, 0)
        vol_sq = craig_basis(p).vol_sq
        assert delta_sq(d) == Fraction(2 * m, 4) ** n / vol_sq


def test_choose_params():
    assert choose_params(2).m == 1
    p = choose_params(1222)
    assert (p.m, p.l) == (86, 1223)
    assert choose_params(4098).l == 4099


def test_log2_e_matches_a_longer_partial_sum():
    # 30 terms of sum 1/k! fall short of e by under 1/31!; 60 terms give
    # the same 64-bit log, so E is less than 2 units below 2^64 * log2(e).
    partial = sum(math.perm(60, 60 - k) for k in range(61))
    assert _LOG2_E == _log2_fixed(partial, math.perm(60), 64)


def test_nearest_m_is_exact_on_every_admissible_input():
    # With E = _LOG2_E and lx = _base_log(x), each less than 2 units below
    # 2^64 times log2 of e and of x, n / (2 ln x) + 1/2, which is
    # (n * log2(e) + log2(x)) / (2 * log2(x)), lies above
    # (n*E + lx + 2) / (2(lx + 2)) and below (n(E + 2) + lx) / (2 lx).  When
    # both bounds have the floor m, so has the true value.  Every x = n
    # (choose_params) and x = n + 1 (improve_craig_8x) with 2 <= n <= MAX_N.
    # At x = n, m also lies in 1..max(1, ceil(n/2) - 1), so choose_params
    # needs no clamp to meet CraigParams' 1 <= m and 2m <= n + 1.
    E = _LOG2_E
    pairs = 0
    for x in range(2, MAX_N + 2):
        lx = _base_log(x)
        for n in (x - 1, x):
            if 2 <= n <= MAX_N:
                m = nearest_m(n, x)
                assert (n * E + lx + 2) // (2 * (lx + 2)) == m, (n, x)
                assert n * (E + 2) + lx <= 2 * lx * (m + 1), (n, x)
                if n == x:
                    assert 1 <= m <= max(1, -(-n // 2) - 1), n
                pairs += 1
    assert pairs == 2 * (MAX_N - 1)


def test_nearest_m_gives_table_1s_orders():
    # Table 1's eightfold Craig lattices, dims 1398, 1432, 2178 and 2296,
    # take m nearest (p - 1) / (2 ln p) at p = dim + 1.
    assert [nearest_m(p - 1, p) for p in (1399, 1433, 2179, 2297)] == [97, 99, 142, 148]


def test_verify_section():
    assert verify_section(CraigParams(4, 2, 7))
    assert verify_section(CraigParams(6, 2, 7))  # degenerate: section is everything
    assert verify_section(CraigParams(4, 2, 11))
    assert verify_section(CraigParams(125, 5, 127))
    assert verify_section(CraigParams(508, 254, 509))  # rank 508 under the cap of 512
    with pytest.raises(CapacityError):
        verify_section(CraigParams(4, 2, 521))


def test_craig_and_lifted_bases_skip_hnf_and_gram_schmidt(monkeypatch):
    # The short Craig basis and a lifted (HNF) basis are echelon and lie in
    # sum(x) = 0, so solves back-substitute along their own pivots and
    # volumes are N times the squared pivot product.
    def refuse(*args):
        raise AssertionError("a structured basis reached a general kernel")

    monkeypatch.setattr(exactnum, "hnf", refuse)
    monkeypatch.setattr(exactnum, "gso_extend", refuse)
    B = craig_basis(CraigParams(30, 5, 31)).basis
    coeffs = [(-1) ** j * (j % 4) for j in range(B.rows)]
    v = [sum(c * row[j] for c, row in zip(coeffs, B.m)) for j in range(B.cols)]
    assert solve_left(B, v) == coeffs
    v[0] += 1
    v[1] -= 1
    assert solve_left(B, v) is None
    for n, m, l in [(30, 1, 31), (30, 3, 31), (61, 31, 67)]:
        assert craig_basis(CraigParams(n, m, l)).vol_sq == l ** (2 * (m - 1)) * (n + 1)
    lifted = lift_sublattice(CraigParams(15, 2, 17), repetition(16, 2)).lattice
    assert lifted.vol_sq == 17**2 * 16 * 4 ** (15 - 1)
    assert verify_section(CraigParams(125, 63, 127))


def test_basis_file_round_trip():
    L = craig_basis(CraigParams(6, 2, 7))
    buf = io.StringIO()
    write_basis(L, buf)
    buf.seek(0)
    L2 = read_basis(buf)
    assert L2.basis == L.basis
    assert (L2.rank, L2.ambient_dim) == (6, 7)  # read off the basis shape
    assert IntegerLattice(IntMatrix([[1, -1, 0]])).ambient_dim == 3
    assert L2.vol_sq == L.vol_sq


def test_earlier_short_rows_solve_through_the_fallbacks():
    # construct once wrote l*(x-1) * x^j for j = 0..m-2, rows that end
    # rather than start at distinct columns.  Such a file still reads and
    # gives the same volume (through gso_extend) and minimum, but it is not
    # echelon, so solving against it is refused before any HNF.
    p = CraigParams(12, 4, 13)
    current = craig_basis(p)
    rows = current.basis.m[: p.n - p.m + 1]
    rows += [[0] * j + [-p.l, p.l] + [0] * (p.n - 1 - j) for j in range(p.m - 1)]
    buf = io.StringIO()
    write_basis(IntegerLattice(IntMatrix(rows)), buf)
    buf.seek(0)
    earlier = read_basis(buf)
    assert exactnum.echelon_pivots(earlier.basis) is None
    v = [sum(current.basis.m[i][j] for i in range(p.n)) for j in range(p.n + 1)]
    assert solve_left(current.basis, v) == [1] * p.n
    with mock.patch.object(exactnum, "hnf", side_effect=AssertionError("reached hnf")), \
            mock.patch.object(exactnum, "gso_extend", wraps=exactnum.gso_extend) as gso_spy:
        assert earlier.vol_sq == current.vol_sq
        with pytest.raises(ParameterError, match="echelon"):
            solve_left(earlier.basis, v)
    assert gso_spy.called
    assert shortest_vector(earlier)[0] == shortest_vector(current)[0] == 2 * p.m


def test_basis_file_rejects_bad_input():
    with pytest.raises(ParseError, match="line 2: '1.5' is not an integer"):
        read_basis(io.StringIO("3 2\n1.5 -1 0\n0 1 -1\n"))
    with pytest.raises(ParseError, match="must start with 'N r'"):
        read_basis(io.StringIO("3\n"))
    # a header promising more rows than the file holds fails at its end,
    # even when its rows are empty (else "0 10^12" would read 10^12 of them)
    with pytest.raises(ParseError, match="row 2 must have 0 entries"):
        read_basis(io.StringIO("0 3\n\n"))
    with pytest.raises(ParameterError, match="rank exceeds"):
        read_basis(io.StringIO("1 2\n1\n2\n"))
