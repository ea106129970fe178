import io
import itertools
import math
import random

import pytest

from latpack.errors import CapacityError, ParameterError, ParseError
from latpack.codes import (
    GV_EXISTS,
    HYPOTHETICAL,
    TABLE_KNOWN,
    CodeSpec,
    CodeTable,
    LinearCode,
    builtin_code_table,
    concatenate,
    dual_hamming_7_3_4,
    extend_parity,
    extended_hamming_8_4_4,
    gf_mul,
    gf_solve,
    griesmer_length,
    gv_exists,
    gv_max_k,
    lemma62_params,
    load_code_table,
    min_distance,
    repetition,
    single_parity_3_2_2,
)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_field_axioms_exhaustive(q):
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert gf_mul(q, a, b) == gf_mul(q, b, a)
        assert a ^ b == b ^ a < q
    for a, b, c in itertools.product(elems, repeat=3):
        assert gf_mul(q, a, gf_mul(q, b, c)) == gf_mul(q, gf_mul(q, a, b), c)
        assert gf_mul(q, a, b ^ c) == gf_mul(q, a, b) ^ gf_mul(q, a, c)
    for a in range(1, q):
        assert any(gf_mul(q, a, b) == 1 for b in range(1, q)), f"no inverse for {a} in GF({q})"


def test_repetition():
    c = repetition(52, 2)
    assert (c.n, c.k, c.spec.d) == (52, 1, 52)
    assert min_distance(repetition(5, 2)) == 5
    r8 = repetition(4, 8)
    assert (r8.spec.q, r8.spec.d) == (8, 4)
    assert min_distance(r8) == 4


def test_min_distance_canned():
    assert min_distance(dual_hamming_7_3_4()) == 4
    assert min_distance(extended_hamming_8_4_4()) == 4
    assert min_distance(single_parity_3_2_2()) == 2


def test_min_distance_cap():
    spec = CodeSpec(2, 40, 30, 2, "table-known")
    gen = [[1 if j == i or j == i + 1 else 0 for j in range(40)] for i in range(30)]
    with pytest.raises(CapacityError):
        min_distance(LinearCode(spec, gen))


def test_extend_parity():
    e = extend_parity(dual_hamming_7_3_4())
    assert (e.n, e.k, e.spec.d) == (8, 3, 4)
    assert min_distance(e) == 4
    e = extend_parity(repetition(52, 2))
    assert (e.n, e.k, e.spec.d) == (53, 1, 52)
    e = extend_parity(repetition(1, 2))
    assert (e.n, e.k, e.spec.d) == (2, 1, 2)
    with pytest.raises(ParameterError):
        extend_parity(repetition(4, 8))


def test_extend_parity_even_weights_exhaustive():
    for code in (dual_hamming_7_3_4(), extended_hamming_8_4_4(), single_parity_3_2_2()):
        e = extend_parity(code)
        for msg in itertools.product((0, 1), repeat=e.k):
            word = [0] * e.n
            for mi, row in zip(msg, e.generator):
                if mi:
                    word = [a ^ b for a, b in zip(word, row)]
            assert sum(word) % 2 == 0


def test_concatenate_parameter_arithmetic():
    cc = concatenate(repetition(4, 8), dual_hamming_7_3_4())
    assert (cc.n, cc.k, cc.spec.d) == (28, 3, 16)
    assert min_distance(cc) == 16

    with pytest.raises(ParameterError):
        concatenate(repetition(10, 4), dual_hamming_7_3_4())


def test_concatenate_distance_at_least_product():
    # every binary inner code with k in {1, 2, 3} pairs with GF(2^k) outers
    for inner in (repetition(5, 2), single_parity_3_2_2(), dual_hamming_7_3_4()):
        q = 1 << inner.k
        for outer in (repetition(4, q), repetition(7, q)):
            cc = concatenate(outer, inner)
            assert min_distance(cc) >= outer.spec.d * inner.spec.d


def test_gv_exists():
    assert gv_exists(4096, 772, 1024)
    assert not gv_exists(8, 7, 2)  # GV is only sufficient; the code exists anyway
    for n in range(1, 65):
        assert gv_exists(n, n, 1)


def test_gv_monotone_in_k():
    # gv_exists(n, k, d) implies gv_exists(n, k-1, d): ascending in k, a
    # single True->False transition
    for n, d in [(24, 6), (40, 10), (64, 16)]:
        seen_false = False
        for k in range(1, n + 1):
            cur = gv_exists(n, k, d)
            assert not (seen_false and cur), "gv_exists not monotone in k"
            seen_false = seen_false or not cur
        kmax = gv_max_k(n, d)
        if kmax:
            assert gv_exists(n, kmax, d)
        if kmax < n:
            assert not gv_exists(n, kmax + 1, d)


def test_gv_max_k_examples():
    assert gv_max_k(24, 6) == 9
    assert gv_max_k(8, 2) == 5
    exact = gv_max_k(4096, 1024)
    assert exact >= 772
    assert exact == 4097 - sum(math.comb(4096, i) for i in range(1024)).bit_length()


def test_lemma62():
    assert (lambda s: (s.n, s.k, s.d))(lemma62_params(1)) == (8, 1, 2)
    s = lemma62_params(513)
    assert (s.n, s.k, s.d) == (4104, 774, 1026)
    s = lemma62_params(512)
    assert (s.n, s.k, s.d) == (4096, 773, 1024)
    assert gv_exists(s.n, s.k, s.d)
    for t in range(1, 80):
        s = lemma62_params(t)
        assert gv_exists(s.n, s.k, s.d)
        assert s.status == "gv-exists"


def test_load_code_table(tmp_path):
    f = tmp_path / "codes.csv"
    f.write_text("q,n,k,d,status\n2,68,8,32,table\n2,140,69,32,hypothetical\n2,128,59,32,upper\n")
    t = load_code_table(f)
    assert t.best_known(2, 68, 8) == 32
    assert t.upper_bound(2, 128, 59) == 32
    assert t.best_known(2, 140, 69) is None and t.upper_bound(2, 140, 69) is None

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    t = load_code_table(empty)
    assert not t.known and not t.upper

    bad = tmp_path / "bad.csv"
    bad.write_text("q,n,k,d,status\n2,68,xx,32,table\n")
    with pytest.raises(ParseError, match="line 2"):
        load_code_table(bad)


def test_builtin_code_table_loads():
    t = builtin_code_table()
    assert t.best_known(2, 68, 8) == 32
    assert t.best_known(2, 248, 131) == 32
    assert t.upper_bound(4, 169, 24) == 104
    assert t.best_k_at_distance(2, 96, 32) == 23
    # repetition fallback
    assert t.best_k_at_distance(2, 1000, 999) == 1


def _best_k_by_scan(table, q, n, d_min):
    """best_k_at_distance as a scan of every known entry."""
    ks = [k for (qq, nn, k), d in table.known.items() if (qq, nn) == (q, n) and d >= d_min]
    return max(ks + [1 if n >= d_min else 0])


def test_best_k_at_distance_matches_a_scan_of_known():
    t = builtin_code_table()
    lengths = sorted({(q, n) for q, n, _ in t.known})
    for q, n in lengths:
        for d_min in range(1, n + 2):
            assert t.best_k_at_distance(q, n, d_min) == _best_k_by_scan(t, q, n, d_min)
    # Entries raised, not lowered, by later adds; other statuses stay out.
    rng = random.Random(5)
    t = CodeTable()
    for _ in range(400):
        n = rng.randint(1, 12)
        k = rng.randint(1, n)
        status = rng.choice([TABLE_KNOWN, GV_EXISTS, HYPOTHETICAL, "upper"])
        t.add(rng.choice([2, 4]), n, k, rng.randint(1, n), status)
        q, n, d_min = rng.choice([2, 4]), rng.randint(1, 12), rng.randint(1, 13)
        assert t.best_k_at_distance(q, n, d_min) == _best_k_by_scan(t, q, n, d_min)


def test_generator_file_round_trip(tmp_path):
    from latpack.codes import read_generator, write_generator

    code = dual_hamming_7_3_4()
    f = tmp_path / "gen.txt"
    with open(f, "w") as fh:
        write_generator(code, fh)
    with open(f) as fh:
        back = read_generator(fh)
    assert back.generator == code.generator
    assert back.spec == code.spec


def test_generator_file_rejects_non_integers():
    from latpack.codes import read_generator

    with pytest.raises(ParseError, match="line 3: 'x' is not an integer"):
        read_generator(io.StringIO("2 3 2\n1 0 1\n0 x 1\n"))
    with pytest.raises(ParseError, match="line 1"):
        read_generator(io.StringIO("2 3 two\n"))
    with pytest.raises(ParseError, match="row 2 must have 3 entries"):
        read_generator(io.StringIO("2 3 2\n1 0 1\n"))


def test_griesmer_length():
    # extended Hamming [8, 4, 4] and the Golay [24, 12, 8] meet the bound
    assert griesmer_length(2, 4, 4) == 8
    assert griesmer_length(2, 12, 8) == 8 + 4 + 2 + 1 + 8
    assert griesmer_length(2, 20, 8) == 31
    for q, k, d in itertools.product([2, 4, 8], range(1, 12), range(1, 70)):
        assert griesmer_length(q, k, d) == sum(-(-d // q**i) for i in range(k))


def _gf_combine(q, coeffs, rows):
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [a ^ gf_mul(q, c, b) for a, b in zip(out, row)]
    return out


@pytest.mark.parametrize("q", [2, 4])
def test_gf_solve_matches_brute_force(q):
    # gf_solve answers every target of GF(q)^n exactly as the brute-force
    # span does, dependent rows included.
    rng = random.Random(q)
    n = 6 if q == 2 else 4
    for k in (1, 3, 4):
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if k == 4:
            rows[3] = _gf_combine(q, [1, 1, 0], rows[:3])  # a dependent row
        span = {tuple(_gf_combine(q, c, rows)) for c in itertools.product(range(q), repeat=k)}
        solved = 0
        for t in itertools.product(range(q), repeat=n):
            x = gf_solve(q, rows, list(t))
            assert (x is not None) == (t in span)
            if x is not None:
                assert _gf_combine(q, x, rows) == list(t)
                solved += 1
        assert solved == len(span)
    # A target of another length is refused, not truncated or run off the end.
    for bad in ([0] * (n - 1), [0] * (n + 1)):
        with pytest.raises(ParameterError):
            gf_solve(q, rows, bad)
