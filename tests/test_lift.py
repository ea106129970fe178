import dataclasses
import io
import math
import random
import sys
from fractions import Fraction

import pytest

from latpack import exactnum
from latpack.cli import run
from latpack.errors import ParameterError
from latpack.exactnum import next_prime
from latpack.craig import MAX_N, CraigParams, center_density_lb, craig_basis, membership
from latpack.codes import (
    CONSTRUCTED,
    HYPOTHETICAL,
    CodeSpec,
    LinearCode,
    concatenate,
    dual_hamming_7_3_4,
    extend_parity,
    gf_rank,
    gv_max_k,
    min_distance,
    repetition,
)
from latpack.lift import (
    LiftResult,
    _preimage_lattice,
    conditional_eval,
    construction_a_density,
    improve_craig_8x,
    lift_sublattice,
    lift_with_length_n_code,
    mordell_weil_density,
    mw_beater_search,
    pipeline_24n,
    sweep_dimension,
)
from latpack.records import table_rows
from latpack.svp import shortest_vector

import sweep_reference
from log2_reference import delta_sq


def even_code(rows, n, d):
    return LinearCode(CodeSpec(2, n, len(rows), d, CONSTRUCTED), rows)


def full_even_weight_code(width):
    rows = []
    for i in range(width - 1):
        row = [0] * width
        row[i] = row[i + 1] = 1
        rows.append(row)
    return rows


def test_reduced_basis_spans_even_weight_code():
    p = CraigParams(6, 3, 7)
    rows = [[x % 2 for x in row] for row in craig_basis(p).basis.m]
    assert gf_rank(2, rows) == 6
    for row in rows:
        assert sum(row) % 2 == 0


def _weight_row_code(length, weight, d):
    """A [length, 1, d] code (d as claimed) spanned by `weight` ones."""
    return LinearCode(CodeSpec(2, length, 1, d, CONSTRUCTED),
                      [[1] * weight + [0] * (length - weight)])


# Each way into a lift, at A(20, 2, 23) with 8m = 16, given a code of claimed
# distance d, and how many bases it builds when the code is accepted.  The
# length-n code carries an odd weight-d word, so a refusal after the parity
# extension (which rounds 15 up to 16) would come too late; an even-weight
# subcode cannot have odd d, so its d = 15 is a claim.
_GUARDED = {
    "LiftResult": (lambda p, d: LiftResult(p, CodeSpec(2, 21, 1, d, CONSTRUCTED)), 0),
    "lift_sublattice": (lambda p, d: lift_sublattice(p, _weight_row_code(21, 16, d)), 1),
    "lift_with_length_n_code":
        (lambda p, d: lift_with_length_n_code(p, _weight_row_code(20, d, d)), 1),
    "conditional_eval":
        (lambda p, d: conditional_eval(LiftResult(p, CodeSpec(2, 20, 1, d, HYPOTHETICAL))), 0),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_lift_distance_guard(monkeypatch, name):
    import latpack.lift as lift

    built = []

    def counting(*args):
        built.append(args)
        return _preimage_lattice(*args)

    monkeypatch.setattr(lift, "_preimage_lattice", counting)
    p = CraigParams(20, 2, 23)
    make, bases = _GUARDED[name]
    with pytest.raises(ParameterError, match="below the required 8m = 16"):
        make(p, 15)
    assert built == []
    result = make(p, 16)
    assert len(built) == bases
    if name == "conditional_eval":
        assert result == "realized"
    else:
        assert result.min_norm_guarantee == 16


@pytest.mark.parametrize("spec", [CodeSpec(4, 21, 1, 16), CodeSpec(2, 19, 1, 16),
                                  CodeSpec(2, 22, 1, 16)], ids=["q4", "n-1", "n+2"])
def test_lift_result_refuses_code_shape(spec):
    with pytest.raises(ParameterError, match="not binary of length n or n"):
        LiftResult(CraigParams(20, 2, 23), spec)


def test_lift_subcode_guard():
    p = CraigParams(7, 1, 11)
    odd = LinearCode(CodeSpec(2, 8, 1, 7, CONSTRUCTED), [[1] * 7 + [0]])
    with pytest.raises(ParameterError, match="even-weight"):
        lift_sublattice(p, odd)


def test_lift_rep8_full_chain():
    p = CraigParams(7, 1, 11)
    code = extend_parity(repetition(7, 2))  # [8, 1, 8]
    r = lift_sublattice(p, code)
    base = craig_basis(p)
    assert r.lattice.vol_sq == base.vol_sq << (2 * 6)
    assert r.min_norm_guarantee == 8
    norm, _ = shortest_vector(r.lattice)
    assert norm >= 8
    assert r.density.log2(4) == "-4.0000"  # frozen: delta = 1/16


def test_lift_of_full_image_is_identity():
    # the distance guard forbids this through the public op; the raw
    # preimage shows index 1 directly
    p = CraigParams(7, 1, 11)
    pre = _preimage_lattice(p, full_even_weight_code(8))
    assert pre.vol_sq == craig_basis(p).vol_sq


def test_lift_solves_nothing_over_gf2(monkeypatch):
    # Each reduced codeword lifts by a parity walk down the Craig band, so
    # no integer solver runs.  Once the code is built (its rank check
    # eliminates over GF(2)), the lift runs one GF(2) elimination: of a copy
    # of the k x (n+1) generator, over its first n columns, which stays as
    # the caller gave it.
    import latpack.codes as codes
    from latpack import craig, lift

    p = CraigParams(31, 1, 37)
    code = extend_parity(LinearCode(CodeSpec(2, 31, 2, 8, CONSTRUCTED),
                                    [[1] * 8 + [0] * 23, [0] * 23 + [1] * 8]))
    generator = [list(row) for row in code.generator]
    calls = []
    eliminate = codes._gf_eliminate

    def counted(q, work, ncols):
        calls.append((q, len(work), ncols))
        return eliminate(q, work, ncols)

    def no_solve(*args):
        raise AssertionError("the lift reached an integer solver")

    monkeypatch.setattr(codes, "_gf_eliminate", counted)
    for module in (exactnum, craig):
        monkeypatch.setattr(module, "left_solver", no_solve)
    monkeypatch.setattr(exactnum, "solve_left", no_solve)
    assert not hasattr(lift, "left_solver") and not hasattr(lift, "solve_left")
    r = lift_sublattice(p, code)
    assert calls == [(2, 2, 31)]
    assert code.generator == generator
    assert r.lattice.vol_sq == craig_basis(p).vol_sq << (2 * 29)


def test_length_n_lift_equals_the_parity_extension_route():
    # A mod 2 is the even-weight code, so Construction A reads only the first
    # n coordinates: a length-n code lifts, row for row, to the basis of its
    # parity extension.  Seeded random binary [n, k] codes, 4 <= n <= 60;
    # the public lifts run where d >= 8, and both refuse a claimed 8m - 1.
    rnd = random.Random(31)
    lifted = set()
    for _ in range(150):
        n = rnd.randint(4, 60)
        k = rnd.randint(1, min(5, n - 1))
        rows = [[rnd.randint(0, 1) for _ in range(n)] for _ in range(k)]
        if gf_rank(2, rows) < k:
            continue
        d = min_distance(even_code(rows, n, 1))
        c = even_code(rows, n, d)
        ext = extend_parity(c)
        l = next_prime(n + 1)
        p = CraigParams(n, max(1, d // 8), l)
        assert _preimage_lattice(p, rows).basis.m == _preimage_lattice(p, ext.generator).basis.m
        if d >= 8:
            lifted.add(d % 2)
            got = lift_with_length_n_code(p, c)
            want = lift_sublattice(p, ext)
            assert got.lattice.basis.m == want.lattice.basis.m
            assert got.density.factors == want.density.factors
        if d >= 7:
            m = (d + 1) // 8
            q = CraigParams(n, m, l)
            for lift, code in ((lift_with_length_n_code, even_code(rows, n, 8 * m - 1)),
                               (lift_sublattice, even_code(ext.generator, n + 1, 8 * m - 1))):
                with pytest.raises(ParameterError, match=f"below the required 8m = {8 * m}"):
                    lift(q, code)
    assert lifted == {0, 1}  # odd and even d both lifted


def test_improve_craig_8x_builds_no_parity_extension(monkeypatch):
    # The zero-padded [1398, 3] code lifts as it is: besides the concatenated
    # [1393, 3] code and its padding, no [1399, 3] extension is built.
    import latpack.codes as codes
    import latpack.lift as lift

    lengths = []
    init = codes.LinearCode.__init__

    def counted(self, spec, generator):
        lengths.append(spec.n)
        init(self, spec, generator)

    monkeypatch.setattr(codes.LinearCode, "__init__", counted)
    improve_craig_8x(1399)
    assert [n for n in lengths if n >= 1393] == [1393, 1398]
    assert not hasattr(lift, "extend_parity")


@pytest.mark.parametrize("dim", [52, 60, 84, 85, 86, 120, 144, 160, 168])
def test_table2_small_k_rows_as_lifted_lattices(dim):
    # Table 2's k <= 2 records as explicit lattices: the [n, 1, n] repetition
    # code, and at dim 168 the [3, 2, 2] code repeated 56 times, which is
    # [168, 2, 112] with 112 >= 8m = 104.
    row = next(r for r in table_rows(2) if r.dim == dim)
    n, m, l, k = row.dim, row.m, row.l, row.k
    assert k == (2 if n == 168 else 1)
    if k == 1:
        code = repetition(n)
    else:
        code = LinearCode(CodeSpec(2, n, 2, 112, CONSTRUCTED),
                          [[1, 0, 1] * (n // 3), [0, 1, 1] * (n // 3)])
    assert code.spec.d >= 8 * m
    p = CraigParams(n, m, l)
    r = lift_with_length_n_code(p, code)
    vol_sq = l ** (2 * (m - 1)) * (n + 1) * 4 ** (n - k)
    assert r.lattice.rank == n
    assert r.lattice.vol_sq == vol_sq
    assert delta_sq(center_density_lb(p, k)) == delta_sq(r.density)
    assert delta_sq(r.density) == Fraction((2 * m) ** n, vol_sq)


def test_lift_density_consistency_invariant():
    # density equals (sqrt(8m)/2)^n / sqrt(gram) whenever the basis exists
    p = CraigParams(11, 1, 13)
    rows = [[1] * 8 + [0] * 4, [0] * 4 + [1] * 8]
    code = even_code(rows, 12, 8)
    r = lift_sublattice(p, code)
    lhs = delta_sq(r.density)
    rhs = Fraction(8 * p.m, 4) ** p.n / r.lattice.vol_sq
    assert lhs == rhs


def test_lift_index_identity_m2():
    # length-16 repetition, parity-extended: d = 16 = 8m for m = 2
    p = CraigParams(16, 2, 17)
    r = lift_with_length_n_code(p, repetition(16, 2))
    base = craig_basis(p)
    assert r.lattice.vol_sq == base.vol_sq << (2 * 15)
    assert r.min_norm_guarantee == 16


def test_lift_with_length_n_code_density(monkeypatch):
    import latpack.lift as lift

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return center_density_lb(*args, **kwargs)

    monkeypatch.setattr(lift, "center_density_lb", counting)
    p = CraigParams(52, 6, 53)
    r = lift_with_length_n_code(p, repetition(52, 2))
    assert r.density.log2(3) == "10.705"
    assert r.lattice is not None  # 53 <= ambient cap
    assert r.code == repetition(52, 2).spec  # the length-n code, not its extension
    assert len(calls) == 1  # the lift computes none; the one read above computes one


def test_lift_proves_l_prime_once(monkeypatch):
    # Building CraigParams makes the one call; the lift itself tests l no more.
    import latpack.craig as craig
    import latpack.lift as lift
    from latpack.exactnum import is_prime

    code = extend_parity(repetition(7, 2))
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(lift, "is_prime", counting)
    monkeypatch.setattr(craig, "is_prime", counting)
    lift_sublattice(CraigParams(7, 1, 11), code)
    assert calls == [11]


@pytest.mark.parametrize("name", ["lift_sublattice", "membership", "verify_section"])
def test_params_are_not_reproved_prime(monkeypatch, name):
    # CraigParams proves l prime when built; nothing that takes one tests it
    # again.  verify_section builds A(l-1, m, l)'s params, whose constructor
    # is the one check for that triple, so calls from __post_init__ are not
    # counted.
    import latpack.craig as craig
    import latpack.lift as lift
    from latpack.exactnum import is_prime

    p = CraigParams(7, 1, 11)
    calls = []

    def counting(n):
        if sys._getframe(1).f_code is not CraigParams.__post_init__.__code__:
            calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(lift, "is_prime", counting)
    monkeypatch.setattr(craig, "is_prime", counting)
    {
        "lift_sublattice": lambda: lift_sublattice(p, extend_parity(repetition(7, 2))),
        "membership": lambda: membership(p, [0] * 8),
        "verify_section": lambda: craig.verify_section(p),
    }[name]()
    assert calls == []


_RESULTS = {
    "lift_sublattice": lambda: lift_sublattice(CraigParams(7, 1, 11),
                                               extend_parity(repetition(7, 2))),
    "lift_with_length_n_code": lambda: lift_with_length_n_code(CraigParams(16, 2, 17),
                                                               repetition(16, 2)),
    "improve_craig_8x": lambda: improve_craig_8x(1399),
    "mw_beater_search": lambda: mw_beater_search(1667),
    "pipeline_24n": lambda: pipeline_24n(4104),
    "sweep_dimension_9": lambda: sweep_dimension(9),
    "sweep_dimension_149": lambda: sweep_dimension(149),
}


@pytest.mark.parametrize("name", sorted(_RESULTS))
def test_lift_result_stores_only_what_it_cannot_derive(name):
    r = _RESULTS[name]()
    assert [f.name for f in dataclasses.fields(r)] == ["params", "code", "lattice"]
    k = r.code.k if r.code else 0
    assert r.k == k
    assert r.density.factors == center_density_lb(r.params, k).factors
    assert r.min_norm_guarantee == (8 if r.code else 2) * r.params.m


def test_improve_craig_8x():
    r = improve_craig_8x(1399)
    bare = center_density_lb(r.params, 0)
    assert r.density.log2_fraction() - bare.log2_fraction() == 3
    assert r.code.k == 3
    assert r.lattice is None  # ambient beyond construction cap
    # frozen: best-m bare Craig density 2905.8967, +3
    assert r.density.log2(4) == "2908.8967"

    r = improve_craig_8x(1433)
    bare = center_density_lb(r.params, 0)
    assert r.density.log2_fraction() - bare.log2_fraction() == 3

    with pytest.raises(ParameterError):
        improve_craig_8x(1217)  # p - 1 < 1222
    with pytest.raises(ParameterError):
        improve_craig_8x(1398)  # not prime
    # CraigParams checks the dimension before any work that depends on n.
    with pytest.raises(ParameterError, match="n must be <= 65536"):
        improve_craig_8x(65539)


def test_improve_craig_8x_distance_margin():
    # The paper's claim 3 holds "for every prime p with p - 1 >= 1222" because
    # the concatenated distance 4*floor(n/7) reaches the 8m the lift needs,
    # with m chosen as improve_craig_8x chooses it.  From the regime edge to
    # MAX_N + 1 it covers 8(m+1), one step more, at every prime p = n + 1.
    # Below the edge the condition first holds at p = 1051 and then fails at
    # seven primes, the last 1117, so the paper's 1222 is conservative.
    sieve = bytearray([0, 0]) + bytearray([1]) * MAX_N
    for q in range(2, math.isqrt(MAX_N + 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, MAX_N + 2, q)))

    def margin(p: int) -> int:
        n = p - 1
        m = math.floor(n / (2.0 * math.log(n + 1)) + 0.5)  # nearest, half up
        return 4 * (n // 7) - 8 * m

    primes = [p for p in range(1223, MAX_N + 2) if sieve[p]]
    assert (primes[0], primes[-1], len(primes)) == (1223, 65537, 6344)
    assert min(margin(p) for p in primes) >= 8
    below = [p for p in range(2, 1223) if sieve[p]]
    assert next(p for p in below if margin(p) >= 0) == 1051
    assert [p for p in below if p > 1051 and margin(p) < 0] == [
        1061, 1063, 1069, 1087, 1091, 1103, 1117]
    for p in (1223, MAX_N + 1):
        r = improve_craig_8x(p)
        assert r.params.n == p - 1
        assert r.code.d == 4 * ((p - 1) // 7) >= 8 * r.params.m


def test_abstract_claims_1_and_2_over_their_stated_ranges():
    # Claim 1: a GV lattice denser than Mordell-Weil in dimension 2p - 2 for
    # every prime p = 5 mod 6 in 1667..2039 (dims 3332-4076); claim 2: the
    # 24t pipeline at every multiple of 24 in 4104..8640.  Each call raises
    # ParameterError where its guarantee fails.
    primes = [p for p in range(1667, 2040) if p % 6 == 5 and exactnum.is_prime(p)]
    assert [mw_beater_search(p).params.n for p in primes] == [2 * p - 2 for p in primes]
    dims = range(4104, 8641, 24)
    assert [pipeline_24n(n).params.n for n in dims] == list(dims)
    assert (len(primes), len(dims)) == (23, 190)


def test_conditional_eval():
    def verdict(p, n, k, d):
        return conditional_eval(LiftResult(p, CodeSpec(2, n, k, d, HYPOTHETICAL)))

    p = CraigParams(128, 4, 131)
    assert verdict(p, 128, 59, 32) == "open"
    assert center_density_lb(p, 59).log2(4) == "98.3941"  # frozen oracle value

    p = CraigParams(256, 12, 257)
    assert verdict(p, 256, 56, 96) == "open"
    assert center_density_lb(p, 56).log2(4) == "294.8105"

    # a known code realizes the requirement
    p = CraigParams(68, 4, 71)
    assert verdict(p, 68, 8, 32) == "realized"

    # beyond the recorded upper bound (Griesmer refutes it too; the table's
    # verdict comes first)
    p = CraigParams(256, 12, 257)
    assert verdict(p, 256, 99, 96) == "refuted-by-table"

    with pytest.raises(ParameterError):
        verdict(CraigParams(128, 4, 131), 128, 59, 31)

    # Griesmer: a [20, 20, 8] code needs n >= 8 + 4 + 2 + 1 + 16 = 31.
    p = CraigParams(20, 1, 23)
    assert verdict(p, 20, 20, 8) == "refuted-by-bound"
    # [20, 9, 8] meets the bound (8 + 4 + 2 + 1 + 5 = 20): left open.
    assert verdict(p, 20, 9, 8) == "open"


def test_mw_beater_search():
    r = mw_beater_search(1667)
    assert r.params.n == 3332
    assert r.params.m == 104
    assert r.params.l == 3343
    assert r.code.k == gv_max_k(3332, 833) == 636
    mw = mordell_weil_density(1667)
    assert delta_sq(mw) < delta_sq(r.density)
    # beats the published record value as well
    assert r.density.log2_fraction() > Fraction("8897.0184")

    r = mw_beater_search(2039)
    assert r.density.log2_fraction() > Fraction("11375.6625")

    with pytest.raises(ParameterError):
        mw_beater_search(1663)  # prime but = 1 mod 6
    with pytest.raises(ParameterError):
        mw_beater_search(2063)  # out of range


def test_mw_beater_modulus_gap():
    # the modulus prime sits close above 2p; record the observed gaps
    for p in (1667, 2039):
        l = next_prime(2 * p + 1)
        assert l - 2 * p <= 16


def test_pipeline_24n():
    r = pipeline_24n(4104)
    assert (r.code.n, r.code.k, r.code.d) == (4104, 774, 1026)
    assert (r.params.m, r.params.l) == (128, 4111)
    assert r.density.log2_fraction() > 11554  # published claim is a floor
    assert r.density.log2(4) == "11555.3287"  # frozen

    r = pipeline_24n(8208)
    assert r.density.log2_fraction() > Fraction("26808")  # beats the record column

    with pytest.raises(ParameterError):
        pipeline_24n(4105)
    with pytest.raises(ParameterError):
        pipeline_24n(4080)


def test_sweep_dimension():
    r = sweep_dimension(149)
    assert abs(r.density.log2_fraction() - Fraction("112.3048")) < 1
    r = sweep_dimension(193)
    assert abs(r.density.log2_fraction() - Fraction("173.5188")) < 1
    r = sweep_dimension(8)
    assert delta_sq(r.density) > 0
    assert r.min_norm_guarantee in (2 * r.params.m, 8 * r.params.m)
    with pytest.raises(ParameterError):
        sweep_dimension(7)


def _sweep_fields(r):
    return r.params, r.code, r.density.factors, r.min_norm_guarantee


def test_sweep_matches_reference():
    # The earlier sweep (one gv_max_k per m, expanded densities compared) as
    # the oracle, on every n below 1200 and every sweep row of tables 6-10.
    rows = sorted({r.dim for t in range(6, 11) for r in table_rows(t) if r.kind == "sweep"})
    assert len(rows) == 46 and rows[-1] == 16380
    for n in list(range(8, 1200)) + rows:
        assert _sweep_fields(sweep_dimension(n)) == _sweep_fields(sweep_reference.sweep_dimension(n)), n


def test_sweep_deterministic():
    a = sweep_dimension(100)
    b = sweep_dimension(100)
    assert (a.params, a.density.log2(4)) == (b.params, b.density.log2(4))


def test_mordell_weil_density():
    assert delta_sq(mordell_weil_density(11)) == Fraction(1, 121)
    assert mordell_weil_density(53).log2(4) == "67.0127"
    assert mordell_weil_density(2063).log2(4) == "11536.3468"
    with pytest.raises(ParameterError):
        mordell_weil_density(13)  # 13 = 1 mod 6
    with pytest.raises(ParameterError):
        mordell_weil_density(15)  # not prime


def test_construction_a_density():
    assert delta_sq(construction_a_density(CodeSpec(2, 8, 4, 4, CONSTRUCTED))) == Fraction(1, 256)
    assert delta_sq(construction_a_density(CodeSpec(2, 4, 1, 4, CONSTRUCTED))) == Fraction(1, 64)
    for n in (3, 6, 10):
        d = construction_a_density(CodeSpec(2, n, n, 1, CONSTRUCTED))
        assert delta_sq(d) == Fraction(1, 4**n)  # delta = 2^-n
    with pytest.raises(ParameterError):
        construction_a_density(CodeSpec(4, 8, 4, 4, "table-known"))


def _codewords(rows):
    """Every GF(2) combination of ``rows``, as tuples."""
    words = {tuple([0] * len(rows[0]))}
    for row in rows:
        words |= {tuple(a ^ b for a, b in zip(w, row)) for w in words}
    return words


def _even_rows(rng, k, width):
    rows = []
    for _ in range(k):
        row = [rng.randrange(2) for _ in range(width)]
        row[-1] = sum(row[:-1]) % 2
        rows.append(row)
    return rows


@pytest.mark.parametrize("case", ["A(255,32,257) rep[256]", "A(96,48,97) k=4",
                                  "A(1398,97,1399) table 1"])
def test_large_m_lifts_have_the_preimage_volume(case):
    # Checked without an HNF oracle: rows that lie in A, reduce mod 2 into
    # the code and have the preimage's volume span the preimage.
    if case.startswith("A(255"):
        p = CraigParams(255, 32, 257)
        code_rows = repetition(256).generator
        lattice = lift_sublattice(p, repetition(256)).lattice
    elif case.startswith("A(96"):
        p = CraigParams(96, 48, 97)
        code_rows = _even_rows(random.Random(96), 4, 97)
        lattice = _preimage_lattice(p, code_rows)
    else:
        # Table 1's first eightfold-Craig lattice, the lift improve_craig_8x(1399)
        # describes: the [1393, 3, 796] concatenated code, zero-padded and
        # parity-extended.  n + 1 exceeds BASIS_CAP, so the basis is built here.
        p = CraigParams(1398, 97, 1399)
        cc = concatenate(repetition(199, 8), dual_hamming_7_3_4())
        padded = [row + [0] * (p.n - cc.n) for row in cc.generator]
        code_rows = extend_parity(LinearCode(CodeSpec(2, p.n, 3, cc.spec.d, CONSTRUCTED),
                                             padded)).generator
        lattice = _preimage_lattice(p, code_rows)
    k = len(code_rows)
    assert gf_rank(2, code_rows) == k
    assert lattice.rank == p.n
    assert lattice.vol_sq == p.l ** (2 * (p.m - 1)) * (p.n + 1) * 4 ** (p.n - k)
    words = _codewords(code_rows)
    craig_rows = craig_basis(p).basis.m
    for i, row in enumerate(lattice.basis.m):
        assert next(c for c, a in enumerate(row) if a) == i
        assert tuple(x % 2 for x in row) in words
        # Twice a Craig row lies in A; membership takes 4.5 ms a row at n = 1398.
        assert row == [2 * a for a in craig_rows[i]] or membership(p, row)


def test_lift_runs_no_generic_hnf(tmp_path, monkeypatch):
    # A lifted basis is Construction A over the echelon Craig basis, so
    # neither the lift nor its volume reaches the gcd HNF kernel.
    calls = []
    kernel = exactnum._hnf_inplace

    def counted(mat, ncols):
        calls.append((len(mat), ncols))
        return kernel(mat, ncols)

    monkeypatch.setattr(exactnum, "_hnf_inplace", counted)
    gen = tmp_path / "even.txt"
    gen.write_text("2 96 8\n" + "".join(" ".join(map(str, row)) + "\n"
                                        for row in _even_rows(random.Random(95), 8, 96)))
    out = io.StringIO()
    assert run(["lift", "--n", "95", "--m", "1", "--l", "97", "--code", str(gen)], out) == 0
    assert "constructed basis rank 95" in out.getvalue()
    # 8m = 384 exceeds this code's length, so lift_sublattice would refuse it.
    p = CraigParams(96, 48, 97)
    lattice = _preimage_lattice(p, _even_rows(random.Random(96), 4, 97))
    assert lattice.vol_sq == 97 ** (2 * 47) * 97 * 4 ** (96 - 4)
    assert calls == []
