"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 4 and 6 check latpack against an independent `decimal`
evaluation of the closed-form densities, and pin every place where the
published values disagree with their own formulas: the discrepancy ledger of
the table reports, and the margin of the p = 2063 Mordell-Weil reference.
Published values are asserted verbatim; none is edited to agree.
"""

import random
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

from latpack.exactnum import next_prime, solve_left
from latpack.craig import CraigParams, craig_basis, membership
from latpack.codes import (
    CONSTRUCTED,
    CodeSpec,
    LinearCode,
    dual_hamming_7_3_4,
    extend_parity,
    extended_hamming_8_4_4,
    gv_max_k,
    lemma62_params,
    min_distance,
    repetition,
    single_parity_3_2_2,
    concatenate,
)
from latpack.lift import (
    construction_a_density,
    lift_sublattice,
    lift_with_length_n_code,
    mordell_weil_density,
    pipeline_24n,
    sweep_dimension,
)
from latpack.records import compare, emit_table, table_rows
from latpack.svp import shortest_vector

from log2_reference import delta_sq


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def first_primes_ge(x, count):
    out = []
    p = next_prime(x)
    while len(out) < count:
        out.append(p)
        p = next_prime(p + 1)
    return out


# Independent reference for criteria 4 and 6: 60-digit decimal logarithms,
# sharing no code with latpack's own log2 or rendering.
_ORACLE = Context(prec=60, rounding=ROUND_HALF_EVEN)
_SETTLED = Decimal("1e-40")  # far above the oracle's error, far below 0.0001


def _oracle_log2(const, terms):
    """const + sum(c * log2(b)) for rational const and c, positive integers b."""
    with localcontext(_ORACLE):
        def dec(q):
            q = Fraction(q)
            return Decimal(q.numerator) / q.denominator

        ln2 = Decimal(2).ln()
        return dec(const) + sum(dec(c) * Decimal(b).ln() / ln2 for c, b in terms)


def _oracle_craig(n, m, l, k):
    """log2 of 2^(k-n/2) m^(n/2) / (l^(m-1) (n+1)^(1/2))."""
    return _oracle_log2(Fraction(2 * k - n, 2),
                        [(Fraction(n, 2), m), (1 - m, l), (Fraction(-1, 2), n + 1)])


def _oracle_mordell_weil(p):
    """log2 of ((p+1)/12)^(p-1) / p^((p-5)/6)."""
    return _oracle_log2(0, [(p - 1, p + 1), (1 - p, 12), (Fraction(5 - p, 6), p)])


def _settled4(x):
    """x rounded half-even to 4 decimals, checked to lie more than 1e-40 from a
    rounding boundary so that the oracle's precision settles every digit."""
    with localcontext(_ORACLE):
        r = x.quantize(Decimal("0.0001"))
        assert abs(abs(x - r) - Decimal("0.00005")) > _SETTLED, x
    return str(r)


def _oracle_row(raw):
    """Exact log2 density of a published table row, from its parameters."""
    if raw.kind == "craig8x":  # 8x the known Craig density
        return Decimal(raw.known) + 3
    if raw.kind in ("lift", "conditional"):
        m, l, k = raw.m, raw.l, raw.k
    elif raw.kind == "mwbeat":  # dimension 2p-2: m = (p-1)/16, l > 2p, k = 0.3776 (p-1)
        p = raw.dim // 2 + 1
        m, l, k = (p - 1) // 16, next_prime(2 * p + 1), 3776 * (p - 1) // 10000
    else:  # pipeline24 and sweep rows: the parameters latpack chose
        chosen = pipeline_24n(raw.dim) if raw.kind == "pipeline24" else sweep_dimension(raw.dim)
        m, l = chosen.params.m, chosen.params.l
        k = chosen.code.k if chosen.code else 0
    return _oracle_craig(raw.dim, m, l, k)


def test_criterion_1_volume_identity():
    checked = 0
    for n in range(4, 25):
        for l in first_primes_ge(n + 1, 2):
            for m in range(1, (n - 1) // 2 + 1):
                lat = craig_basis(CraigParams(n, m, l))
                assert lat.vol_sq == l ** (2 * (m - 1)) * (n + 1), (n, m, l)
                checked += 1
    _report(1, True, f"gram determinant = l^(2(m-1))(n+1) on {checked} lattices, exact")


def test_criterion_2_minimum_norm():
    checked = 0
    for n in range(3, 25):
        for l in first_primes_ge(n + 1, 2):
            for m in range(1, (n - 1) // 2 + 1):
                norm, _ = shortest_vector(craig_basis(CraigParams(n, m, l)))
                assert norm >= 2 * m, (n, m, l, norm)
                checked += 1
    assert checked == 264
    _report(2, True, f"enumerated minimum >= 2m on {checked} lattices (n <= 24), exact")


def _desk_lifts():
    """At least ten lifts with n <= 13 (plus guards exercised elsewhere)."""
    lifts = []
    # [8,1,8] extended repetition lifted into the n = 7 lattice (d = 7 < 8
    # before extension, so this one goes through the subcode route)
    lifts.append((CraigParams(7, 1, 11), extend_parity(repetition(7, 2)), "length-n+1"))
    for n in range(8, 14):  # repetition codes, k = 1, d = n >= 8
        lifts.append((CraigParams(n, 1, next_prime(n + 1)), repetition(n, 2), "length-n"))
    for n in (11, 13):  # direct even-weight subcodes from two overlapping 8-blocks, k = 2
        width = n + 1
        rows = [[1] * 8 + [0] * (width - 8), [0] * (width - 8) + [1] * 8]
        code = LinearCode(CodeSpec(2, width, 2, 8, CONSTRUCTED), rows)
        assert min_distance(code) >= 8
        lifts.append((CraigParams(n, 1, next_prime(n + 1)), code, "length-n+1"))
    # k = 3 even-weight subcode of length 14 with all weights 8
    rows = [
        [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1],
    ]
    code = LinearCode(CodeSpec(2, 14, 3, 8, CONSTRUCTED), rows)
    assert min_distance(code) == 8
    lifts.append((CraigParams(13, 1, 17), code, "length-n+1"))
    return lifts


def test_criterion_3_lift_certification():
    count = 0
    for params, code, kind in _desk_lifts():
        if kind == "length-n":
            result = lift_with_length_n_code(params, code)
        else:
            result = lift_sublattice(params, code)
        base = craig_basis(params)
        k = result.code.k
        assert result.lattice.vol_sq == base.vol_sq << (2 * (params.n - k)), (params, k)
        norm, _ = shortest_vector(result.lattice)
        assert norm >= 8 * params.m, (params, norm)
        count += 1
    assert count >= 10
    _report(3, True, f"volume ratio 2^(2(n-k)) exact and enumerated norm >= 8m on {count} lifts")


# (table, dim) of every published row more than 0.1 from exact recomputation:
# six slips in tables 2 and 4 and the 14 rows of tables 5 and 6, which the
# paper renders as integers.
_LEDGER = [
    (2, 120), (2, 160),
    (4, 140), (4, 716), (4, 1024), (4, 2048),
    (5, 3332), (5, 3956), (5, 3992), (5, 4004), (5, 4052), (5, 4076), (5, 4096),
    (6, 4098), (6, 4104), (6, 4124), (6, 8184), (6, 8190), (6, 8208), (6, 16380),
]


def test_criterion_4_table_reproduction():
    tol = Decimal("0.1")
    total = 0
    ledger = []
    for tid in (1, 2, 4, 5, 6):
        report = emit_table(tid, tolerance=Fraction(tol))
        raws = table_rows(tid)
        assert len(report.rows) == len(raws)
        beyond = []  # this table's rows the oracle puts beyond tolerance
        for raw, row in zip(raws, report.rows):
            exact = _oracle_row(raw)
            assert row.computed == _settled4(exact), (tid, row.dim, row.computed)
            with localcontext(_ORACLE):
                nearest = min((Decimal(v) for v in (raw.stated, raw.alt) if v),
                              key=lambda v: abs(exact - v))
                signed = exact - nearest
                assert abs(abs(signed) - tol) > _SETTLED, (tid, row.dim)
            assert row.stated == raw.stated
            assert row.diff == _settled4(abs(signed)), (tid, row.dim, row.diff)
            assert row.within == (abs(signed) <= tol), (tid, row.dim)
            if abs(signed) > tol:
                beyond.append(row)
                ledger.append((row, _settled4(signed)))
            total += 1
        assert report.ledger == beyond, tid
        if tid == 1:
            assert all(r.diff == "0.0000" for r in report.rows), "table 1 must be known+3 exactly"
    for row, signed in ledger:
        print(f"  ledger: table {row.table} dim {row.dim}: computed {row.computed} "
              f"vs stated {row.stated} ({signed})")
    # The published values, not the recomputation, are off on these rows; no
    # nearby (m, l, k) reproduces the slips, so they stay in the ledger.
    assert [(row.table, row.dim) for row, _ in ledger] == _LEDGER
    within = total - len(ledger)
    _report(4, True, f"{within}/{total} rows within 0.1 ({100 * within / total:.1f}%), every "
                     f"computed value equal to the decimal oracle; {len(ledger)} published "
                     f"rows in the discrepancy ledger; table 1 factor-8 exact")


def test_criterion_5_gv_oracle():
    exact = gv_max_k(4096, 1024)
    assert exact >= 772
    spec = lemma62_params(513)
    assert (spec.n, spec.k, spec.d) == (4104, 774, 1026)
    _report(5, True, f"gv_max_k(4096,1024) = {exact} >= 772; lemma family t=513 -> [4104,774,1026]")


def test_criterion_6_mordell_weil_references():
    exact, got = {}, {}
    for p in (53, 2063):
        exact[p], got[p] = _oracle_mordell_weil(p), mordell_weil_density(p)
        assert got[p].log2() == _settled4(exact[p]), (p, got[p].log2())
        frac = got[p].log2_fraction()
        with localcontext(_ORACLE):
            assert abs(Decimal(frac.numerator) / frac.denominator - exact[p]) < _SETTLED, p
    assert abs(got[53].log2_fraction() - Fraction("67.0168")) <= Fraction(1, 100), (
        "p=53 reference value not reproduced"
    )
    # The stored p=2063 record 11537.1837 is inconsistent with its own formula,
    # 172^2062 / 2063^343 = 2^11536.3468; the record stays verbatim and the
    # comparison reports the formula below it.
    verdict = compare(4124, got[2063])
    against = verdict.against
    assert (against.dim, against.name, against.log2_delta) == (4124, "Mordell-Weil", "11537.1837")
    with localcontext(_ORACLE):
        margin = exact[2063] - Decimal(against.log2_delta)
    assert _settled4(margin) == "-0.8369"
    assert (verdict.relation, verdict.margin) == ("below", "-0.8369")
    _report(6, True, f"p=53 formula {_settled4(exact[53])} within 0.01 of 67.0168; "
                     f"p=2063 formula {_settled4(exact[2063])}, {verdict.margin} below the "
                     f"stated 11537.1837; both equal to the decimal oracle")


def test_criterion_7_construction_a():
    d = construction_a_density(CodeSpec(2, 8, 4, 4, CONSTRUCTED))
    assert delta_sq(d) == Fraction(1, 256)  # delta = 1/16
    d = construction_a_density(CodeSpec(2, 4, 1, 4, CONSTRUCTED))
    assert delta_sq(d) == Fraction(1, 64)  # delta = 1/8
    _report(7, True, "delta([8,4,4]) = 1/16 and delta([4,1,4]) = 1/8, exact")


def test_criterion_8_property_suites():
    rng = random.Random(1234)

    # membership == HNF-membership, 1000 random vectors per parameter set
    for (n, m, l) in [(6, 3, 7), (8, 2, 11), (10, 4, 11), (12, 5, 13)]:
        p = CraigParams(n, m, l)
        basis = craig_basis(p).basis
        for _ in range(1000):
            v = [rng.randint(-l, l) for _ in range(n + 1)]
            assert membership(p, v) == (solve_left(basis, v) is not None)

    # parity extension: all codewords even, exhaustively
    import itertools

    for code in (dual_hamming_7_3_4(), extended_hamming_8_4_4(),
                 single_parity_3_2_2(), repetition(9, 2)):
        ext = extend_parity(code)
        for msg in itertools.product((0, 1), repeat=ext.k):
            word = [0] * ext.n
            for mi, row in zip(msg, ext.generator):
                if mi:
                    word = [a ^ b for a, b in zip(word, row)]
            assert sum(word) % 2 == 0

    # concatenation distance >= product on constructed desk-scale codes
    for inner in (repetition(5, 2), single_parity_3_2_2(), dual_hamming_7_3_4()):
        outer = repetition(4, 1 << inner.k)
        cc = concatenate(outer, inner)
        assert min_distance(cc) >= outer.spec.d * inner.spec.d

    # enumeration invariance under 20 random unimodular scrambles
    from latpack.exactnum import IntMatrix

    lat = craig_basis(CraigParams(7, 3, 11))
    want, _ = shortest_vector(lat)
    for _ in range(20):
        rows = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
        for _ in range(10):
            i, j = rng.sample(range(7), 2)
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        scrambled = IntMatrix(rows).matmul(lat.basis)
        got, _ = shortest_vector(scrambled)
        assert got == want

    _report(8, True, "membership/HNF x4000, parity parity-exhaustive, concat bounds, "
                     "20 scramble-invariant enumerations")
