import dataclasses
from fractions import Fraction

import pytest

from latpack.errors import ParameterError, ParseError
from latpack.records import (
    TABLE_SIZES,
    builtin_records,
    compare,
    emit_table,
    ingest,
    render_report,
    table_rows,
)


def test_ingest(tmp_path):
    f = tmp_path / "recs.csv"
    f.write_text(
        "dim,log2_delta,name,source,kind\n"
        "4096,11527,Mordell-Weil,Table5,record\n"
        "86,34.2075,Shimada,Sec4,record\n"
    )
    t = ingest(f)
    assert t.best_record(4096).log2_delta == "11527"
    assert t.best_record(86).name == "Shimada"

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert ingest(empty).by_dim == {}

    dup = tmp_path / "dup.csv"
    dup.write_text("4096,11527,MW,a,record\n4096,11528,MW,b,record\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest(dup)

    bad = tmp_path / "bad.csv"
    bad.write_text("4096,eleven,MW,a,record\n")
    with pytest.raises(ParseError, match="line 1"):
        ingest(bad)


def test_compare_examples():
    v = compare(4096, Fraction("11529"))
    assert (v.relation, v.margin) == ("beats", "2.0000")
    v = compare(96, Fraction("47.9003"))
    assert v.relation == "below"
    assert v.against.log2_delta == "52.078"
    v = compare(104, Fraction("67.0168"))
    assert (v.relation, v.margin) == ("ties", "0.0000")
    assert compare(4096, 11529) == compare(4096, Fraction(11529))
    with pytest.raises(ParameterError):
        compare(9999, Fraction("1.0"))


@pytest.mark.parametrize("candidate", [47.9, float("nan"), float("inf"), "47.9"])
def test_compare_refuses_inexact_candidates(candidate):
    with pytest.raises(ParameterError, match="exact rational"):
        compare(96, candidate)


def test_verdicts_and_ledgers_are_derived():
    assert [f.name for f in dataclasses.fields(compare(96, Fraction("47.9003")))] == [
        "margin", "against"]
    rep = emit_table(2, tolerance=Fraction(1, 10))
    assert [f.name for f in dataclasses.fields(rep)] == ["table_id", "rows"]


def test_compare_accepts_log_density():
    from latpack.lift import mordell_weil_density

    v = compare(104, mordell_weil_density(53))
    assert v.relation == "below"  # formula value 67.0127 sits under the recorded 67.0168
    assert abs(Fraction(v.margin)) < Fraction(1, 100)


def test_hypothetical_never_counts_as_record():
    recs = builtin_records()
    best160 = recs.best_record(160)
    assert best160.name == "Minkowski-Hlawka"  # not the paper-claim entry


def test_table_coverage():
    seen = {}
    for tid, size in TABLE_SIZES.items():
        rows = table_rows(tid)
        assert len(rows) == size, f"table {tid}"
        for r in rows:
            key = (r.table, r.dim, r.m, r.k, r.stated)
            assert key not in seen, f"duplicate row {key}"
            seen[key] = True
    assert len(seen) == sum(TABLE_SIZES.values())


def test_emit_table_1_exact_plus_three():
    rep = emit_table(1)
    assert len(rep.rows) == 4
    for row in rep.rows:
        assert row.diff == "0.0000"
        assert row.within
    assert not rep.ledger


def test_emit_table_2_values():
    rep = emit_table(2, tolerance=Fraction(1, 10))
    by_dim = {r.dim: r for r in rep.rows}
    assert by_dim[360].computed.startswith("443.02")
    assert by_dim[52].computed == "10.7055"
    assert by_dim[96].within
    # the known problem rows are flagged into the ledger
    assert not by_dim[120].within
    assert not by_dim[160].within
    assert {r.dim for r in rep.ledger} == {120, 160}


def test_emit_table_deterministic():
    a = render_report(emit_table(4, tolerance=Fraction(1, 10)))
    b = render_report(emit_table(4, tolerance=Fraction(1, 10)))
    assert a == b


def test_emit_table_csv_format():
    out = render_report(emit_table(1), "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "table,dim,computed,stated,diff,agrees,note"
    assert len(lines) == 5


def test_emit_table_unknown_id():
    with pytest.raises(ParameterError):
        emit_table(11)
