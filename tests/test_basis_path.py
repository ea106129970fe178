"""The basis path without per-entry Python loops, checked against the loops it replaced.

Rows latpack builds or parses itself (the Craig basis, a lifted basis,
LLL's output, a basis file) enter `IntMatrix` through the unchecked
`IntMatrix._trusted`; every other row still goes through the checked
constructor.  Each matrix knows its rows' nonzero spans, given by its
builder or scanned once by `filter`, `list.index` and `operator.indexOf`;
`echelon_pivots`, `left_solver`, `gram_det` and `write_int_rows` read
them, and `read_int_rows` converts each distinct token of a file once.
Each is compared here with the per-entry definition it replaced
(`tests/rowscan_reference.py`), every builder's spans with a fresh scan,
and an AST walk pins the callers of the unchecked constructor.
"""

import ast
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latpack import craig, exactnum
from latpack.cli import run
from latpack.codes import read_generator
from latpack.craig import read_basis
from latpack.errors import ParameterError, ParseError
from latpack.exactnum import IntMatrix, _span, echelon_pivots
from latpack.lift import _preimage_lattice
from latpack.svp import lll_reduce

import rowscan_reference

SRC = Path(__file__).resolve().parents[1] / "src" / "latpack"

settings.register_profile("latpack", max_examples=150, deadline=None)
settings.load_profile("latpack")

# Zeros often, so rows have long zero runs, all-zero rows and lone nonzeros;
# small and huge entries of both signs.
entries = st.one_of(
    st.just(0), st.just(0), st.integers(-9, 9),
    st.integers(2**64 - 2, 2**64 + 2), st.integers(-(2**70), 2**70),
)


@st.composite
def int_rows(draw, min_rows=0):
    width = draw(st.integers(1, 12))
    row = st.lists(entries, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=min_rows, max_size=6))


@st.composite
def echelon_rows(draw):
    """Rows with strictly increasing first nonzero columns, all before the
    last column; that column often makes every row sum to 0, so a full set
    of them (one row per column but the last) takes gram_det's pivot path."""
    width = draw(st.integers(2, 12))
    pivots = sorted(draw(st.sets(st.integers(0, width - 2), min_size=1)))
    if draw(st.booleans()):
        pivots = range(width - 1)
    sum_zero = draw(st.booleans())
    rows = []
    for pc in pivots:
        row = [draw(entries) if pc < c else 0 for c in range(width)]
        row[pc] = draw(entries.filter(bool))
        if sum_zero:
            row[-1] = -sum(row[:-1])
        rows.append(row)
    return rows


def written(write, header, rows, *spans) -> str:
    buf = io.StringIO()
    write(buf, header, rows, *spans)
    return buf.getvalue()


@given(int_rows())
@example([[0]])
@example([[0, 0, 0]])
@example([[-5]])
@example([[7, 0, 0, 0], [0, 0, 0, -7], [0, 2**64 + 1, 0, 0]])
@example([[0, 0, 0], [0, 0, 0]])
def test_write_int_rows_matches_per_entry_join(rows):
    width = len(rows[0]) if rows else 1
    header = [width, len(rows)]
    text = written(exactnum.write_int_rows, header, rows)
    assert text == written(rowscan_reference.write_int_rows, header, rows)
    if rows:
        assert written(exactnum.write_int_rows, header, rows, IntMatrix(rows).spans()) == text
    head, back = exactnum.read_int_rows(io.StringIO(text), "basis", "N r")
    assert head == header and back == rows


def test_write_int_rows_all_zero_row_has_no_trailing_space():
    assert written(exactnum.write_int_rows, [3, 1], [[0, 0, 0]]) == "3 1\n0 0 0\n"
    assert written(exactnum.write_int_rows, [1, 2], [[0], [-2]]) == "1 2\n0\n-2\n"


@given(int_rows(min_rows=1))
@example([[0, 0], [0, 0]])  # zero rows
@example([[1, 0, 0], [3, 1, 0]])  # repeated lead
@example([[0, -1, 2], [0, 0, -3]])  # negative leads
@example([[0], [5]])  # a single column
def test_row_scans_match_generator_definitions(rows):
    M = IntMatrix(rows)
    assert echelon_pivots(M) == rowscan_reference.echelon_pivots(rows)
    for row, span in zip(rows, M.spans()):
        lo = next((c for c, a in enumerate(row) if a), None)
        assert span == _span(row) == (None if lo is None else (lo, rowscan_reference.span_end(row)))


def outcome(f, *args):
    """f(*args), or the type and message of the ParameterError it raises."""
    try:
        return f(*args)
    except ParameterError as e:
        return ParameterError, str(e)


@given(st.one_of(int_rows(min_rows=1), echelon_rows()), st.data())
@example([[0, 0], [0, 0]], None)
@example([[1, 0, 0], [3, 1, 0]], None)
@example([[0, -1, 2], [0, 0, -3]], None)
@example([[0], [5]], None)
def test_solver_and_volume_match_the_per_call_scans(rows, data):
    M = IntMatrix(rows)
    assert exactnum.gram_det(M) == rowscan_reference.gram_det(M)
    vectors = [[0] * M.cols, [sum(c) for c in zip(*rows)]]
    if data is not None:
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=M.rows, max_size=M.rows))
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(M.cols)]
        vectors.append(v)
        v = list(v)
        v[data.draw(st.integers(0, M.cols - 1))] += data.draw(st.sampled_from([-1, 1, 2]))
        vectors.append(v)
    solve, ref = outcome(exactnum.left_solver, M), outcome(rowscan_reference.left_solver, M)
    if callable(ref):
        assert [solve(v) for v in vectors] == [ref(v) for v in vectors]
        assert outcome(solve, [0] * (M.cols + 1)) == outcome(ref, [0] * (M.cols + 1))
    else:
        assert solve == ref


def trusted_callers() -> set[str]:
    """(module, function) of every call to IntMatrix._trusted in src."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in ast.walk(tree):
            if not isinstance(top, ast.FunctionDef):
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_trusted"):
                    found.add(f"{path.stem}.{top.name}")
    return found


def test_trusted_constructor_serves_only_rows_latpack_builds():
    # read_basis: read_int_rows has put every token through int(), by its
    # memo or directly, and held every row to the header's width.
    assert trusted_callers() == {"craig.craig_basis", "lift._preimage_lattice",
                                 "svp.lll_reduce", "craig.read_basis"}
    p = craig.CraigParams(12, 3, 13)
    buf = io.StringIO()
    craig.write_basis(craig.craig_basis(p), buf)
    buf.seek(0)
    codes = ([[1] * 12 + [0]], [[1, 1] + [0] * 11, [0, 0, 1, 1] + [0] * 9])
    built = [craig.craig_basis(q).basis for q in (
        p, craig.CraigParams(12, 1, 13), craig.CraigParams(11, 6, 13))]  # m = 1, 2m = n + 1
    built += [_preimage_lattice(p, rows).basis for rows in codes]
    built += [lll_reduce(craig.craig_basis(p)).basis, read_basis(buf).basis]
    for M in built:  # each would pass the checks it skips
        fresh = IntMatrix(M.m)
        assert M == fresh and (M.rows, M.cols) == (fresh.rows, fresh.cols)
        assert M.spans() == fresh.spans()


@pytest.mark.parametrize("bad", [1.0, Fraction(1, 2), Fraction(2), "1"])
def test_checked_constructor_refuses_row_by_row(bad):
    with pytest.raises(ParameterError, match="ragged rows"):
        IntMatrix([[1, 2], [3], [bad, 4]])
    with pytest.raises(ParameterError, match="entries must be integers"):
        IntMatrix([[1, 2], [bad, 4], [3]])
    with pytest.raises(ParameterError, match="entries must be integers"):
        IntMatrix([[1, bad], [3, 4]])


@pytest.mark.parametrize("read, text, line", [
    (read_basis, "3 2\n1 -1 0\n1 x y\n", 3),
    (read_basis, "x y\n", 1),
    (read_generator, "2 3 2\n1 x y\n0 1 1\n", 2),
    (read_generator, "2 x y\n", 1),
])
def test_int_tokens_names_the_first_bad_token(read, text, line):
    with pytest.raises(ParseError, match=f"line {line}: 'x' is not an integer"):
        read(io.StringIO(text))


def test_int_tokens_reads_what_int_accepts():
    lattice = read_basis(io.StringIO("3 2\n+1 -1 0\n0 1_0 -1_0\n"))
    assert lattice.basis.m == [[1, -1, 0], [0, 10, -10]]
    code = read_generator(io.StringIO("2 3 1\n+1 0 0_1\n"))
    assert code.generator == [[1, 0, 1]]


@pytest.mark.parametrize("text, error, message", [
    ("3 0\n", ParameterError, "matrix must have at least one row and one column"),
    ("0 2\n\n\n", ParameterError, "matrix must have at least one row and one column"),
    ("3 2\n1 -1 0\n0 1\n", ParseError, "basis row 2 must have 3 entries"),
    ("3 2\n1 -1 0\n0 1 y\n", ParseError, "basis file line 3: 'y' is not an integer"),
    ("3 1\n1 -1 0\n0 1 -1\n", ParseError, "basis file line 3: more rows than the header's 1"),
    ("2 3\n1 -1\n0 1\n1 0\n", ParameterError, "rank exceeds ambient dimension"),
], ids=["r=0", "N=0", "ragged", "token", "extra row", "rank"])
def test_read_basis_refuses_as_it_did(text, error, message):
    with pytest.raises(error) as info:
        read_basis(io.StringIO(text))
    assert type(info.value) is error and str(info.value) == message


# Spellings int() accepts beyond str()'s own (sign, zeros, underscores, a
# non-ASCII digit), and tokens it rejects.
ACCEPTED = ["0", "0", "0", "-0", "00", "1", "-1", "+1", "1_0", "\u0663", "97", "-97"]
REJECTED = ["x", "1.5", "0x1", "1__0", "_1"]
long_ints = st.integers(10**59, 10**60 - 1).flatmap(lambda v: st.sampled_from([str(v), f"-{v}"]))


@st.composite
def int_row_files(draw):
    """(text, what, header) of an integer-row file whose rows are heavy with
    repeats (the memo) or with distinct 60-digit integers (the fallback),
    and with at most one fault: a bad header, a rejected token, a ragged
    row, a short file or an extra row.  Blank lines may trail."""
    what, header = draw(st.sampled_from([("basis", "N r"), ("generator", "q n k")]))
    width, count = draw(st.integers(0, 9)), draw(st.integers(0, 6))
    fields = [str(width), str(count)] if what == "basis" else ["2", str(width), str(count)]
    fault = draw(st.sampled_from([None, None, None, "fields", "header", "token", "ragged",
                                  "short", "extra"]))
    if fault == "fields":
        fields = fields[1:]
    elif fault == "header":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(REJECTED))
    n_rows = count + (fault == "extra")
    if fault == "short":
        n_rows = draw(st.integers(0, max(count - 1, 0)))
    at = draw(st.integers(0, max(n_rows - 1, 0)))
    lines = [" ".join(fields)]
    for i in range(n_rows):
        size = abs(width + (draw(st.sampled_from([-1, 1])) if fault == "ragged" and i == at else 0))
        pool = long_ints if draw(st.booleans()) else st.sampled_from(ACCEPTED)
        row = draw(st.lists(pool, min_size=size, max_size=size, unique=pool is long_ints))
        if fault == "token" and i == at and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(REJECTED))
        lines.append(" ".join(row))
    lines += draw(st.lists(st.sampled_from(["", "  "]), max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""])), what, header


def read_outcome(read, text, what, header):
    """read(text, what, header), or the type and message of the ParseError it raises."""
    try:
        return read(io.StringIO(text), what, header)
    except ParseError as e:
        return type(e), str(e)


@given(int_row_files())
@example((f"4 3\n{' '.join(map(str, range(10**59, 10**59 + 4)))}\n0 0 1 0\n1_0 x 0 0\n", "basis", "N r"))
@example(("3 2\n+1 -0 00\n\u0663 1_0 -1\n\n  \n", "basis", "N r"))
@example(("2 4 1\n1 0 1 1\n1 0 1 1\n", "generator", "q n k"))
@example(("2 3\n1 0\n", "basis", "N r"))
def test_read_int_rows_matches_per_line_int(case):
    text, what, header = case
    got = read_outcome(exactnum.read_int_rows, text, what, header)
    assert got == read_outcome(rowscan_reference.read_int_rows, text, what, header)
    if got[0] is not ParseError:
        head, rows = got
        assert len({id(row) for row in rows}) == len(rows)


class MemoSpy(exactnum._IntMemo):
    """The reader's memo, counting its lookups and its misses (int() calls)."""

    made = []

    def __init__(self):
        super().__init__()
        self.lookups = self.misses = 0
        self.made.append(self)

    def __getitem__(self, token):
        self.lookups += 1
        return super().__getitem__(token)

    def __missing__(self, token):
        self.misses += 1
        return super().__missing__(token)


def spied_read(monkeypatch, read, text):
    MemoSpy.made = []
    monkeypatch.setattr(exactnum, "_IntMemo", MemoSpy)
    read(io.StringIO(text))
    (memo,) = MemoSpy.made
    assert memo.misses == len(memo)
    return memo


def test_memo_converts_each_distinct_token_once(monkeypatch):
    p = craig.CraigParams(95, 3, 97)
    buf = io.StringIO()
    craig.write_basis(craig.craig_basis(p), buf)
    memo = spied_read(monkeypatch, read_basis, buf.getvalue())
    assert memo.misses <= p.m + 4 and memo.lookups == 95 * 96  # never falls back

    rng = random.Random(5)
    gen = [[1 if c == i else rng.randint(0, 1) for c in range(31)] for i in range(6)]
    memo = spied_read(monkeypatch, read_generator, written(exactnum.write_int_rows, [2, 31, 6], gen))
    assert memo.misses == 2 and memo.lookups == 6 * 31

    values = rng.sample(range(10**11, 10**12), 40 * 41)
    rows = [values[i * 41:(i + 1) * 41] for i in range(40)]
    memo = spied_read(monkeypatch, read_basis, written(exactnum.write_int_rows, [41, 40], rows))
    assert memo.misses == memo.lookups == 41  # the first row trips the rule


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("read, what, text, line", [
    (read_basis, "basis", "3 2\n1 -1 0\n0 {} -1\n", 3),
    (read_generator, "generator", "2 3 1\n{} 0 1\n", 2),
])
@pytest.mark.parametrize("token", ["1" * 5000, "-" + "1" * 5000, "1_" * 4999 + "1"])
def test_oversized_integer_token_names_digits_and_limit(
        digit_limit, tmp_path, capsys, read, what, text, line, token):
    message = (f"{what} file line {line}: integer {token[:12]!r}... has 5000 digits,"
               f" over the limit of {digit_limit}")
    with pytest.raises(ParseError) as info:
        read(io.StringIO(text.format(token)))
    assert str(info.value) == message
    path = tmp_path / "file.txt"
    path.write_text(text.format(token))
    argv = (["verify", "--basis", str(path), "--bound", "2"] if read is read_basis
            else ["lift", "--n", "2", "--m", "1", "--l", "3", "--code", str(path)])
    assert run(argv, io.StringIO()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # A digit run past the limit that is no integer is still refused as one.
    with pytest.raises(ParseError, match="is not an integer"):
        read(io.StringIO(text.format("1" * 5000 + "x")))


@pytest.mark.parametrize("read, text, message", [
    (read_basis, "-3 2\n1 2 3\n", "basis file line 1: row width -3 and row count 2 must not be negative"),
    (read_basis, "3 -1\n", "basis file line 1: row width 3 and row count -1 must not be negative"),
    (read_generator, "2 -3 1\n1 0 1\n",
     "generator file line 1: row width -3 and row count 1 must not be negative"),
    (read_generator, "2 3 -2\n", "generator file line 1: row width 3 and row count -2 must not be negative"),
])
def test_negative_header_fields_are_refused(read, text, message):
    with pytest.raises(ParseError) as info:
        read(io.StringIO(text))
    assert str(info.value) == message
