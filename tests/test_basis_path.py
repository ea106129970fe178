"""The basis path without per-entry Python loops, checked against the loops it replaced.

Rows latpack builds itself (the Craig basis, a lifted basis, LLL's output)
enter `IntMatrix` through the unchecked `IntMatrix._trusted`; every other
row still goes through the checked constructor.  Row scans run on `filter`
and `list.index`, and `write_int_rows` writes zero runs by string
repetition.  Each is compared here with the per-entry definition it
replaced (`tests/rowscan_reference.py`), and an AST walk pins the callers
of the unchecked constructor.
"""

import ast
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latpack import craig, exactnum
from latpack.codes import read_generator
from latpack.craig import read_basis
from latpack.errors import ParameterError, ParseError
from latpack.exactnum import IntMatrix, _first_nonzero, echelon_pivots
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
def int_rows(draw):
    width = draw(st.integers(1, 12))
    row = st.lists(entries, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=0, max_size=6))


def written(write, header, rows) -> str:
    buf = io.StringIO()
    write(buf, header, rows)
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
    head, back = exactnum.read_int_rows(io.StringIO(text), "basis", "N r")
    assert head == header and back == rows


def test_write_int_rows_all_zero_row_has_no_trailing_space():
    assert written(exactnum.write_int_rows, [3, 1], [[0, 0, 0]]) == "3 1\n0 0 0\n"
    assert written(exactnum.write_int_rows, [1, 2], [[0], [-2]]) == "1 2\n0\n-2\n"


@given(int_rows())
@example([[0, 0], [0, 0]])  # zero rows
@example([[1, 0, 0], [3, 1, 0]])  # repeated lead
@example([[0, -1, 2], [0, 0, -3]])  # negative leads
@example([[0], [5]])  # a single column
def test_row_scans_match_generator_definitions(rows):
    assert echelon_pivots(rows) == rowscan_reference.echelon_pivots(rows)
    for row in rows:
        assert _first_nonzero(row) == next((c for c, a in enumerate(row) if a), None)
        if any(row):
            assert len(row) - _first_nonzero(row[::-1]) == rowscan_reference.span_end(row)


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
    assert trusted_callers() == {"craig.craig_basis", "lift._preimage_lattice", "svp.lll_reduce"}
    p = craig.CraigParams(12, 3, 13)
    built = [craig.craig_basis(p).basis, _preimage_lattice(p, [[1] * 12 + [0]]).basis,
             lll_reduce(craig.craig_basis(p)).basis]
    for M in built:  # each would pass the checks it skips
        assert M == IntMatrix(M.m) and (M.rows, M.cols) == (12, 13)


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
