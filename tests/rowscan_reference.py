"""Reference row scans, row writer and reader, and solvers for the differential tests of `latpack.exactnum`.

The scans and the writer are the definitions `latpack.exactnum` used before
its row scans went through `filter` and `list.index` and its writer through
zero runs, copied unchanged: every entry is visited in Python bytecode.
`left_solver` and `gram_det` are the ones it used before rows kept their
spans, on these scans: every call scans every row of the basis again.
`read_int_rows` is the reader before tokens went through a memo: every
token of every line goes through its own int() call.  Test oracles only.
"""

from __future__ import annotations

import math

from latpack.errors import ParameterError, ParseError
from latpack.exactnum import gso_extend


def echelon_pivots(rows) -> list[int] | None:
    """Pivot columns of an echelon basis, or None (the earlier generator scan)."""
    pivots = []
    for row in rows:
        pc = next((c for c, a in enumerate(row) if a), None)
        if pc is None or (pivots and pc <= pivots[-1]):
            return None
        pivots.append(pc)
    return pivots


def span_end(row) -> int:
    """One past the last nonzero column of a row with a nonzero entry (left_solver's scan)."""
    return len(row) - next(c for c, a in enumerate(reversed(row)) if a)


def write_int_rows(fh, header, rows) -> None:
    """The header line, then one line per row, every entry through str."""
    for row in [header, *rows]:
        fh.write(" ".join(str(x) for x in row) + "\n")


def _int_tokens(tokens, what: str, line: int) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        for t in tokens:  # name the first token int() rejects
            try:
                int(t)
            except ValueError:
                raise ParseError(f"{what} file line {line}: {t!r} is not an integer") from None
        raise


def read_int_rows(fh, what: str, header: str) -> tuple[list[int], list[list[int]]]:
    """A header line of integers, then its rows: one list(map(int, ...)) per line."""
    fields = fh.readline().split()
    if len(fields) != len(header.split()):
        raise ParseError(f"{what} file must start with '{header}'")
    head = _int_tokens(fields, what, 1)
    width, count = head[-2:]
    rows = []
    for i in range(count):
        line = fh.readline()
        parts = line.split()
        if not line or len(parts) != width:
            raise ParseError(f"{what} row {i + 1} must have {width} entries")
        rows.append(_int_tokens(parts, what, i + 2))
    for i, line in enumerate(fh, count + 2):
        if line.strip():
            raise ParseError(f"{what} file line {i}: more rows than the header's {count}")
    return head, rows


def left_solver(B):
    """v -> x with x*B = v, or None; ParameterError unless B is echelon."""
    pivots = echelon_pivots(B.m)
    if pivots is None:
        raise ParameterError("solving needs an echelon basis (rows starting at increasing columns)")
    steps = []
    for row, pc in zip(B.m, pivots):
        hi = span_end(row)
        steps.append((pc, row[pc], hi, row[pc:hi]))

    def solve(v):
        if len(v) != B.cols:
            raise ParameterError("vector length does not match matrix columns")
        residual = list(v)
        q = []
        for pc, pivot, hi, span in steps:
            qi, r = divmod(residual[pc], pivot)
            if r != 0:
                return None
            if qi:
                residual[pc:hi] = [a - qi * b for a, b in zip(residual[pc:hi], span)]
            q.append(qi)
        return None if any(residual) else q

    return solve


def gram_det(B) -> int:
    """det(B * B^T): N * (pivot product)^2 for a rank N-1 echelon basis in sum(x) = 0."""
    if B.rows == B.cols - 1 and not any(sum(row) for row in B.m):
        pivots = echelon_pivots(B.m)
        if pivots is not None:
            det = math.prod(row[pc] for row, pc in zip(B.m, pivots))
            return B.cols * det * det
    d, lam = [1], []
    return d[-1] if all(gso_extend(B.m, d, lam) for _ in range(B.rows)) else 0
