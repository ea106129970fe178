"""Reference row scans and row writer for the differential tests of `latpack.exactnum`.

These are the definitions `latpack.exactnum` used before its row scans went
through `filter` and `list.index` and its writer through zero runs, copied
unchanged: every entry is visited in Python bytecode.  Test oracles only.
"""

from __future__ import annotations


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
