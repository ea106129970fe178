"""Reference Hermite normal form for the differential tests of `latpack.exactnum`.

This is the HNF kernel that `latpack.exactnum` used before it ran the
elimination first and reduced above the pivots in one bottom-up pass,
copied unchanged: it reduces every earlier row above a pivot as soon as
the pivot is found.  It is a test oracle only.
"""

from __future__ import annotations

from latpack.errors import RankError
from latpack.exactnum import IntMatrix


def _hnf_inplace(mat, ncols):
    """Row-style HNF of the first ``ncols`` columns of ``mat`` (list of lists).

    Row operations act on whole rows, so columns past ``ncols`` (an appended
    identity, say) record the transform.  Pivots positive, entries above
    each pivot reduced into [0, pivot).  Returns the pivot column indices.
    """
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # Clear column c below row r by gcd elimination.
        while True:
            nz = [i for i in range(r, nrows) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(mat[i][c]), i))
            if i0 != r:
                mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, nrows):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if mat[r][c] == 0:
            continue
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return pivots


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Hermite normal form of a full-row-rank matrix.

    Returns (H, U) with U unimodular and U*M = H, read off the HNF of the
    augmented matrix [M | I].  Raises RankError when the rows are dependent;
    use hnf_basis for generating sets.
    """
    c = M.cols
    mat = [row + [1 if i == j else 0 for j in range(M.rows)] for i, row in enumerate(M.m)]
    pivots = _hnf_inplace(mat, c)
    if len(pivots) != M.rows:
        raise RankError(f"matrix has rank {len(pivots)} < {M.rows} rows")
    return IntMatrix([r[:c] for r in mat]), IntMatrix([r[c:] for r in mat])


def hnf_basis(M: IntMatrix) -> IntMatrix:
    """Canonical basis (nonzero HNF rows) of the lattice generated by the rows of M."""
    mat = [list(r) for r in M.m]
    pivots = _hnf_inplace(mat, M.cols)
    if not pivots:
        raise RankError("matrix generates the zero lattice")
    return IntMatrix(mat[: len(pivots)])

