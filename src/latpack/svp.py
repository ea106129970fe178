"""Exact shortest-vector certification.

Integral LLL (Cohen, *A Course in Computational Algebraic Number Theory*,
Alg. 2.6.7) followed by depth-first Fincke-Pohst enumeration scaled by the
integral Gram determinants.  Both run on plain ints, so a returned minimum
is a certificate, not an estimate.  At each level the enumeration visits,
in ascending order, the closed-form integer interval of coefficients that
keep the norm below the current bound.  It searches one vector of each
+-v pair, the one whose top nonzero coefficient is negative, and returns
the witness a search over both signs returns: the shortest reduced basis
row, or, when some vector is shorter, the first minimal vector in the
search order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, ParameterError, RankError
from .craig import IntegerLattice
from .exactnum import IntMatrix, div_round_half_even, gso_extend

__all__ = ["ReducedBasis", "Certificate", "lll_reduce", "shortest_vector", "verify_min_norm"]

RANK_CAP = 40


@dataclass
class ReducedBasis:
    """An LLL-reduced basis with its integral Gram-Schmidt data.

    ``d[i]`` is the Gram determinant of the first ``i`` rows (``d[0] = 1``),
    so the i-th orthogonalized row has squared norm ``d[i+1] / d[i]``, and
    ``lam[i][j] = d[j+1] * mu[i][j]`` (for ``j < i``) is an integer.
    """

    basis: IntMatrix
    d: list  # ints, d[0] = 1 and d[i+1] = d[i] * |b*_i|^2
    lam: list  # ints, lam[i] has the i entries lam[i][j], j < i

    @property
    def gso_norms(self) -> list:
        """Fractions, squared norms of the orthogonalized rows."""
        d = self.d
        return [Fraction(d[i + 1], d[i]) for i in range(len(d) - 1)]

    @property
    def mu(self) -> list:
        """Fractions, mu[i][j] = <b_i, b*_j> / |b*_j|^2 for j < i, and 0 for j >= i."""
        r = len(self.lam)
        return [[Fraction(row[j], self.d[j + 1]) if j < i else Fraction(0) for j in range(r)]
                for i, row in enumerate(self.lam)]


@dataclass
class Certificate:
    bound: int
    norm: int
    witness: list | None  # shortest vector when the bound is violated
    # Enumeration nodes visited: the coefficients of each level's interval
    # that stay below the current bound, for one vector of each +-v pair
    # (A_n takes n(n+1)/2); the sign rule leaves the witness as it was.
    nodes: int

    @property
    def holds(self) -> bool:
        return self.norm >= self.bound


def _basis(lattice) -> IntMatrix:
    """The basis of an IntegerLattice or an IntMatrix, or a list of rows as one.

    A list of rows is checked through IntMatrix (integer entries, equal
    widths) before any arithmetic: LLL never ends on a NaN entry.
    """
    if isinstance(lattice, IntegerLattice):
        return lattice.basis
    if isinstance(lattice, IntMatrix):
        return lattice
    return IntMatrix(lattice)


def lll_reduce(lattice, quality: Fraction = Fraction(99, 100)) -> ReducedBasis:
    """LLL-reduce a basis with integral Gram-Schmidt data (Cohen, Alg. 2.6.7).

    Row k's data is appended by ``exactnum.gso_extend`` the first time k
    reaches it and is updated in place on every size reduction and swap.
    b_k is size-reduced against b_{k-1}, ..., b_0 before the Lovasz test.
    """
    if not isinstance(quality, (Fraction, int)) or not Fraction(1, 4) < quality < 1:
        raise ParameterError(f"quality must be an exact rational in (1/4, 1), got {quality!r}")
    basis = [list(r) for r in _basis(lattice).m]
    a, b = quality.numerator, quality.denominator
    r = len(basis)
    d = [1]
    lam: list[list[int]] = []

    if r and not gso_extend(basis, d, lam):
        raise RankError("dependent rows in basis")
    k = 1
    while k < r:
        if k == len(lam) and not gso_extend(basis, d, lam):
            raise RankError("dependent rows in basis")
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam_k[j]) > d[j + 1]:
                q = div_round_half_even(lam_k[j], d[j + 1])
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                lam_j = lam[j]
                for t in range(j):
                    lam_k[t] -= q * lam_j[t]
                lam_k[j] -= q * d[j + 1]
        nu = lam_k[k - 1]
        # |b*_k|^2 >= (quality - mu_{k,k-1}^2) |b*_{k-1}|^2, times b * d_k * d_{k-1}
        if b * d[k + 1] * d[k - 1] >= a * d[k] * d[k] - b * nu * nu:
            k += 1
            continue
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        lam[k - 1], lam[k] = lam_k[:k - 1], lam[k - 1] + [nu]
        new_dk = (d[k - 1] * d[k + 1] + nu * nu) // d[k]
        for lam_i in lam[k + 1:]:
            t = lam_i[k]
            lam_i[k] = (d[k + 1] * lam_i[k - 1] - nu * t) // d[k]
            lam_i[k - 1] = (new_dk * t + nu * lam_i[k]) // d[k + 1]
        d[k] = new_dk
        k = max(k - 1, 1)
    return ReducedBasis(IntMatrix._trusted(basis), d, lam)


def shortest_vector(lattice, stats: dict | None = None):
    """Exact minimum squared norm over nonzero vectors, with a witness vector.

    Deterministic Fincke-Pohst depth-first search on an LLL-reduced basis.
    Level l adds |b*_l|^2 (x_l + sum_{t>l} mu_tl x_t)^2, which equals
    (d_{l+1} x_l + C_l)^2 / (d_l d_{l+1}) with the integer centre numerator
    C_l = sum_{t>l} lam_tl x_t; every norm is scaled by
    L = lcm_l(d_l d_{l+1}), so each pruning test compares ints.

    - Interval: with s_l = L / (d_l d_{l+1}) and t = isqrt((best - partial
      - 1) // s_l), the x_l that keep the scaled norm below ``best`` are
      exactly the integers in [-((C_l + t) // d_{l+1}), (t - C_l) // d_{l+1}],
      visited in ascending order.
    - Sign rule: at a level where every higher coefficient is 0, only
      x_l <= 0 is taken, so the search visits one vector of each +-v pair,
      the one whose top nonzero coefficient is negative.
    - Witness: ``best`` falls only on a strictly shorter vector, so the
      witness is the shortest row of the reduced basis unless a vector is
      shorter, and otherwise the lexicographically first minimal coefficient
      vector (ascending, top coordinate most significant).  That vector has
      a negative top nonzero coefficient, and each positive branch is
      visited after its mirror, so the sign rule changes neither the
      minimum, nor the witness, nor the order in which ``best`` falls.

    When ``stats`` is given, ``stats["nodes"]`` is increased by the number
    of enumeration nodes visited.
    """
    basis = _basis(lattice)
    if basis.rows > RANK_CAP:
        raise CapacityError(f"rank {basis.rows} exceeds enumeration cap {RANK_CAP}")
    red = lll_reduce(basis)
    rows, d, lam = red.basis.m, red.d, red.lam
    r = len(rows)
    dens = [d[l] * d[l + 1] for l in range(r)]
    scale_all = math.lcm(*dens)
    scale = [scale_all // den for den in dens]

    norms = [sum(map(operator.mul, row, row)) for row in rows]
    shortest_row = min(norms)
    best = shortest_row * scale_all
    best_x = [0] * r
    best_x[norms.index(shortest_row)] = 1

    coeff = [0] * r
    nodes = 0

    def descend(level: int, partial: int, centers: list, top: bool) -> None:
        # centers[i] = C_i = sum_{t>i} lam[t][i] * x_t for i <= level, and
        # top says that every x_t with t > level is 0 (so C_level = 0)
        nonlocal best, best_x, nodes
        dl, cl, sl = d[level + 1], centers[level], scale[level]
        t = math.isqrt((best - partial - 1) // sl)
        lo = -((cl + t) // dl)
        hi = 0 if top else (t - cl) // dl
        lam_l = lam[level]
        for cand in range(lo, hi + 1):
            u = dl * cand + cl
            total = partial + u * u * sl
            if total >= best:  # best may have fallen since t was taken
                continue
            nodes += 1
            coeff[level] = cand
            if level == 0:
                if cand or not top:
                    best = total
                    best_x = list(coeff)
            elif cand:
                descend(level - 1, total, [c + a * cand for c, a in zip(centers, lam_l)], False)
            else:
                descend(level - 1, total, centers, top)
        coeff[level] = 0

    descend(r - 1, 0, [0] * r, True)
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + nodes
    witness = [0] * len(rows[0])
    for i in range(r):
        if best_x[i]:
            witness = [w + best_x[i] * x for w, x in zip(witness, rows[i])]
    return best // scale_all, witness


def verify_min_norm(lattice, bound: int) -> Certificate:
    """Certificate that every nonzero vector has squared norm >= bound."""
    stats = {"nodes": 0}
    norm, witness = shortest_vector(lattice, stats)
    return Certificate(bound, norm, None if norm >= bound else witness, stats["nodes"])
