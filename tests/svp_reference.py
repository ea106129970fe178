"""Reference LLL and enumeration for the differential tests of `latpack.svp`.

These are the rational Gram-Schmidt `lll_reduce` and the `Fraction`
Fincke-Pohst `shortest_vector` that `latpack.svp` used before it moved to
integral LLL and integer-scaled enumeration, copied unchanged.  They are a
test oracle only: the tests assert that `latpack.svp` returns the same
reduced basis, Gram-Schmidt data, minimum and witness, and raises
`RankError` on the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from latpack.craig import IntegerLattice
from latpack.errors import CapacityError, ParameterError, RankError
from latpack.exactnum import IntMatrix, div_round_half_even

RANK_CAP = 40


@dataclass
class ReducedBasis:
    basis: IntMatrix
    gso_norms: list  # Fractions, squared norms of the orthogonalized rows
    mu: list  # Fractions, mu[i][j] = <b_i, b*_j> / |b*_j|^2 for j < i


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _round_half_even(x: Fraction) -> int:
    return div_round_half_even(x.numerator, x.denominator)


def _basis_rows(lattice) -> list[list[int]]:
    """Copy of the basis rows of an IntegerLattice, an IntMatrix or a list of rows."""
    if isinstance(lattice, IntegerLattice):
        lattice = lattice.basis
    if isinstance(lattice, IntMatrix):
        lattice = lattice.m
    return [list(r) for r in lattice]


def lll_reduce(lattice, quality: Fraction = Fraction(99, 100)) -> ReducedBasis:
    """LLL-reduce a basis with exact rational Gram-Schmidt data."""
    basis = _basis_rows(lattice)
    quality = Fraction(quality)
    if not (Fraction(1, 4) < quality < 1):
        raise ParameterError("quality must lie in (1/4, 1)")
    r = len(basis)

    def compute_gso():
        mu = [[Fraction(0)] * r for _ in range(r)]
        star = []
        star_sq = []
        for i in range(r):
            v = [Fraction(x) for x in basis[i]]
            for j in range(i):
                if star_sq[j] == 0:
                    raise RankError("dependent rows in basis")
                mu_ij = _dot([Fraction(x) for x in basis[i]], star[j]) / star_sq[j]
                mu[i][j] = mu_ij
                v = [a - mu_ij * b for a, b in zip(v, star[j])]
            star.append(v)
            star_sq.append(_dot(v, v))
            if star_sq[i] == 0:
                raise RankError("dependent rows in basis")
        return mu, star, star_sq

    mu, star, star_sq = compute_gso()
    k = 1
    while k < r:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = _round_half_even(mu[k][j])
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                for t in range(j + 1):
                    mu[k][t] -= q * (mu[j][t] if t < j else 1)
        if star_sq[k] >= (quality - mu[k][k - 1] ** 2) * star_sq[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, star, star_sq = compute_gso()
            k = max(k - 1, 1)
    mu, star, star_sq = compute_gso()
    return ReducedBasis(IntMatrix(basis), star_sq, mu)


def shortest_vector(lattice, rank_cap: int = RANK_CAP):
    """Exact minimum squared norm over nonzero vectors, with a witness vector.

    Deterministic Fincke-Pohst depth-first search on an LLL-reduced basis,
    pruning with exact rational interval tests.
    """
    rows = _basis_rows(lattice)
    if len(rows) > rank_cap:
        raise CapacityError(f"rank {len(rows)} exceeds enumeration cap {rank_cap}")
    red = lll_reduce(rows)
    rows, mu, star_sq = red.basis.m, red.mu, red.gso_norms
    r = len(rows)
    gram = [[_dot(rows[i], rows[j]) for j in range(r)] for i in range(r)]

    norms = [gram[i][i] for i in range(r)]
    best = min(norms)
    best_x = [0] * r
    best_x[norms.index(best)] = 1

    coeff = [0] * r

    def descend(level: int, partial: Fraction, centers: list) -> None:
        nonlocal best, best_x
        # centers[i] = sum_{t>i} mu[t][i] * x_t for already-fixed x_t
        if level < 0:
            if any(coeff):
                norm = 0
                for i in range(r):
                    if coeff[i]:
                        norm += coeff[i] * coeff[i] * gram[i][i]
                        for j in range(i):
                            if coeff[j]:
                                norm += 2 * coeff[i] * coeff[j] * gram[i][j]
                if 0 < norm < best:
                    best = norm
                    best_x = list(coeff)
            return
        c = -centers[level]
        base = _round_half_even(Fraction(c))
        # Walk outward from the rounded center in both directions; the term
        # B_level * (x - c)^2 is monotone in |x - c| so each direction stops
        # at the first bound violation.
        order = [base]
        step = 1
        while True:
            grew = False
            for cand in (base + step, base - step):
                term = star_sq[level] * (Fraction(cand) - c) ** 2
                if partial + term < best:
                    order.append(cand)
                    grew = True
            if not grew:
                break
            step += 1
        for cand in sorted(order):
            term = star_sq[level] * (Fraction(cand) - c) ** 2
            if partial + term >= best:
                continue
            coeff[level] = cand
            if level == 0:
                descend(-1, partial + term, centers)
            else:
                new_centers = list(centers)
                for i in range(level):
                    new_centers[i] += mu[level][i] * cand
                descend(level - 1, partial + term, new_centers)
            coeff[level] = 0

    descend(r - 1, Fraction(0), [Fraction(0)] * r)
    witness = [0] * len(rows[0])
    for i in range(r):
        if best_x[i]:
            witness = [w + best_x[i] * x for w, x in zip(witness, rows[i])]
    return best, witness
