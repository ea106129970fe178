"""Reference integer enumeration for the differential tests of `latpack.svp`.

This is the `shortest_vector` that `latpack.svp` used before its search
kept one vector of each +-v pair and read each level's candidates from a
closed-form interval, copied unchanged: at every node it walks outward from
the rounded centre in both directions, visits the candidates in ascending
order, and copies the centre list for each child.  It runs on latpack's own
`lll_reduce`, so a difference against `latpack.svp.shortest_vector` lies in
the enumeration alone.  It is a test oracle only.
"""

from __future__ import annotations

import math

from latpack.errors import CapacityError
from latpack.exactnum import div_round_half_even
from latpack.svp import RANK_CAP, _basis, lll_reduce


def shortest_vector(lattice, stats: dict | None = None):
    """Exact minimum squared norm over nonzero vectors, with a witness vector.

    Deterministic Fincke-Pohst depth-first search on an LLL-reduced basis.
    Level l adds |b*_l|^2 (x_l + sum_{t>l} mu_tl x_t)^2, which equals
    (d_{l+1} x_l + C_l)^2 / (d_l d_{l+1}) with the integer centre numerator
    C_l = sum_{t>l} lam_tl x_t; every norm is scaled by
    L = lcm_l(d_l d_{l+1}), so each pruning test compares ints.  When
    ``stats`` is given, ``stats["nodes"]`` is increased by the number of
    enumeration nodes visited.
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

    norms = [sum(x * x for x in row) for row in rows]
    shortest_row = min(norms)
    best = shortest_row * scale_all
    best_x = [0] * r
    best_x[norms.index(shortest_row)] = 1

    coeff = [0] * r
    nodes = 0

    def descend(level: int, partial: int, centers: list) -> None:
        nonlocal best, best_x, nodes
        # centers[i] = C_i = sum_{t>i} lam[t][i] * x_t for already-fixed x_t
        if level < 0:
            if any(coeff):
                best = partial
                best_x = list(coeff)
            return
        dl, cl, sl = d[level + 1], centers[level], scale[level]
        base = div_round_half_even(-cl, dl)
        # Walk outward from the rounded center in both directions; the term
        # is monotone in |x - center| so each direction stops at the first
        # bound violation.
        order = [base]
        step = 1
        while True:
            grew = False
            for cand in (base + step, base - step):
                if partial + (dl * cand + cl) ** 2 * sl < best:
                    order.append(cand)
                    grew = True
            if not grew:
                break
            step += 1
        for cand in sorted(order):
            total = partial + (dl * cand + cl) ** 2 * sl
            if total >= best:
                continue
            nodes += 1
            coeff[level] = cand
            if level == 0:
                descend(-1, total, centers)
            else:
                new_centers = list(centers)
                lam_l = lam[level]
                for i in range(level):
                    new_centers[i] += lam_l[i] * cand
                descend(level - 1, total, new_centers)
            coeff[level] = 0

    descend(r - 1, 0, [0] * r)
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + nodes
    witness = [0] * len(rows[0])
    for i in range(r):
        if best_x[i]:
            witness = [w + best_x[i] * x for w, x in zip(witness, rows[i])]
    return best // scale_all, witness
