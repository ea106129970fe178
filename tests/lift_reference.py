"""Reference preimage lattice for the differential tests of `latpack.lift`.

This is the `_preimage_lattice` that `latpack.lift` used before its
closed-form lifts and the parity walk that followed them: it solves each
codeword over GF(2) against the Craig basis mod 2 and sums the basis rows
the solution picks.  It is copied unchanged but for solving each codeword
with a fresh `codes.gf_solve`, since the factor-once solver it used is
gone.  It is a test oracle only.
"""

from __future__ import annotations

from latpack.codes import gf_solve
from latpack.craig import CraigParams, IntegerLattice, craig_basis
from latpack.errors import ParameterError
from latpack.exactnum import IntMatrix, hnf_basis


def lift_generator_rows(basis_rows, code_rows):
    """For each codeword c find a lattice vector congruent to c mod 2."""
    mod2 = [[x % 2 for x in row] for row in basis_rows]
    lifted = []
    for c in code_rows:
        x = gf_solve(2, mod2, [b % 2 for b in c])
        if x is None:
            raise ParameterError("codeword is outside the mod-2 image of the lattice")
        vec = [0] * len(c)
        for i, xi in enumerate(x):
            if xi:
                vec = [a + b for a, b in zip(vec, basis_rows[i])]
        lifted.append(vec)
    return lifted


def preimage_lattice(p: CraigParams, code_rows) -> IntegerLattice:
    """Basis of {v in A : v mod 2 in span(code_rows)} via HNF of the stacked system."""
    base = craig_basis(p)
    lifted = lift_generator_rows(base.basis.m, code_rows)
    doubled = [[2 * x for x in row] for row in base.basis.m]
    stacked = IntMatrix(lifted + doubled)
    h = hnf_basis(stacked)
    if h.rows != p.n:
        raise ParameterError("preimage lattice has unexpected rank")
    return IntegerLattice(h)
