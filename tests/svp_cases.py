"""Inputs of the differential `svp` tests, and the reference outputs recorded for them.

The rational reference LLL and enumeration of `svp_reference` take minutes
on these inputs, so `make_svp_reference_data.py` runs them once and writes
`svp_reference_data.json`: for each input (rows and LLL quality), the
reference's reduced basis, mu and Gram-Schmidt norms, or "rank-error", and
at the default quality the minimum and witness of its enumeration.  The
tests compare `latpack.svp` with these records.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

from latpack.craig import CraigParams, craig_basis
from latpack.errors import RankError
from latpack.exactnum import IntMatrix, next_prime

from craig_reference import binomial_craig_rows
from svp_reference import ReducedBasis

DEFAULT_QUALITY = Fraction(99, 100)
DATA_PATH = Path(__file__).with_name("svp_reference_data.json")


def random_unimodular(n, rng, steps=12):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def scramble(basis: IntMatrix, rng) -> IntMatrix:
    return random_unimodular(basis.rows, rng).matmul(basis)


def criterion_2_params(max_n):
    """(n, m, l) of criterion 2 up to max_n: the first two primes l >= n+1."""
    for n in range(3, max_n + 1):
        first = next_prime(n + 1)
        for l in (first, next_prime(first + 1)):
            for m in range(1, (n - 1) // 2 + 1):
                yield n, m, l


def criterion_2_bases():
    """The binomial bases up to n = 14, whose entries reach C(n, n/2)."""
    return [binomial_craig_rows(n, m, l) for n, m, l in criterion_2_params(14)]


def short_bases():
    return [craig_basis(CraigParams(n, m, l)).basis.m for n, m, l in criterion_2_params(10)]


def scrambled_bases():
    rng = random.Random(17)
    out = []
    for n, m, l in [(5, 2, 7), (6, 2, 7), (7, 3, 11), (8, 3, 11)]:
        basis = IntMatrix(binomial_craig_rows(n, m, l))
        out += [scramble(basis, rng).m for _ in range(20)]
    return out


def random_matrices():
    """(rows, quality) pairs: 300 small random matrices at two qualities."""
    rng = random.Random(7)
    out = []
    for _ in range(300):
        r = rng.randint(2, 6)
        cols = rng.randint(r - 1, r + 1)
        rows = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(r)]
        out += [(rows, quality) for quality in (DEFAULT_QUALITY, Fraction(3, 4))]
    return out


def all_inputs():
    """Every (rows, quality) the differential tests pass to the reference."""
    bases = criterion_2_bases() + short_bases() + scrambled_bases()
    return [(rows, DEFAULT_QUALITY) for rows in bases] + random_matrices()


def case_key(rows, quality) -> str:
    return json.dumps([[list(r) for r in rows], str(Fraction(quality))])


@functools.cache
def _records() -> dict:
    with open(DATA_PATH) as fh:
        return {case_key(rec["rows"], rec["quality"]): rec for rec in json.load(fh)}


def recorded_reference(rows, quality):
    """The reference's outcome on (rows, quality): RankError, or a pair of
    its ReducedBasis and, at the default quality, its (minimum, witness)."""
    rec = _records().get(case_key(rows, quality))
    if rec is None:
        raise LookupError("input not in svp_reference_data.json; "
                          "run tests/make_svp_reference_data.py")
    if rec["lll"] == "rank-error":
        return RankError
    lll = rec["lll"]
    reduced = ReducedBasis(
        IntMatrix(lll["basis"]),
        [Fraction(x) for x in lll["gso_norms"]],
        [[Fraction(x) for x in row] for row in lll["mu"]],
    )
    shortest = rec.get("shortest")
    return reduced, (tuple(shortest) if shortest is not None else None)
