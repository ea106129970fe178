"""Job lists for the three workloads, built from a seed, with their output checks.

A job is a zero-argument call into latpack plus a check of its result.  The
call is all that is timed; the check runs after it and returns an error
string or None.  Inputs that take real work to make (scrambled bases, lifted
codes, vectors) are made here, at set-up, not inside the calls.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass
class Job:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def load_golden(workload: str):
    path = GOLDEN / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def interleave(groups: list[list[Job]]) -> list[Job]:
    """Merge job groups so that every prefix holds each group in proportion."""
    keyed = []
    for g, jobs in enumerate(groups):
        for i, job in enumerate(jobs):
            keyed.append(((i + 0.5) / len(jobs), g, job))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [job for _, _, job in keyed]


def primes_from(lp, x: int, count: int) -> list[int]:
    out = [lp.exactnum.next_prime(x)]
    while len(out) < count:
        out.append(lp.exactnum.next_prime(out[-1] + 1))
    return out


# ---------------------------------------------------------------- checks


def in_row_lattice(rows, v) -> bool:
    """Whether v is an integer combination of the independent rows (exact, by
    Gaussian elimination over the rationals; independent of latpack's HNF)."""
    r, width = len(rows), len(v)
    aug = [[Fraction(rows[i][j]) for i in range(r)] + [Fraction(v[j])] for j in range(width)]
    row = 0
    for c in range(r):
        piv = next((i for i in range(row, width) if aug[i][c] != 0), None)
        if piv is None:
            return False  # dependent rows: not a basis
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][c]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(width):
            if i != row and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    if any(aug[i][r] != 0 for i in range(row, width)):
        return False
    return all(aug[i][r].denominator == 1 for i in range(row))


def min_weight(rows) -> int:
    """Minimum nonzero weight of the binary code spanned by rows (Gray-code
    walk), or 0 when the rows are dependent."""
    masks = [sum(1 << j for j, x in enumerate(r) if x) for r in rows]
    best = len(rows[0]) + 1
    word = 0
    for i in range(1, 1 << len(masks)):
        word ^= masks[(i & -i).bit_length() - 1]
        w = bin(word).count("1")
        if w == 0:
            return 0  # the rows are dependent
        best = min(best, w)
    return best


def basis_rows(lattice):
    if hasattr(lattice, "basis"):
        lattice = lattice.basis
    return lattice.m if hasattr(lattice, "m") else lattice


def check_certificate(cert, lattice, bound: int, guarantee: int, reference: int):
    rows = basis_rows(lattice)
    if cert.norm != reference:
        return f"minimum {cert.norm} != reference {reference}"
    if cert.norm < guarantee:
        return f"minimum {cert.norm} below guarantee {guarantee}"
    if cert.holds != (cert.norm >= bound):
        return f"holds={cert.holds} contradicts norm {cert.norm} vs bound {bound}"
    if cert.holds:
        return None if cert.witness is None else "witness given for a bound that holds"
    w = cert.witness
    if w is None or not any(w):
        return "violated bound without a nonzero witness"
    if sum(x * x for x in w) != cert.norm:
        return "witness norm differs from the reported norm"
    if not in_row_lattice(rows, w):
        return "witness is not in the lattice"
    return None


# ---------------------------------------------------------------- certify


def _scramble(rows, rng):
    """U * rows for a unimodular U = L * R, with L unit lower and R unit upper
    triangular with entries in {-1, 0, 1}."""
    n = len(rows)
    lower = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(n)]
             for i in range(n)]

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a]

    return mul(mul(lower, upper), rows)


def _signed_permutation(rows, rng):
    """The rows with their coordinates permuted and sign-flipped.  This maps
    the lattice by an isometry: every inner product, and so all the LLL and
    enumeration work, stays the same, while every input vector changes."""
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in perm]
    return [[s * r[p] for p, s in zip(perm, signs)] for r in rows]


def _certify_job(lp, kind, label, lattice, guarantee, reference, probe):
    # A probe bound sits just above the minimum, so the certificate fails and
    # carries a witness that the check verifies; otherwise the bound is the
    # guarantee (2m, or 8m for a lift) and the certificate holds.
    bound = reference + 1 if probe else guarantee

    def call():
        return lp.svp.verify_min_norm(lattice, bound)

    def check(cert):
        return check_certificate(cert, lattice, bound, guarantee, reference)

    return Job(kind, f"{label} bound={bound}", call, check)


def _lift_job(lp, label, params, code, length_n, probe):
    bound = 9 if probe else 8

    def call():
        fn = lp.lift.lift_with_length_n_code if length_n else lp.lift.lift_sublattice
        result = fn(params, code)
        return result, lp.svp.verify_min_norm(result.lattice, bound)

    def check(out):
        result, cert = out
        # Every lift into A(n,1,l) contains 2(e_i - e_j), so its minimum is 8.
        return check_certificate(cert, result.lattice, bound, 8 * params.m, 8)

    return Job("lifted", f"{label} bound={bound}", call, check)


def _permuted(rows, rng):
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    return [[r[p] for p in perm] for r in rows]


# Craig cells (n, m, l, scrambled), with l one of the first two primes >= n+1.
# Most sit at rank 8, where a job costs 0.2-0.3 s like the A_24-A_26 jobs, so
# the median of a pass falls among a dozen jobs of near-equal cost.  Ranks 10
# and 11 cost over a second a cell, so one cell each keeps a pass near 8 s
# and three or four passes, not two, fit in a 30 s run.
CRAIG_CELLS = (
    (6, 2, 7, False), (6, 3, 11, False), (7, 2, 11, True), (7, 3, 13, False), (7, 4, 11, True),
    (8, 2, 11, False), (8, 2, 13, True), (8, 3, 11, False), (8, 3, 13, False), (8, 4, 11, True),
    (8, 4, 13, False), (9, 3, 13, False), (9, 4, 11, False), (9, 5, 11, False),
    (10, 4, 11, False), (11, 3, 17, False),
)


def certify_jobs(lp, seed: int, golden) -> list[Job]:
    rng = random.Random(f"certify/{seed}")
    CraigParams, IntMatrix = lp.craig.CraigParams, lp.exactnum.IntMatrix
    craig = []
    for i, (n, m, l, scrambled) in enumerate(CRAIG_CELLS):
        reference = golden["minima"][f"{n},{m},{l}"]
        rows = lp.craig.craig_basis(CraigParams(n, m, l)).basis.m
        if scrambled:
            # Fixed per cell: LLL's cost varies widely with the scramble.
            rows = _scramble(rows, random.Random(f"scramble/{n},{m},{l}"))
        lattice = IntMatrix(_signed_permutation(rows, rng))
        kind = "craig-scrambled" if scrambled else "craig"
        craig.append(_certify_job(lp, kind, f"A({n},{m},{l})", lattice, 2 * m,
                                  reference, probe=i % 2 == 0))

    LinearCode, CodeSpec, CONSTRUCTED = lp.codes.LinearCode, lp.codes.CodeSpec, lp.codes.CONSTRUCTED
    lifted = []
    for i, n in enumerate((8, 9, 10, 12)):
        params = CraigParams(n, 1, primes_from(lp, n + 1, 2)[i % 2])
        lifted.append(_lift_job(lp, f"lift A({n},1,{params.l}) rep[{n}]", params,
                                lp.codes.repetition(n, 2), True, probe=i % 2 == 1))
    two_blocks = [[1] * 8 + [0] * 4, [0] * 4 + [1] * 8]
    three = [
        [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1],
    ]
    for n, rows, probe in ((11, two_blocks, False), (13, three, True)):
        params = CraigParams(n, 1, lp.exactnum.next_prime(n + 1))
        code = LinearCode(CodeSpec(2, n + 1, len(rows), 8, CONSTRUCTED), _permuted(rows, rng))
        lifted.append(_lift_job(lp, f"lift A({n},1,{params.l}) k={len(rows)}", params, code,
                                False, probe))

    an = []
    for i, n in enumerate((20, 24, 26, 28, 30, 32)):
        rows = lp.craig.craig_basis(CraigParams(n, 1, lp.exactnum.next_prime(n + 1))).basis.m
        lattice = IntMatrix(_signed_permutation(rows, rng))
        an.append(_certify_job(lp, "a_n", f"A_{n}", lattice, 2, 2, probe=i % 2 == 0))
    return interleave([craig, lifted, an])


# ---------------------------------------------------------------- tables


def _cli_job(lp, kind, argv, expected):
    def call():
        out = io.StringIO()
        rc = lp.cli.run(list(argv), out)
        return rc, out.getvalue()

    def check(result):
        rc, text = result
        if rc != expected["rc"]:
            return f"exit code {rc} != {expected['rc']}"
        if text != expected["out"]:
            return "output differs from the golden capture"
        return None

    return Job(kind, " ".join(argv), call, check)


# Seeded commands per pass, drawn from each pool of captured
# commands (see capture_golden.py).
TABLE_DRAWS = {"sweep": 1, "gv": 1, "density": 1, "conditional": 1, "pipeline24": 1,
               "mwbeat": 3, "compare": 4}


def tables_jobs(lp, seed: int, golden) -> list[Job]:
    rng = random.Random(f"tables/{seed}")
    renders = [_cli_job(lp, "table", entry["argv"], entry) for entry in golden["tables"]]
    draws = []
    for kind, count in TABLE_DRAWS.items():
        for pool in golden["pools"][kind].values():
            for entry in rng.sample(pool, count):
                draws.append(_cli_job(lp, kind, entry["argv"], entry))
    return interleave([renders, draws])


# ---------------------------------------------------------------- construct


def _volume_job(lp, params):
    expected = params.l ** (2 * (params.m - 1)) * (params.n + 1)

    def call():
        lattice = lp.craig.craig_basis(params)
        return lattice, lattice.vol_sq

    def check(out):
        lattice, vol = out
        if lattice.rank != params.n or lattice.ambient_dim != params.n + 1:
            return "basis has the wrong shape"
        return None if vol == expected else "vol_sq != l^(2(m-1))(n+1)"

    return Job("volume", f"vol A({params.n},{params.m},{params.l})", call, check)


def _roundtrip_job(lp, params, vectors, truth):
    def call():
        lattice = lp.craig.craig_basis(params)
        buf = io.StringIO()
        lp.craig.write_basis(lattice, buf)
        buf.seek(0)
        back = lp.craig.read_basis(buf)
        answers = [(lp.craig.membership(params, v), lp.exactnum.solve_left(back.basis, v))
                    for v in vectors]
        return lattice, back, answers

    def check(out):
        lattice, back, answers = out
        if back.basis.m != lattice.basis.m or back.ambient_dim != lattice.ambient_dim:
            return "basis changed in the write/read round trip"
        rows = lattice.basis.m
        for v, want, (member, x) in zip(vectors, truth, answers):
            if member != (x is not None):
                return "membership disagrees with solve_left"
            if want is not None and member != want:
                return f"membership {member} for a vector built to be {want}"
            if x is not None:
                got = [sum(c * r[j] for c, r in zip(x, rows)) for j in range(len(v))]
                if got != list(v):
                    return "solve_left solution does not reproduce the vector"
        return None

    return Job("roundtrip", f"roundtrip A({params.n},{params.m},{params.l})", call, check)


def _section_job(lp, params):
    def call():
        return lp.craig.verify_section(params)

    def check(ok):
        return None if ok is True else "verify_section returned False"

    return Job("section", f"section A({params.n},{params.m},{params.l})", call, check)


def _construct_lift_job(lp, params, rows, distance):
    n, m, l = params.n, params.m, params.l
    k = len(rows)
    codes = lp.codes
    probe = codes.LinearCode(codes.CodeSpec(2, n + 1, k, 1, codes.CONSTRUCTED), rows)
    expected = l ** (2 * (m - 1)) * (n + 1) * 4 ** (n - k)

    def call():
        d = codes.min_distance(probe)
        code = codes.LinearCode(codes.CodeSpec(2, n + 1, k, d, codes.CONSTRUCTED), rows)
        result = lp.lift.lift_sublattice(params, code)
        return d, result, result.lattice.vol_sq

    def check(out):
        d, result, vol = out
        if d != distance:
            return f"min_distance {d} != reference {distance}"
        if result.lattice.rank != n:
            return "lifted lattice has the wrong rank"
        return None if vol == expected else "lifted vol_sq != base vol_sq * 4^(n-k)"

    return Job("lift", f"lift A({n},{m},{l}) [{n + 1},{k},{distance}]", call, check)


def _even_code(rng, length: int, k: int, min_d: int):
    """Seeded even-weight binary k x length generator with distance >= min_d."""
    for _ in range(1000):
        rows = []
        for _ in range(k):
            r = [rng.randrange(2) for _ in range(length)]
            if sum(r) % 2:
                r[rng.randrange(length)] ^= 1
            rows.append(r)
        d = min_weight(rows)
        if d >= min_d:
            return rows, d
    raise RuntimeError(f"no [{length},{k},>={min_d}] even code drawn")


# (n, m) per job, with l the first prime >= n+1.  The lattices are fixed and
# the seed draws only vectors and codes, so every seed gives a pass of nearly
# the same cost.
# job_p50_s follows the one or two jobs at the median of a pass, so the
# round trips at n = 63-71 keep the costs there close together, and rank 95
# is reached through a round trip: its exact volume alone takes about 7 s,
# half a pass, which left too few jobs in a run.
VOLUME = ((31, 2), (39, 3), (47, 4), (55, 2), (63, 3), (71, 4))
ROUNDTRIP = ((33, 3), (41, 4), (49, 2), (57, 3), (63, 4), (65, 4), (67, 2), (67, 3), (69, 3),
             (71, 2), (73, 2), (77, 4), (81, 3), (95, 3))
SECTION = ((35, 3, 37), (41, 2, 43))  # (n, m, l); l - 1 stays under the rank cap 64
LIFT_SLOTS = ((31, 1, 8), (39, 1, 8), (47, 1, 8), (55, 1, 6))  # (n, m, k)


def construct_jobs(lp, seed: int, golden=None) -> list[Job]:
    rng = random.Random(f"construct/{seed}")
    CraigParams = lp.craig.CraigParams

    def params(n, m):
        return CraigParams(n, m, lp.exactnum.next_prime(n + 1))

    volume = [_volume_job(lp, params(n, m)) for n, m in VOLUME]

    roundtrip = []
    for n, m in ROUNDTRIP:
        p = params(n, m)
        rows = lp.craig.craig_basis(p).basis.m
        vectors, truth = [], []
        for _ in range(2):
            coeffs = [rng.randint(-2, 2) for _ in rows]
            vectors.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n + 1)])
            truth.append(True)
        off_sum = list(vectors[0])
        off_sum[rng.randrange(n + 1)] += 1  # coefficient sum 1: never a member
        vectors.append(off_sum)
        truth.append(False)
        i, j = rng.sample(range(n + 1), 2)
        near = list(vectors[1])
        near[i] += 1
        near[j] -= 1
        vectors.append(near)
        truth.append(None)  # only agreement between the two tests is checked
        roundtrip.append(_roundtrip_job(lp, p, vectors, truth))

    section = [_section_job(lp, CraigParams(n, m, l)) for n, m, l in SECTION]

    lifts = []
    for n, m, k in LIFT_SLOTS:
        rows, d = _even_code(rng, n + 1, k, 8 * m)
        lifts.append(_construct_lift_job(lp, params(n, m), rows, d))

    return interleave([volume, roundtrip, section, lifts])


WORKLOADS = {
    "certify": certify_jobs,
    "tables": tables_jobs,
    "construct": construct_jobs,
}
