"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/capture_golden.py

Writes golden/certify.json (the exact minimum norm of every Craig lattice
A(n, m, l) with 6 <= n <= 11, 2 <= m <= (n+1)/2 and l one of the first two
primes >= n+1) and golden/tables.json (the output of all
ten `table` reports in text and csv, and pools of seeded CLI commands with
their outputs).  The files hold the outputs of the commit they were captured
at; the benchmark requires byte-identical output from later commits.
"""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from latpack import cli, craig, exactnum, records, svp  # noqa: E402

POOL_SIZE = 6

# Each pool's commands draw every parameter from a narrow band: n within
# 1/64 (at least 8) above a centre, and the other parameters in fixed shares
# of n.  A
# command's cost then hardly depends on which pool entry a seed draws, so the
# quantiles of a pass do not jump between seeds as jobs change rank.
CENTRES = [96, 192, 384, 768, 1536, 3072, 6144, 12288]
SWEEP_CENTRES = [40, 160, 640, 1536, 3072, 5120, 7168, 10240, 14336]


def _band(rng, lo: int) -> int:
    """A draw from [lo, lo + w), w the larger of 8 and lo/64."""
    return lo + rng.randrange(max(8, lo // 64))


def run_cli(argv):
    out = io.StringIO()
    rc = cli.run(argv, out)
    return {"argv": argv, "rc": rc, "out": out.getvalue()}


def certify_minima() -> dict:
    minima = {}
    for n in range(6, 12):
        l1 = exactnum.next_prime(n + 1)
        for l in (l1, exactnum.next_prime(l1 + 1)):
            for m in range(2, (n + 1) // 2 + 1):
                norm, _ = svp.shortest_vector(craig.craig_basis(craig.CraigParams(n, m, l)))
                minima[f"{n},{m},{l}"] = norm
    return {"minima": minima}


def _pool(rng, make):
    """POOL_SIZE distinct commands from make(rng), each of which must succeed."""
    seen = {}
    while len(seen) < POOL_SIZE:
        argv = [str(x) for x in make(rng)]
        key = " ".join(argv)
        if key in seen:
            continue
        entry = run_cli(argv)
        if entry["rc"] != 0:
            raise RuntimeError(f"pool command failed: {key}")
        seen[key] = entry
    return list(seen.values())


def _density(c):
    def make(rng):
        n = _band(rng, c)
        return ["density", "--n", n, "--k", _band(rng, n // 16)]
    return make


def _gv(c):
    def make(rng):
        n = _band(rng, c)
        return ["gv", "--n", n, "--d", _band(rng, n * 9 // 40)]
    return make


def _sweep(c):
    return lambda rng: ["sweep", "--n", _band(rng, c)]


def _conditional(c):
    def make(rng):
        n = _band(rng, c)
        m = max(1, n // 128)
        return ["conditional", "--n", n, "--m", m, "--l", exactnum.next_prime(n + 1),
                "--req-n", n + rng.randrange(2), "--req-k", _band(rng, n // 4),
                "--req-d", _band(rng, 8 * m + n // 16)]
    return make


def _strata(rng, make, centres):
    return {str(c): _pool(rng, make(c)) for c in centres}


def tables_golden() -> dict:
    rng = random.Random(2011)
    renders = [run_cli(["table", "--id", str(i), "--format", fmt])
               for i in range(1, 11) for fmt in ("text", "csv")]
    mw_primes = [p for p in range(1950, 2040) if exactnum.is_prime(p) and p % 6 == 5]
    record_dims = sorted(d for d, es in records.builtin_records().by_dim.items()
                         if any(e.kind == "record" for e in es))

    def compare(rng):
        dim = rng.choice(record_dims)
        best = records.builtin_records().best_record(dim).value()
        return ["compare", "--dim", dim, "--value", f"{float(best) + rng.uniform(-5, 5):.4f}"]

    pools = {
        "sweep": _strata(rng, _sweep, SWEEP_CENTRES),
        "gv": _strata(rng, _gv, CENTRES),
        "density": _strata(rng, _density, CENTRES),
        "conditional": _strata(rng, _conditional, CENTRES),
        "mwbeat": {"all": _pool(rng, lambda r: ["mwbeat", "--p", r.choice(mw_primes)])},
        "pipeline24": _strata(rng, lambda c: lambda r: ["pipeline24", "--dim", 24 * _band(r, c)],
                              [200, 320]),
        "compare": {"all": _pool(rng, compare)},
    }
    return {"tables": renders, "pools": pools}


def main() -> int:
    out_dir = HERE / "golden"
    out_dir.mkdir(exist_ok=True)
    for name, make in (("tables", tables_golden), ("certify", certify_minima)):
        with open(out_dir / f"{name}.json", "w") as fh:
            json.dump(make(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out_dir / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
