"""Regenerate tests/svp_reference_data.json from the rational reference LLL.

    PYTHONPATH=src python3 tests/make_svp_reference_data.py

Runs `svp_reference.lll_reduce` on every input of `svp_cases.all_inputs()`
and, at the default quality, `svp_reference.shortest_vector` on the reduced
basis; it takes a few minutes.  Run it when those inputs change.
"""

from __future__ import annotations

import json

import svp_reference
from latpack.errors import RankError
from svp_cases import DATA_PATH, DEFAULT_QUALITY, all_inputs, case_key


def reference_record(rows, quality) -> dict:
    rec = {"rows": [list(r) for r in rows], "quality": str(quality)}
    try:
        red = svp_reference.lll_reduce(rows, quality)
    except RankError:
        rec["lll"] = "rank-error"
        return rec
    rec["lll"] = {
        "basis": red.basis.m,
        "mu": [[str(x) for x in row] for row in red.mu],
        "gso_norms": [str(x) for x in red.gso_norms],
    }
    if quality == DEFAULT_QUALITY:
        # The reference LLL returns a reduced basis unchanged, so enumerating
        # from red.basis is the reference's enumeration of `rows`.
        assert svp_reference.lll_reduce(red.basis).basis == red.basis
        norm, witness = svp_reference.shortest_vector(red.basis)
        rec["shortest"] = [norm, witness]
    return rec


def main() -> None:
    records = {}
    for rows, quality in all_inputs():
        key = case_key(rows, quality)
        if key not in records:
            records[key] = reference_record(rows, quality)
    lines = [json.dumps(rec, separators=(",", ":")) for rec in records.values()]
    DATA_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} records to {DATA_PATH}")


if __name__ == "__main__":
    main()
