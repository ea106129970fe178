"""Fast self-test of the benchmark: each workload on a tiny job list.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a few cheap jobs and checks that
every metric named in BENCHMARK.json is emitted, with its unit, that no job
failed, and that `svp` is never called outside the certify workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "certify": lambda job: job.label.startswith(("A(6,", "lift A(8,", "A_2")),
    "tables": lambda job: job.kind in ("compare", "gv") or job.label.startswith("table --id 2 "),
    "construct": lambda job: "A(31," in job.label or "A(33," in job.label,
}


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload, pick in TINY.items():
        for trace in (0, 1):
            result = run.benchmark(workload, 1, 0.0, trace, lambda msg: None, pick)
            where = f"{workload} trace={trace}"
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
            got = result["metrics"]
            for metric in expected[trace]:
                entry = got.get(metric["name"])
                if entry is None:
                    problems.append(f"{where}: metric {metric['name']} missing")
                elif entry["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit {entry['unit']}")
            extra = set(got) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace == 1:
                svp_calls = got["svp.verify_min_norm.calls"]["value"]
                if (svp_calls > 0) != (workload == "certify"):
                    problems.append(f"{where}: svp.verify_min_norm.calls = {svp_calls}")
            print(f"{where}: {result['attempted']} jobs, {len(got)} metrics")
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
