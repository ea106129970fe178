"""latpack benchmark: one process, one closed-loop client, no threads.

    python3 perfbench/run.py --workload certify|tables|construct \
        --seed N --seconds S --trace 0|1

Set-up is a fresh import of latpack, the builtin CSV loading and the seeded
input generation.  The client runs the seeded job list in whole passes, each
job starting only after the previous one returned, until at least
MIN_PASSES passes are done and --seconds have elapsed.  Set-up runs
SETUP_REPEATS times before the first pass and again after every pass, each
time on a freshly collected heap, and `setup_s` is the median of all of
them: timed through the run like the jobs, it follows the machine's speed
drift as they do.  Every job's output is checked; a failed check or an exception
counts as a failed job and never stops the run.

--trace 0 prints the end-to-end metrics.  --trace 1 runs rounds of two
passes, the first untraced and the second with spans around latpack's public
functions, until at least --seconds/2 have elapsed.  It prints per-function
calls and self time per pass, module self times, work counts computed from
the inputs, and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
SETUP_REPEATS = 3
MIN_PASSES = 2
MODULES = ("exactnum", "craig", "codes", "lift", "svp", "records", "cli")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def fresh_latpack() -> SimpleNamespace:
    """Import latpack from the checkout's source tree, discarding earlier imports."""
    for key in [k for k in sys.modules if k == "latpack" or k.startswith("latpack.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    importlib.import_module("latpack")
    return SimpleNamespace(**{m: importlib.import_module(f"latpack.{m}") for m in MODULES})


def set_up(workload: str, seed: int, golden):
    lp = fresh_latpack()
    lp.codes.builtin_code_table()
    lp.records.builtin_records()
    lp.records.table_rows(1)  # loads and caches published_tables.csv
    return lp, workloads.WORKLOADS[workload](lp, seed, golden)


class Client:
    """Closed-loop client: runs jobs one after another and checks each result."""

    def __init__(self, log):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.log = log

    def run_pass(self, jobs) -> float:
        busy = 0.0
        clock = time.perf_counter
        for job in jobs:
            self.attempted += 1
            t0 = clock()
            try:
                result = job.call()
            except Exception:  # a job failure is recorded, never fatal
                elapsed = clock() - t0
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            else:
                elapsed = clock() - t0
                try:
                    error = job.check(result)
                except Exception:
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            busy += elapsed
            self.latencies.append(elapsed)
            if error is not None:
                self.failed += 1
                self.log(f"FAILED {job.kind} {job.label}: {error}")
        return busy


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(p / 100 * n))  # nearest rank, 1-based


def tail_percentile(jobs_per_pass: int) -> float:
    """The highest listed percentile with at least ten jobs beyond it in
    MIN_PASSES passes.  It depends on the job list alone, so runs of two
    commits report the same percentile however many passes each makes."""
    n = jobs_per_pass * MIN_PASSES
    fit = [p for p in PERCENTILES if n - _rank(p, n) >= 10]
    return fit[-1] if fit else 100


def percentile(latencies, p: float) -> float:
    ordered = sorted(latencies)
    return ordered[_rank(p, len(ordered)) - 1]


def end_to_end(jobs, new_jobs, seconds, client):
    """Run whole passes, setting up afresh after each; the next pass runs the
    new set-up's job list, which equals the last."""
    busy = 0.0
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        busy += client.run_pass(jobs)
        passes += 1
        jobs = None  # so that new_jobs can free the old set-up before the next pass
        jobs = new_jobs()
    return passes, busy


def traced(jobs, seconds, client):
    tracer = tracing.Tracer()
    plain = with_trace = 0.0
    passes = 0
    start = time.perf_counter()
    # Each round is two passes, so half the budget in rounds matches the
    # untraced run's length.
    while passes == 0 or time.perf_counter() - start < seconds / 2:
        plain += client.run_pass(jobs)
        tracer.install()
        try:
            with_trace += client.run_pass(jobs)
        finally:
            tracer.uninstall()
        passes += 1
    return passes, plain, with_trace, tracer.summary()


def benchmark(workload: str, seed: int, seconds: float, trace: int, log, pick=None) -> dict:
    """Set up, run and measure one workload; `pick` narrows the job list."""
    golden = workloads.load_golden(workload)
    setup_times = []

    def new_jobs():
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            lp, jobs = set_up(workload, seed, golden)
            setup_times.append(time.perf_counter() - t0)
        gc.collect()  # frees the earlier set-ups before any job runs
        return jobs if pick is None else [job for job in jobs if pick(job)]

    jobs = new_jobs()
    log(f"workload {workload} seed {seed}: {len(jobs)} jobs per pass")

    client = Client(log)
    metrics = {}
    if trace == 0:
        passes, busy = end_to_end(jobs, new_jobs, seconds, client)
        n = len(client.latencies)
        pct = tail_percentile(len(jobs))
        tail_s = percentile(client.latencies, pct)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (n / busy, "1/s"),
            "job_p50_s": (statistics.median(client.latencies), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        log(f"{passes} passes, {n} jobs, {busy:.3f} s inside latpack; "
            f"set-up median over {len(setup_times)} set-ups")
        log(f"job_tail_s is p{pct:g} over {n} jobs ({n - _rank(pct, n)} beyond)")
    else:
        passes, plain, with_trace, summary = traced(jobs, seconds, client)
        for name in tracing.SPAN_NAMES:
            metrics[f"{name}.calls"] = (summary["calls"][name] // passes, "count")
            metrics[f"{name}.self_s"] = (summary["self_s"][name] / passes, "s")
        for mod, value in summary["module_self_s"].items():
            metrics[f"{mod}.self_s"] = (value / passes, "s")
        for name, value in summary["counts"].items():
            metrics[name] = (value // passes, "count")
        metrics["trace.untraced_jobs_per_s"] = (len(jobs) * passes / plain, "1/s")
        metrics["trace.traced_jobs_per_s"] = (len(jobs) * passes / with_trace, "1/s")
        metrics["trace.overhead_ratio"] = (with_trace / plain - 1, "ratio")
        log(f"{passes} untraced + {passes} traced passes; per-layer figures are per pass")
        log("work counts (computed from job inputs): "
            + ", ".join(f"{k}={summary['counts'][k] // passes}" for k in tracing.COUNT_NAMES))
    log(f"failed_ratio {client.failed / client.attempted:.6f} ratio "
        f"({client.failed} of {client.attempted})")
    for name, (value, unit) in metrics.items():
        log(f"{name} {value:.6g} {unit}")
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latpack" / "__init__.py").exists():
        print(f"error: latpack sources not found under {SRC}", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, args.trace,
                       lambda msg: print(msg, flush=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
