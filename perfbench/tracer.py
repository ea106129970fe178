"""Span tracing around latpack's public functions, from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
loaded latpack module that binds it, so calls through re-bound names
(`lift.gv_max_k`, `records.gv_max_k`, `craig.gram_det`, `lift.hnf_basis`,
the `lll_reduce` that `svp.shortest_vector` calls, ...) are traced too.
Spans (name, start, end, parent) stay in memory until `summary` is asked
for; a span's self time is its duration minus its child spans, which nest
strictly because the benchmark runs one job at a time in one thread.
"""

from __future__ import annotations

import sys
import time

# Traced functions per module, in report order.
TRACED = {
    "exactnum": ["binom_sum", "hnf", "hnf_basis", "solve_left", "gram_det", "log2_of", "next_prime"],
    "craig": ["craig_basis", "center_density_lb", "membership", "verify_section",
              "write_basis", "read_basis"],
    "codes": ["gv_max_k", "gv_exists", "min_distance", "gf_rank", "gf_solve", "concatenate",
              "extend_parity"],
    "lift": ["lift_sublattice", "lift_with_length_n_code", "sweep_dimension", "conditional_eval",
             "mw_beater_search", "pipeline_24n", "improve_craig_8x"],
    "svp": ["lll_reduce", "shortest_vector", "verify_min_norm"],
    "records": ["emit_table", "render_report", "compare"],
    "cli": ["run"],
}


def _rank(lattice) -> int:
    if hasattr(lattice, "rank"):
        return lattice.rank
    if hasattr(lattice, "rows"):
        return lattice.rows
    return len(lattice)


def _cells(matrix) -> int:
    return matrix.rows * matrix.cols


# Work counts computed from the arguments at a traced boundary.  They depend
# only on the job inputs, so two commits that run the same jobs report the
# same counts.
COUNTERS = {
    "svp.shortest_vector": ("svp.rank_sum", lambda lattice, *a, **k: _rank(lattice)),
    "codes.gv_max_k": ("codes.gv_terms", lambda n, d: d),
    "codes.gv_exists": ("codes.gv_terms", lambda n, k, d: d),
    "codes.min_distance": ("codes.min_distance.codewords", lambda c: c.q ** c.k),
    "exactnum.hnf": ("exactnum.hnf.cells", _cells),
    "exactnum.hnf_basis": ("exactnum.hnf.cells", _cells),
}

COUNT_NAMES = ["svp.rank_sum", "codes.gv_terms", "codes.min_distance.codewords",
               "exactnum.hnf.cells"]

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Wraps the traced functions while installed and keeps their spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "latpack" or key.startswith("latpack."))]
        for mod, fns in TRACED.items():
            home = sys.modules[f"latpack.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def summary(self) -> dict:
        """Calls and self seconds per span name, and self seconds per module."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        modules = {mod: sum(self_s[f"{mod}.{fn}"] for fn in fns) for mod, fns in TRACED.items()}
        return {"calls": calls, "self_s": self_s, "module_self_s": modules,
                "counts": dict(self.counts)}
