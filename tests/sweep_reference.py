"""Reference dimension sweep for the differential tests of `latpack.lift`.

This is the `sweep_dimension` that `latpack.lift` used before it walked the
binomial row once and ranked candidates by factored densities: it calls
`gv_max_k` once per m and compares the densities as expanded `Fraction`
values.  It is copied unchanged but for reading each density's exact value
from its {base: exponent} map and returning its own record, whose density
and guarantee it computes itself, so it shares nothing with `LiftResult`'s
derived properties.  It is a test oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from latpack import codes
from latpack.codes import CodeSpec, gv_max_k
from latpack.craig import CraigParams, LogDensity, center_density_lb
from latpack.errors import ParameterError
from latpack.exactnum import expand_power_product, next_prime
from latpack.lift import _candidate_ms


@dataclass
class SweepChoice:
    params: CraigParams
    code: CodeSpec | None
    density: LogDensity
    min_norm_guarantee: int


def sweep_dimension(n: int) -> SweepChoice:
    """Best density over a bounded window of m, with k from GV and the code table.

    Deterministic tie-break: higher density, then smaller m, then smaller l.
    """
    if n < 8:
        raise ParameterError("sweep requires n >= 8")
    table = codes.builtin_code_table()
    l = next_prime(n + 1)
    best: SweepChoice | None = None
    best_value = None
    for m in _candidate_ms(n):
        need = 8 * m
        k = 0
        if need <= n:
            k = max(gv_max_k(n, need), table.best_k_at_distance(2, n, need))
        params = CraigParams(n, m, l)
        if k > 0:
            density = center_density_lb(params, k)
            code = CodeSpec(2, n, k, need, codes.GV_EXISTS)
            guarantee = 8 * m
        else:
            density = center_density_lb(params, 0)
            code = None
            guarantee = 2 * m
        cand = SweepChoice(params, code, density, guarantee)
        value = Fraction(*expand_power_product(density.factors))
        if best is None or best_value < value:
            best, best_value = cand, value
    return best
