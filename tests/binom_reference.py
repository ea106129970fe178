"""Reference binomial prefix sums for the differential tests of `latpack.exactnum`.

It walks row n one coefficient at a time, c = c * (n - i) // (i + 1), up to
max(rs).  `latpack.exactnum.binom_sums` now walks the same way (for a while
it summed the gaps between requested r by binary splitting).  This copy
stays as the oracle of `binom_sum_bit_lengths`; `test_binom_sums_match_comb`
checks `binom_sums` against `math.comb` independently.  It is a test oracle
only.
"""

from __future__ import annotations

from latpack.errors import ParameterError


def binom_sums(n: int, rs) -> list[int]:
    """Sums of binomial coefficients C(n,0..r) for each r in ``rs``, exact.

    One walk of row n up to max(rs) serves every r.
    """
    rs = list(rs)
    if n < 0 or any(r < 0 for r in rs):
        raise ParameterError("binom_sum arguments must be nonnegative")
    for r in rs:
        if r > n:
            raise ParameterError(f"binom_sum requires r <= n, got r={r} n={n}")
    sums = {}
    total = 0
    c = 1
    done = 0  # total holds C(n,0..done-1) and c is C(n,done)
    for r in sorted(set(rs)):
        for i in range(done, r + 1):
            total += c
            c = c * (n - i) // (i + 1)
        done = r + 1
        sums[r] = total
    return [sums[r] for r in rs]

