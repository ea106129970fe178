"""Reference codeword walks for the differential tests of `latpack.codes`.

These are the non-binary `min_distance` walk and the `concatenate` row
builder that `latpack.codes` used before every field shared one Gray-code
walk over the alpha^t-scaled generator rows.  The walk recurses over the
q^k coefficient vectors and adds rows symbol by symbol; the row builder
expands each scaled outer symbol into the XOR of the inner rows its bits
select.  Field addition is XOR, the encoding of `latpack.codes`.  They are
test oracles only.
"""

from __future__ import annotations

from latpack.codes import gf_mul


def min_distance(q: int, generator) -> int:
    """Minimum nonzero weight over the GF(q) span of ``generator`` by recursion."""
    k, n = len(generator), len(generator[0])
    best = n + 1

    def walk(i, current):
        nonlocal best
        if i == k:
            w = sum(1 for x in current if x)
            if 0 < w < best:
                best = w
            return
        row = generator[i]
        for e in range(q):
            if e == 0:
                walk(i + 1, current)
            else:
                walk(i + 1, [x ^ gf_mul(q, e, y) for x, y in zip(current, row)])

    walk(0, [0] * n)
    return best


def concatenated_rows(q: int, outer_generator, inner_generator) -> list[list[int]]:
    """Binary rows of the outer GF(q) code composed with the binary inner code."""
    b = q.bit_length() - 1
    inner_n = len(inner_generator[0])
    rows = []
    for g in outer_generator:
        for t in range(b):
            scaled = [gf_mul(q, s, 1 << t) for s in g]
            row = []
            for s in scaled:
                bits = [(s >> u) & 1 for u in range(b)]
                word = [0] * inner_n
                for j, bit in enumerate(bits):
                    if bit:
                        word = [x ^ y for x, y in zip(word, inner_generator[j])]
                row.extend(word)
            rows.append(row)
    return rows
