"""Reference density rendering for the differential tests of `latpack.exactnum`.

This is how `latpack` held and rendered a density before every formula
wrote a {base: exponent} map: delta^2 expanded to one rational, reduced to
lowest terms by a gcd, then `_log2_fixed`, then round half to even; at
LOG2_FRACTION_BITS = 192 fractional bits for `log2_fraction`.
`BigRationalSqrt`, `log2_of` and the decimal renderer `format_scaled` are
copied unchanged, so no renderer under test renders the oracle's values.
`expanded_log2_fraction` is `latpack.exactnum.log2_fraction` as it was
before it bracketed the products: the whole unreduced expansion, then
`_log2_fixed`.  It is a test oracle only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from latpack.errors import ParameterError
from latpack.exactnum import (
    MAX_LOG2_DIGITS,
    _log2_fixed,
    div_round_half_even,
    expand_power_product,
)

LOG2_FRACTION_BITS = 192  # fractional bits of BigRationalSqrt.log2_fraction


class BigRationalSqrt:
    """A positive value stored exactly as the square of a rational.

    Holds delta^2 = num/den in lowest terms; every center density in this
    package is the square root of a rational, so the exact object is the
    square and rendering happens in log2 space.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if num <= 0 or den <= 0:
            raise ParameterError("BigRationalSqrt requires positive numerator and denominator")
        g = math.gcd(num, den)
        self.num = num // g
        self.den = den // g

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BigRationalSqrt)
            and self.num == other.num
            and self.den == other.den
        )

    def __lt__(self, other: "BigRationalSqrt") -> bool:
        return self.num * other.den < other.num * self.den

    def __repr__(self) -> str:
        return f"BigRationalSqrt({self.num}/{self.den})"

    def log2_fraction(self) -> Fraction:
        """(1/2)*log2(num/den) as an exact dyadic approximation."""
        t = _log2_fixed(self.num, self.den, LOG2_FRACTION_BITS)
        return Fraction(t, 1 << (LOG2_FRACTION_BITS + 1))


def format_scaled(scaled: int, digits: int) -> str:
    """Render the integer ``scaled`` / 10^digits with exactly ``digits`` decimals."""
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    if digits == 0:
        return f"{sign}{mag}"
    unit = 10**digits
    return f"{sign}{mag // unit}.{mag % unit:0{digits}d}"


def log2_of(v: BigRationalSqrt, digits: int) -> str:
    """(1/2)*log2(v.num/v.den) to ``digits`` decimals, round half to even."""
    if not 1 <= digits <= MAX_LOG2_DIGITS:
        raise ParameterError(f"digits must lie in 1..{MAX_LOG2_DIGITS}, got {digits}")
    # Internal precision: at least 64 decimal digits worth of bits.
    frac_bits = max(256, math.ceil(3.322 * (digits + 24)))
    t = _log2_fixed(v.num, v.den, frac_bits)
    scaled = div_round_half_even(t * 10**digits, 1 << (frac_bits + 1))
    return format_scaled(scaled, digits)


def expanded_log2_fraction(factors, frac_bits: int) -> Fraction:
    """(1/2)*log2 of prod(base^exp) from the full unreduced expansion."""
    return Fraction(_log2_fixed(*expand_power_product(factors), frac_bits), 1 << (frac_bits + 1))


def expanded(factors) -> BigRationalSqrt:
    """The lowest-terms rational of a {base: exponent} map."""
    return BigRationalSqrt(*expand_power_product(factors))


def delta_sq(density) -> Fraction:
    """The exact delta^2 of a LogDensity as one Fraction."""
    return expanded(density.factors).as_fraction()
