"""Integer enclosures for the handful of irrationalities the package uses.

Every enclosure is ints over one positive scale.  The roots beta =
2^(1/4), sqrt(2) and beta^3 are enclosed at scale 2^bits, cached per bit
count; sign determination refines by doubling the bit count.  A reported value is an ``Enclosure`` (lo, hi, scale): its
sums, products and quotients are exact, and precision enters only when
enclosing a root and when taking a square root for display.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

DEFAULT_BITS = 64


def ifourth_root(n: int) -> int:
    """floor(n ** (1/4)) for nonnegative n."""
    return isqrt(isqrt(n))


# each root as (lo, hi) integer numerators at scale 2^bits, hi = lo + 1,
# cached per bit count


@cache
def beta_bounds(bits: int) -> tuple[int, int]:
    lo = ifourth_root(2 << (4 * bits))
    return lo, lo + 1


@cache
def sqrt2_bounds(bits: int) -> tuple[int, int]:
    lo = isqrt(2 << (2 * bits))
    return lo, lo + 1


@cache
def beta3_bounds(bits: int) -> tuple[int, int]:
    # beta^3 = 2^(3/4) = fourth root of 8
    lo = ifourth_root(8 << (4 * bits))
    return lo, lo + 1


def quartic_bounds(bits: int):
    """Enclosures of beta, beta^2 = sqrt2 and beta^3 at scale 2^bits."""
    return beta_bounds(bits), sqrt2_bounds(bits), beta3_bounds(bits)


def dyadic_bounds(c0: int, cs, bits: int) -> tuple[int, int]:
    """Integer bounds for (c0 + cs[0] beta + cs[1] beta^2 + cs[2] beta^3)
    * 2^bits, from ``quartic_bounds(bits)``."""
    lo = hi = c0 << bits
    for c, (plo, phi) in zip(cs, quartic_bounds(bits)):
        if c >= 0:
            lo += c * plo
            hi += c * phi
        else:
            lo += c * phi
            hi += c * plo
    return lo, hi


def dyadic_sign(c0: int, cs) -> int:
    """Exact sign of c0 + cs[0] beta + cs[1] beta^2 + cs[2] beta^3 for
    integers c0, cs[i].

    Some cs[i] must be nonzero: 1, beta, beta^2 and beta^3 are linearly
    independent over Q, so refinement, from DEFAULT_BITS by doubling, then
    ends.
    """
    bits = DEFAULT_BITS
    while True:
        lo, hi = dyadic_bounds(c0, cs, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


# An enclosure is an int triple (lo, hi, scale), scale > 0, standing for
# the exact interval [lo/scale, hi/scale].  Sums, products and quotients
# are exact; only the square root rounds, outward at scale 2^bits.
Enclosure = tuple[int, int, int]


def enc_add(x: Enclosure, y: Enclosure) -> Enclosure:
    (lo, hi, s), (lo2, hi2, s2) = x, y
    if s == s2:
        return lo + lo2, hi + hi2, s
    return lo * s2 + lo2 * s, hi * s2 + hi2 * s, s * s2


def enc_mul(x: Enclosure, y: Enclosure) -> Enclosure:
    (lo, hi, s), (lo2, hi2, s2) = x, y
    ps = (lo * lo2, lo * hi2, hi * lo2, hi * hi2)
    return min(ps), max(ps), s * s2


def enc_div(n: Enclosure, d: Enclosure) -> Enclosure:
    """[n.lo / d.hi, n.hi / d.lo] over one common scale, for d.lo > 0."""
    (lo, hi, s), (d_lo, d_hi, t) = n, d
    return lo * t * d_lo, hi * t * d_hi, s * d_lo * d_hi


def enc_sqrt(x: Enclosure, bits: int = DEFAULT_BITS) -> Enclosure:
    """Square root rounded outward to scale 2^bits."""
    lo, hi, s = x
    if lo < 0:
        raise ValueError("sqrt of an enclosure reaching below zero")
    q = 1 << bits
    n = -(-hi * q * q // s)             # ceil
    r = isqrt(n)
    return isqrt(lo * q * q // s), r + (r * r < n), q
