"""Integer enclosures for the handful of irrationalities the package uses.

Every enclosure is ints over one positive scale.  The roots beta =
2^(1/4), sqrt(2), beta^3 and the cube roots of 2 and 4 are enclosed at
scale 2^bits, cached per bit count; sign determination refines by doubling
the bit count.  A reported value is an ``Enclosure`` (lo, hi, scale): its
sums, products and quotients are exact, and precision enters only when
enclosing a root and when taking a square root for display.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

DEFAULT_BITS = 64
FILTER_BITS = 48


def ifourth_root(n: int) -> int:
    """floor(n ** (1/4)) for nonnegative n."""
    return isqrt(isqrt(n))


def icbrt(n: int) -> int:
    """floor(n ** (1/3)) for nonnegative n, Newton iteration on ints."""
    if n < 0:
        raise ValueError("icbrt of negative")
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // 3) + 1)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


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


@cache
def cbrt2_bounds(bits: int) -> tuple[int, int]:
    lo = icbrt(2 << (3 * bits))
    return lo, lo + 1


@cache
def cbrt4_bounds(bits: int) -> tuple[int, int]:
    lo = icbrt(4 << (3 * bits))
    return lo, lo + 1


def quartic_bounds(bits: int):
    """Enclosures of beta, beta^2 = sqrt2 and beta^3 at scale 2^bits."""
    return beta_bounds(bits), sqrt2_bounds(bits), beta3_bounds(bits)


def cubic_bounds(bits: int):
    """Enclosures of 2^(1/3) and 2^(2/3) at scale 2^bits."""
    return cbrt2_bounds(bits), cbrt4_bounds(bits)


def dyadic_bounds(c0: int, cs, bounds_at, bits: int) -> tuple[int, int]:
    """Integer bounds for (c0 + sum cs[i] * r_i) * 2^bits, where
    bounds_at(bits) gives each irrational r_i as (lo, hi) numerators at
    scale 2^bits."""
    lo = hi = c0 << bits
    for c, (plo, phi) in zip(cs, bounds_at(bits)):
        if c >= 0:
            lo += c * plo
            hi += c * phi
        else:
            lo += c * phi
            hi += c * plo
    return lo, hi


def filter_bounds(c0: int, cs, bounds_at) -> tuple[int, int]:
    """Integer bounds for (c0 + sum cs[i] * r_i) * 2^FILTER_BITS.

    The enclosure is taken at the coefficients' bit length plus FILTER_BITS
    and rounded outward, so its width is a few units at scale
    2^-FILTER_BITS however large the coefficients are.  Two values whose
    bounds are disjoint are ordered exactly; only overlapping bounds need
    an exact sign (the filter of Bronnimann, Burnikel and Pion).
    """
    m = abs(c0)
    for c in cs:
        m |= abs(c)
    bits = m.bit_length() + FILTER_BITS
    lo, hi = dyadic_bounds(c0, cs, bounds_at, bits)
    shift = bits - FILTER_BITS
    return lo >> shift, -(-hi >> shift)


def dyadic_sign(c0: int, cs, bounds_at) -> int:
    """Exact sign of c0 + sum cs[i] * r_i for integers c0, cs[i].

    1 and the r_i must be linearly independent over Q, so only the zero
    vector has sign 0 and refinement, from DEFAULT_BITS by doubling, ends
    for every other vector.
    """
    if not any(cs):
        return (c0 > 0) - (c0 < 0)
    bits = DEFAULT_BITS
    while True:
        lo, hi = dyadic_bounds(c0, cs, bounds_at, bits)
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


# the report's decimal places; endpoints round outward to them
_PLACES = 12
_UNIT = 10 ** _PLACES


def format_endpoint(n: int, d: int, round_up: bool = False) -> str:
    """Exact decimal rendering of n / d (d > 0) rounded outward to
    _PLACES digits."""
    v = -(-n * _UNIT // d) if round_up else n * _UNIT // d
    whole, frac = divmod(abs(v), _UNIT)
    return f"{'-' if v < 0 else ''}{whole}.{frac:0{_PLACES}d}"


def interval_json(e: Enclosure) -> list[str]:
    """Deterministic [lo, hi] string pair, outward rounded."""
    lo, hi, s = e
    return [format_endpoint(lo, s), format_endpoint(hi, s, round_up=True)]
