"""Dyadic enclosures for the handful of irrationalities the package uses.

Interval endpoints are exact Fractions, so +, -, * are rounding-free.
Precision only enters when enclosing beta = 2^(1/4) (or sqrt(2), or 2^(1/3))
and when taking square roots for display.  Enclosures at a given bit count
are cached, and sign determination refines by doubling the bit count.
"""

from __future__ import annotations

from fractions import Fraction
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


class Interval:
    """Closed interval [lo, hi] with Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        ps = (self.lo * other.lo, self.lo * other.hi,
              self.hi * other.lo, self.hi * other.hi)
        return Interval(min(ps), max(ps))

    def scaled(self, c: Fraction) -> "Interval":
        c = Fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def square(self) -> "Interval":
        a = abs(self)
        return Interval(a.lo * a.lo, a.hi * a.hi)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> int | None:
        """-1, 0 or +1 when decided, None when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 == self.hi:
            return 0
        return None

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __lt__(self, other: "Interval") -> bool:
        """Certified strict order: every point of self below every point of other."""
        return self.hi < other.lo

    def sqrt(self, bits: int = DEFAULT_BITS) -> "Interval":
        if self.lo < 0:
            raise ValueError("sqrt of an interval reaching below zero")
        return Interval(_sqrt_lower(self.lo, bits), _sqrt_upper(self.hi, bits))


def _sqrt_lower(x: Fraction, bits: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    s = 1 << bits
    n = (x.numerator * s * s) // x.denominator
    return Fraction(isqrt(n), s)


def _sqrt_upper(x: Fraction, bits: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    s = 1 << bits
    n = -((-x.numerator * s * s) // x.denominator)  # ceil
    r = isqrt(n)
    if r * r < n:
        r += 1
    return Fraction(r, s)


def from_dyadic_pair(lo: int, hi: int, bits: int) -> Interval:
    s = 1 << bits
    return Interval(Fraction(lo, s), Fraction(hi, s))


def sqrt2_interval(bits: int = DEFAULT_BITS) -> Interval:
    return from_dyadic_pair(*sqrt2_bounds(bits), bits)


def format_endpoint(x: Fraction, places: int = 12, round_up: bool = False) -> str:
    """Exact decimal rendering of x rounded outward to `places` digits."""
    q = 10 ** places
    n = x.numerator * q
    d = x.denominator
    if round_up:
        v = -((-n) // d)
    else:
        v = n // d
    sign = "-" if v < 0 else ""
    v = abs(v)
    whole, frac = divmod(v, q)
    return f"{sign}{whole}.{frac:0{places}d}"


def interval_json(iv: Interval, places: int = 12) -> list[str]:
    """Deterministic [lo, hi] string pair, outward rounded."""
    return [format_endpoint(iv.lo, places, round_up=False),
            format_endpoint(iv.hi, places, round_up=True)]
