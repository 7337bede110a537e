"""Reference enclosures with Fraction endpoints for differential tests.

``Interval`` is the closed interval [lo, hi] with exact Fraction ends.
Sums, differences, products, absolute values and quotients are exact; the
square root rounds outward to scale 2^bits through ``isqrt``.  The int
triples (lo, hi, scale) of ``quartic.intervals`` must stand for the same
rationals.
"""

from fractions import Fraction
from math import isqrt


class Interval:
    """Closed interval [lo, hi] with Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def of(cls, e) -> "Interval":
        """The interval an int triple (lo, hi, scale) stands for."""
        lo, hi, s = e
        return cls(Fraction(lo, s), Fraction(hi, s))

    def ends(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

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

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi))

    def quotient(self, den: "Interval") -> "Interval":
        """[lo / den.hi, hi / den.lo] for den.lo > 0, the rule the reports
        use; it encloses the quotient when lo >= 0."""
        return Interval(self.lo / den.hi, self.hi / den.lo)

    def sqrt(self, bits: int) -> "Interval":
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
