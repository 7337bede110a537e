"""Exact arithmetic in Q(2^(1/3)), used only by the 6x6 regular representation.

Kept deliberately small: ring operations on reduced int coefficients over
one denominator (integral values never build a Fraction), equality, a sign
through the shared dyadic helper, and the text format 'c0 c1 c2' for 2x2
matrix input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .intervals import cubic_bounds, dyadic_sign
from .ring import _fraction, _new, _over


def _cubic(c: tuple, d: int) -> "CubicElem":
    """Element from an int vector over d > 0, reduced by gcd unless d is 1."""
    if d != 1:
        c0, c1, c2 = c
        g = gcd(c0, c1, c2, d)
        if g != 1:
            c = (c0 // g, c1 // g, c2 // g)
            d //= g
    x = _new(CubicElem)
    x._c = c
    x._d = d
    return x


class CubicElem:
    """c0 + c1 * 2^(1/3) + c2 * 2^(2/3) with rational coefficients.

    Stored as the reduced int vector ``_c`` over the denominator ``_d > 0``,
    as ``QuarticElem`` is; ``c0``..``c2`` and ``coeffs()`` give the
    coefficients as Fractions.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, c0=0, c1=0, c2=0):
        self._c, self._d = _over((c0, c1, c2))

    c0 = property(lambda self: _fraction(self._c[0], self._d))
    c1 = property(lambda self: _fraction(self._c[1], self._d))
    c2 = property(lambda self: _fraction(self._c[2], self._d))

    @classmethod
    def parse(cls, text: str) -> "CubicElem":
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(f"expected 3 coefficients in {text!r}")
        return cls(*(Fraction(p) for p in parts))

    def coeffs(self):
        return tuple(map(_fraction, self._c, (self._d,) * 3))

    def int_coeffs(self) -> tuple[tuple[int, int, int], int]:
        """(c, d): the coefficients as the reduced ints c over d > 0."""
        return self._c, self._d

    def to_text(self) -> str:
        return " ".join(str(c) for c in self.coeffs())

    def __repr__(self) -> str:
        return f"CubicElem({self.to_text()!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CubicElem(other)
        if not isinstance(other, CubicElem):
            return NotImplemented
        return self._c == other._c and self._d == other._d

    def __hash__(self):
        # equal to the hash of the Fraction 3-tuple coeffs()
        if self._d == 1:
            return hash(self._c)
        return hash(self.coeffs())

    def _plus(self, other, s: int) -> "CubicElem":
        """self + s * other for s = 1 or -1."""
        if isinstance(other, int):
            other = CubicElem(other)
        a0, a1, a2 = self._c
        b0, b1, b2 = other._c
        d, e = self._d, other._d
        if d != e:
            a0, a1, a2 = a0 * e, a1 * e, a2 * e
            s *= d
            d *= e
        return _cubic((a0 + s * b0, a1 + s * b1, a2 + s * b2), d)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        c0, c1, c2 = self._c
        return _cubic((-c0, -c1, -c2), self._d)

    def __mul__(self, other):
        a0, a1, a2 = self._c
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _cubic((a0 * n, a1 * n, a2 * n),
                          self._d * other.denominator)
        b0, b1, b2 = other._c
        # alpha^3 = 2
        return _cubic((a0 * b0 + 2 * (a1 * b2 + a2 * b1),
                       a0 * b1 + a1 * b0 + 2 * a2 * b2,
                       a0 * b2 + a1 * b1 + a2 * b0), self._d * other._d)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self._c == (0, 0, 0)

    def is_integral(self) -> bool:
        return self._d == 1

    def sign(self) -> int:
        n0, n1, n2 = self._c
        return dyadic_sign(n0, (n1, n2), cubic_bounds)


CUBIC_ZERO = CubicElem(0)
CUBIC_ONE = CubicElem(1)


class CubicMat2:
    """2x2 matrix over Q(2^(1/3)); just enough for the 6x6 representation."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: CubicElem, e12: CubicElem, e21: CubicElem, e22: CubicElem):
        self.e11, self.e12, self.e21, self.e22 = e11, e12, e21, e22

    @classmethod
    def identity(cls) -> "CubicMat2":
        return cls(CUBIC_ONE, CUBIC_ZERO, CUBIC_ZERO, CUBIC_ONE)

    @classmethod
    def parse(cls, text: str) -> "CubicMat2":
        parts = [p.strip() for p in text.split(";")]
        if len(parts) != 4:
            raise ValueError(f"expected 4 entries separated by ';' in {text!r}")
        return cls(*(CubicElem.parse(p) for p in parts))

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubicMat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __mul__(self, other: "CubicMat2") -> "CubicMat2":
        return CubicMat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self) -> CubicElem:
        return self.e11 * self.e22 - self.e12 * self.e21

    def to_text(self) -> str:
        return "; ".join(e.to_text() for e in self.entries())
