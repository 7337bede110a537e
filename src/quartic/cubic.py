"""Exact arithmetic in Q(2^(1/3)), used only by the 6x6 regular representation.

Kept deliberately small: ring operations, equality, a sign through the
shared dyadic helper, and the text format 'c0 c1 c2' for 2x2 matrix input.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .intervals import cubic_bounds, dyadic_sign


class CubicElem:
    """c0 + c1 * 2^(1/3) + c2 * 2^(2/3) with rational coefficients."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0=0, c1=0, c2=0):
        self.c0 = Fraction(c0)
        self.c1 = Fraction(c1)
        self.c2 = Fraction(c2)

    @classmethod
    def parse(cls, text: str) -> "CubicElem":
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(f"expected 3 coefficients in {text!r}")
        return cls(*(Fraction(p) for p in parts))

    def coeffs(self):
        return (self.c0, self.c1, self.c2)

    def to_text(self) -> str:
        return " ".join(str(c) for c in self.coeffs())

    def __repr__(self) -> str:
        return f"CubicElem({self.to_text()!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CubicElem(other)
        if not isinstance(other, CubicElem):
            return NotImplemented
        return self.coeffs() == other.coeffs()

    def __hash__(self):
        return hash(self.coeffs())

    def __add__(self, other):
        if isinstance(other, int):
            other = CubicElem(other)
        return CubicElem(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        if isinstance(other, int):
            other = CubicElem(other)
        return CubicElem(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self):
        return CubicElem(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CubicElem(self.c0 * other, self.c1 * other, self.c2 * other)
        a0, a1, a2 = self.coeffs()
        b0, b1, b2 = other.coeffs()
        # alpha^3 = 2
        return CubicElem(
            a0 * b0 + 2 * (a1 * b2 + a2 * b1),
            a0 * b1 + a1 * b0 + 2 * a2 * b2,
            a0 * b2 + a1 * b1 + a2 * b0,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.coeffs() == (0, 0, 0)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs())

    def sign(self) -> int:
        den = lcm(self.c0.denominator, self.c1.denominator, self.c2.denominator)
        n0, n1, n2 = (int(c * den) for c in self.coeffs())
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
