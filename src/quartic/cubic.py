"""Exact arithmetic in Q(2^(1/3)), used only by the 6x6 regular representation.

Kept deliberately small: sums and products on int coefficients over one
denominator (integral values never build a Fraction), and the text format
'c0 c1 c2' for 2x2 matrix input.
"""

from __future__ import annotations

from .ring import _fraction, _new, _over, _parse_fraction


def _cubic(c: tuple, d: int) -> "CubicElem":
    """Element from an int vector over d > 0."""
    x = _new(CubicElem)
    x._c = c
    x._d = d
    return x


class CubicElem:
    """c0 + c1 * 2^(1/3) + c2 * 2^(2/3) with rational coefficients.

    Stored as the int vector ``_c`` over the denominator ``_d > 0``, reduced
    when parsed and 1 for integral values; ``c0``..``c2`` and ``coeffs()``
    give the coefficients as Fractions.
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
        return cls(*map(_parse_fraction, parts))

    def coeffs(self):
        return tuple(map(_fraction, self._c, (self._d,) * 3))

    def int_coeffs(self) -> tuple[tuple[int, int, int], int]:
        """(c, d): the coefficients as the ints c over d > 0."""
        return self._c, self._d

    def to_text(self) -> str:
        return " ".join(str(c) for c in self.coeffs())

    def __repr__(self) -> str:
        return f"CubicElem({self.to_text()!r})"

    def __add__(self, other: "CubicElem") -> "CubicElem":
        (a0, a1, a2), d = self._c, self._d
        (b0, b1, b2), e = other._c, other._d
        return _cubic((a0 * e + b0 * d, a1 * e + b1 * d, a2 * e + b2 * d),
                      d * e)

    def __mul__(self, other: "CubicElem") -> "CubicElem":
        a0, a1, a2 = self._c
        b0, b1, b2 = other._c
        # alpha^3 = 2
        return _cubic((a0 * b0 + 2 * (a1 * b2 + a2 * b1),
                       a0 * b1 + a1 * b0 + 2 * a2 * b2,
                       a0 * b2 + a1 * b1 + a2 * b0), self._d * other._d)


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

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def __mul__(self, other: "CubicMat2") -> "CubicMat2":
        return CubicMat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def to_text(self) -> str:
        return "; ".join(e.to_text() for e in self.entries())
