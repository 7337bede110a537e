"""Exact arithmetic in Q(beta), beta = 2^(1/4).

An element is four Python ints over one positive common denominator, on
the basis {1, beta, beta^2, beta^3}, kept reduced (the numerators and the
denominator share no factor), so equal values have equal storage, and
integral values carry denominator 1 and skip every gcd.  The subfield
Q(sqrt2) = Q(beta^2) is the even subring: elements whose beta and beta^3
coefficients vanish.  Products reduce by beta^4 = 2 (``mul4`` on raw int
4-tuples).  The four Galois embeddings send beta to beta * i^k.  Sign
determination is exact: zero is decided symbolically (the basis is
linearly independent over Q), even-subring signs algebraically
(``quad_sign``), and every other nonzero element is separated from zero by
the one dyadic refinement in ``intervals.dyadic_sign`` (``sign4`` on raw
int 4-tuples).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm

from .intervals import (
    DEFAULT_BITS,
    Enclosure,
    dyadic_bounds,
    dyadic_sign,
)


class Sign(enum.IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


# indexed by an int sign: _SIGN[-1] is the last entry
_SIGN = (Sign.ZERO, Sign.POSITIVE, Sign.NEGATIVE)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def _over(xs) -> tuple[tuple[int, ...], int]:
    """Public-constructor coercion: int numerators over their least common
    denominator, which leaves the vector reduced."""
    if all(type(x) is int for x in xs):
        return tuple(xs), 1
    fs = [x if type(x) is int else _frac(x) for x in xs]
    d = lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (d // f.denominator) for f in fs), d


def common_over(xs) -> tuple[tuple, int]:
    """The int 4-tuples of the QuarticElems xs over their least common
    denominator d, and d."""
    d = lcm(*[x._d for x in xs])
    return tuple([x._c if x._d == d else tuple([c * (d // x._d) for c in x._c])
                  for x in xs]), d


def _fraction(n: int, d: int) -> Fraction:
    return Fraction(n) if d == 1 else Fraction(n, d)


def _parse_fraction(text: str) -> Fraction:
    """One rational of the text format; a zero denominator raises a
    ValueError that names it."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def mul4(a, b):
    """Product of int (or rational) 4-tuples on the basis 1, beta, .., beta^3."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    # beta^4 = 2 folds degrees 4..6 back down
    return (
        a0 * b0 + 2 * (a1 * b3 + a2 * b2 + a3 * b1),
        a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
        a0 * b2 + a1 * b1 + a2 * b0 + 2 * a3 * b3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def quad_sign(u: int, v: int) -> int:
    """Exact sign of u + v*sqrt2 for integers u, v."""
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0)
    if su == sv or not sv:
        return su
    if not su:
        return sv
    # opposite rational and sqrt2 parts: compare u^2 with 2 v^2 (never equal)
    return su if u * u > 2 * v * v else sv


def sign4(t) -> int:
    """Exact sign of t0 + t1 b + t2 b^2 + t3 b^3 for integer coefficients."""
    t0, t1, t2, t3 = t
    if not (t1 or t3):
        return quad_sign(t0, t2)
    return dyadic_sign(t0, (t1, t2, t3))


def power(base, n: int):
    """base ** n for n >= 1 by repeated squaring, starting from the lowest
    set bit's power and skipping the square after the highest bit."""
    while not n & 1:
        base = base * base
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            result = result * base
        n >>= 1
    return result


_new = object.__new__


def _elem(c: tuple, d: int) -> "QuarticElem":
    """Element from an int vector over d > 0, reduced by gcd unless d is 1."""
    if d != 1:
        c0, c1, c2, c3 = c
        g = gcd(c0, c1, c2, c3, d)
        if g != 1:
            c = (c0 // g, c1 // g, c2 // g, c3 // g)
            d //= g
    x = _new(QuarticElem)
    x._c = c
    x._d = d
    return x


class QuarticElem:
    """q0 + q1*beta + q2*beta^2 + q3*beta^3 with rational coefficients.

    Stored as the reduced int vector ``_c`` over the denominator ``_d > 0``;
    ``q0``..``q3`` and ``coeffs()`` give the coefficients as Fractions.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        self._c, self._d = _over((q0, q1, q2, q3))

    q0 = property(lambda self: _fraction(self._c[0], self._d))
    q1 = property(lambda self: _fraction(self._c[1], self._d))
    q2 = property(lambda self: _fraction(self._c[2], self._d))
    q3 = property(lambda self: _fraction(self._c[3], self._d))

    @classmethod
    def parse(cls, text: str) -> "QuarticElem":
        """Parse the wire format: four space-separated rationals 'q0 q1 q2 q3'."""
        parts = text.split()
        if len(parts) != 4:
            raise ValueError(
                f"expected 4 coefficients, got {len(parts)} in {text!r}")
        return cls(*map(_parse_fraction, parts))

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(map(_fraction, self._c, (self._d,) * 4))

    def int_coeffs(self) -> tuple[tuple[int, int, int, int], int]:
        """(c, d): the coefficients as the reduced ints c over d > 0."""
        return self._c, self._d

    def to_text(self) -> str:
        if self._d == 1:
            return " ".join(map(str, self._c))
        return " ".join(str(c) for c in self.coeffs())

    def __repr__(self) -> str:
        return f"QuarticElem({self.to_text()!r})"

    def __eq__(self, other) -> bool:
        if type(other) is not QuarticElem:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._c == other._c and self._d == other._d

    def _plus(self, other, s: int):
        """self + s * other for s = 1 or -1."""
        if type(other) is not QuarticElem:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a0, a1, a2, a3 = self._c
        b0, b1, b2, b3 = other._c
        d, e = self._d, other._d
        if d != e:
            a0, a1, a2, a3 = a0 * e, a1 * e, a2 * e, a3 * e
            s *= d
            d *= e
        return _elem((a0 + s * b0, a1 + s * b1, a2 + s * b2, a3 + s * b3), d)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        c0, c1, c2, c3 = self._c
        return _elem((-c0, -c1, -c2, -c3), self._d)

    def __mul__(self, other):
        if type(other) is not QuarticElem:
            if isinstance(other, (int, Fraction)):
                n = other.numerator
                c0, c1, c2, c3 = self._c
                return _elem((c0 * n, c1 * n, c2 * n, c3 * n),
                             self._d * other.denominator)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _elem(mul4(self._c, other._c), self._d * other._d)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self._c == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        _, c1, c2, c3 = self._c
        return not (c1 or c2 or c3)

    def in_even_subring(self) -> bool:
        """True when the element lies in Q(sqrt2), i.e. no beta or beta^3 part."""
        _, c1, _, c3 = self._c
        return not (c1 or c3)

    def even_part(self) -> "QuarticElem":
        c0, _, c2, _ = self._c
        return _elem((c0, 0, c2, 0), self._d)

    def odd_part(self) -> "QuarticElem":
        _, c1, _, c3 = self._c
        return _elem((0, c1, 0, c3), self._d)

    def conj_even(self) -> "QuarticElem":
        """beta -> -beta, the automorphism fixing Q(sqrt2)."""
        c0, c1, c2, c3 = self._c
        return _elem((c0, -c1, c2, -c3), self._d)

    def inv(self) -> "QuarticElem":
        """Field inverse via the tower Q(beta) / Q(sqrt2) / Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(beta)")
        y = self.conj_even()
        # the relative norm x * y = (u + v sqrt2) / d lies in Q(sqrt2), and
        # its inverse is d (u - v sqrt2) / (u^2 - 2 v^2)
        z = self * y
        u, _, v, _ = z._c
        n = u * u - 2 * v * v
        s = -1 if n < 0 else 1
        return y * _elem((s * z._d * u, 0, -s * z._d * v, 0), s * n)

    def interval(self, bits: int = DEFAULT_BITS) -> Enclosure:
        c0, c1, c2, c3 = self._c
        lo, hi = dyadic_bounds(c0, (c1, c2, c3), bits)
        return lo, hi, self._d << bits

    def sign(self) -> Sign:
        """Exact sign.  Zero is symbolic; nonzero refines until separated."""
        return _SIGN[sign4(self._c)]

    def abs(self) -> "QuarticElem":
        return -self if self.sign() == Sign.NEGATIVE else self

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() == Sign.NEGATIVE


def _coerce(x) -> QuarticElem | None:
    if isinstance(x, QuarticElem):
        return x
    if isinstance(x, (int, Fraction)):
        return QuarticElem(x)
    return None


ZERO = QuarticElem(0)
ONE = QuarticElem(1)
BETA = QuarticElem(0, 1)
SQRT2 = QuarticElem(0, 0, 1)


def galois(x: QuarticElem, k: int) -> tuple[QuarticElem, QuarticElem]:
    """Image of x under the embedding beta -> beta * i^k, k in 0..3, as the
    pair (re, im) with sigma_k(x) = re + beta * im * i.  Both lie in the
    even subring for k = 1, 3; im is zero for the real embeddings k = 0, 2.
    The squared modulus is re^2 + sqrt2 * im^2."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"embedding index must be 0..3, got {k}")
    if k == 0:
        return x, ZERO
    if k == 2:
        return x.conj_even(), ZERO
    # beta -> +-i beta: (q0 - q2 sqrt2) +- i beta (q1 - q3 sqrt2)
    c0, c1, c2, c3 = x._c
    d = x._d
    im = _elem((c1, 0, -c3, 0) if k == 1 else (-c1, 0, c3, 0), d)
    return _elem((c0, 0, -c2, 0), d), im
