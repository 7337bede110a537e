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

from .errors import InternalMismatch, NonIntegralInput, UnsignedElement
from .intervals import (
    DEFAULT_BITS,
    Enclosure,
    dyadic_bounds,
    dyadic_sign,
    quartic_bounds,
)


class Sign(enum.IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


# indexed by an int sign: _SIGN[-1] is the last entry
_SIGN = (Sign.ZERO, Sign.POSITIVE, Sign.NEGATIVE)


class Signedness(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNSIGNED = "unsigned"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
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
    return dyadic_sign(t0, (t1, t2, t3), quartic_bounds)


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
        return cls(*(Fraction(p) for p in parts))

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

    def __str__(self) -> str:
        names = ("", "b", "b^2", "b^3")
        parts = []
        for c, n in zip(self.coeffs(), names):
            if c == 0:
                continue
            term = str(c) if not n else (n if abs(c) == 1 else f"{abs(c)}*{n}")
            if n and c < 0:
                term = "-" + term
            parts.append(term if not parts or term.startswith("-") else "+" + term)
        return "".join(parts) or "0"

    def __eq__(self, other) -> bool:
        if type(other) is not QuarticElem:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._c == other._c and self._d == other._d

    def __hash__(self):
        # equal to the hash of the Fraction 4-tuple coeffs()
        if self._d == 1:
            return hash(self._c)
        return hash(self.coeffs())

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

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, n: int) -> "QuarticElem":
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n) if n else ONE

    def is_zero(self) -> bool:
        return self._c == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        _, c1, c2, c3 = self._c
        return not (c1 or c2 or c3)

    def is_integral(self) -> bool:
        return self._d == 1

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def interval(self, bits: int = DEFAULT_BITS) -> Enclosure:
        c0, c1, c2, c3 = self._c
        lo, hi = dyadic_bounds(c0, (c1, c2, c3), quartic_bounds, bits)
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

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() != Sign.POSITIVE


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


def QuadRat(u, v=0) -> QuarticElem:
    """u + v*sqrt2 as an element of the even subring Q(sqrt2)."""
    return QuarticElem(u, 0, v, 0)


def sqrt2_text(x: QuarticElem) -> str:
    """An element of Q(sqrt2) as 'u + v*sqrt2'."""
    return f"{x.q0} + {x.q2}*sqrt2"


class EmbeddedComplex:
    """Exact image of a quartic element under one Galois embedding.

    Stored as re + beta * im_scale * i where re is a real element of Q(beta)
    and im_scale an element of Q(beta) with zero odd part.  For the complex embeddings (k = 1, 3)
    the real part always lands in the Q(sqrt2) subring; for the real
    embeddings (k = 0, 2) im_scale is zero and re carries the whole image.
    Arithmetic stays inside a single embedded field.
    """

    __slots__ = ("re", "im_scale")

    def __init__(self, re: QuarticElem, im_scale: QuarticElem):
        self.re = re
        self.im_scale = im_scale

    def __repr__(self) -> str:
        return f"EmbeddedComplex({self.re!r}, {self.im_scale!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddedComplex):
            return NotImplemented
        return self.re == other.re and self.im_scale == other.im_scale

    def __hash__(self):
        return hash((self.re, self.im_scale))

    def is_real(self) -> bool:
        return self.im_scale.is_zero()

    def __add__(self, other: "EmbeddedComplex") -> "EmbeddedComplex":
        return EmbeddedComplex(self.re + other.re, self.im_scale + other.im_scale)

    def __mul__(self, other: "EmbeddedComplex") -> "EmbeddedComplex":
        # (r1 + b s1 i)(r2 + b s2 i) = r1 r2 - sqrt2 s1 s2 + b (r1 s2 + r2 s1) i
        re = self.re * other.re - SQRT2 * self.im_scale * other.im_scale
        im = self.re * other.im_scale + other.re * self.im_scale
        if not im.in_even_subring():
            raise InternalMismatch(
                "product left the embedded field; operands came from "
                "different embeddings")
        return EmbeddedComplex(re, im)

    def abs2(self) -> QuarticElem:
        """Squared modulus re^2 + sqrt2 * im_scale^2, a real quartic element."""
        return self.re * self.re + SQRT2 * self.im_scale * self.im_scale


def galois(x: QuarticElem, k: int) -> EmbeddedComplex:
    """Image of x under the embedding beta -> beta * i^k, k in 0..3."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"embedding index must be 0..3, got {k}")
    if k == 0:
        return EmbeddedComplex(x, ZERO)
    if k == 2:
        return EmbeddedComplex(x.conj_even(), ZERO)
    # beta -> +-i beta: (q0 - q2 sqrt2) +- i beta (q1 - q3 sqrt2)
    c0, c1, c2, c3 = x._c
    d = x._d
    im = _elem((c1, 0, -c3, 0) if k == 1 else (-c1, 0, c3, 0), d)
    return EmbeddedComplex(_elem((c0, 0, -c2, 0), d), im)


def signedness(x: QuarticElem) -> Signedness:
    # over a positive denominator the numerators carry the signs
    lo, hi = min(x._c), max(x._c)
    if lo >= 0 and hi > 0:
        return Signedness.POSITIVE
    if hi <= 0 and lo < 0:
        return Signedness.NEGATIVE
    return Signedness.UNSIGNED


def field_quantity_N(x: QuarticElem) -> Fraction:
    """|product of the four Galois conjugates|, by two independent routes.

    The closed form (a^2 + 2p^2 - 4me)^2 - 2(2ap - m^2 - 2e^2)^2 must agree
    with the literal conjugate product; a mismatch raises InternalMismatch.
    At least 1 for nonzero integral input.
    """
    # on the numerators of x: u and v are over d^2, the closed form over d^4
    a, m, p, e = x._c
    u = a * a + 2 * p * p - 4 * m * e
    v = 2 * a * p - m * m - 2 * e * e
    num, den = abs(u * u - 2 * v * v), x._d ** 4

    prod02 = x * x.conj_even()
    z13 = galois(x, 1) * galois(x, 3)
    if not z13.is_real():
        raise InternalMismatch("sigma1(x) * sigma3(x) should be real")
    full = prod02 * z13.re
    if not full.is_rational():
        raise InternalMismatch("full conjugate product should be rational")
    n, d = abs(full._c[0]), full._d
    if num * d != n * den:
        raise InternalMismatch(
            f"N({x.to_text()}): closed form {Fraction(num, den)} != "
            f"product {_fraction(n, d)}")
    return Fraction(num, den)


def _gamma(x: QuarticElem, name: str, degrees, scale: int) -> QuarticElem:
    """scale * the least of x's monomial terms q_i beta^i for i in degrees,
    each one int of its vector over its denominator, extended oddly to
    negative x.  Zero input yields zero (continuity); mixed signs raise."""
    if x.is_zero():
        return ZERO
    s = signedness(x)
    if s == Signedness.UNSIGNED:
        raise UnsignedElement(f"{name} of mixed-sign element {x.to_text()}")
    if s == Signedness.NEGATIVE:
        return -_gamma(-x, name, degrees, scale)
    c, d = x._c, x._d
    return scale * min(_elem(tuple(c[i] if j == i else 0 for j in range(4)), d)
                       for i in degrees)


def gamma(x: QuarticElem) -> QuarticElem:
    """4 * min of the four monomial terms, extended oddly to negative x."""
    return _gamma(x, "gamma", range(4), 4)


def delta(x: QuarticElem) -> QuarticElem:
    return x - gamma(x)


def gamma1(x: QuarticElem) -> QuarticElem:
    """2 * min of the even-part terms {a, p*beta^2}, oddly extended."""
    return _gamma(x, "gamma1", (0, 2), 2)


def gamma2(x: QuarticElem) -> QuarticElem:
    """2 * min of the odd-part terms {m*beta, e*beta^3}, oddly extended."""
    return _gamma(x, "gamma2", (1, 3), 2)


def delta1(x: QuarticElem) -> QuarticElem:
    return x.even_part() - gamma1(x)


def delta2(x: QuarticElem) -> QuarticElem:
    return x.odd_part() - gamma2(x)


def in_S(x: QuarticElem, eps, c) -> bool:
    """Membership in {x integral : 0 < |x| < eps, |sigma1(x)| < c}, exact."""
    eps = _frac(eps)
    c = _frac(c)
    if eps <= 0 or c <= 0:
        raise ValueError("thresholds must be positive")
    if not x.is_integral():
        raise NonIntegralInput(f"in_S needs integer coefficients: {x.to_text()}")
    if x.is_zero():
        return False
    if (x * x - QuarticElem(eps * eps)).sign() != Sign.NEGATIVE:
        return False
    return (galois(x, 1).abs2() - c * c).sign() == Sign.NEGATIVE
