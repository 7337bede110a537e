"""Values a + b * sqrt(d) over the quartic base field.

Eigenvalues and eigenvector slopes of the 2x2 matrices live here: d is the
trace discriminant, an element of Q(beta).  Sign determination reduces to
quartic signs, so every comparison is exact even when d happens to be a
square in the field.
"""

from __future__ import annotations

from .errors import InternalMismatch
from .intervals import DEFAULT_BITS, Enclosure, enc_add, enc_mul, enc_sqrt
from .ring import (ZERO, QuarticElem, Sign, common_over, mul4, sign4, _SIGN,
                   _coerce)


class QuadExt:
    """a + b*sqrt(d), a, b, d in Q(beta), d >= 0 shared by both operands."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = _as_quartic(a)
        self.b = _as_quartic(b)
        self.d = _as_quartic(d)

    def __repr__(self) -> str:
        return f"QuadExt({self.a.to_text()!r}, {self.b.to_text()!r}, d={self.d.to_text()!r})"

    @classmethod
    def of_base(cls, x, d) -> "QuadExt":
        return cls(x, ZERO, d)

    def _check_compatible(self, other: "QuadExt") -> None:
        if not self.b.is_zero() and not other.b.is_zero() and self.d != other.d:
            raise InternalMismatch("mixing incompatible quadratic extensions")

    def _common_d(self, other: "QuadExt") -> QuarticElem:
        return self.d if not self.b.is_zero() or other.b.is_zero() else other.d

    def __add__(self, other):
        other = _as_ext(other, self.d)
        self._check_compatible(other)
        return _ext(self.a + other.a, self.b + other.b, self._common_d(other))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ext(other, self.d)
        self._check_compatible(other)
        return _ext(self.a - other.a, self.b - other.b, self._common_d(other))

    def __neg__(self):
        return _ext(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = _as_ext(other, self.d)
        self._check_compatible(other)
        d = self._common_d(other)
        a, b, a2, b2 = self.a, self.b, other.a, other.b
        # a base-field operand takes two products, not four
        if b2.is_zero():
            return _ext(a * a2, b if b.is_zero() else b * a2, d)
        if b.is_zero():
            return _ext(a * a2, a * b2, d)
        return _ext(a * a2 + b * b2 * d, a * b2 + b * a2, d)

    __rmul__ = __mul__

    def conj_sqrt(self) -> "QuadExt":
        return _ext(self.a, -self.b, self.d)

    def norm_base(self) -> QuarticElem:
        """a^2 - b^2 d, the norm down to Q(beta)."""
        return self.a * self.a - self.b * self.b * self.d

    def inv(self) -> "QuadExt":
        n = self.norm_base()
        if n.is_zero():
            # sqrt(d) lies in the base field here; fall back on the value
            raise ZeroDivisionError("inverse through a degenerate extension")
        ninv = n.inv()
        return _ext(self.a * ninv, -self.b * ninv, self.d)

    def sign(self) -> Sign:
        (u,), (v,), d_num, d_den = surd_form([self.a], [self.b], self.d)
        return surd_sign(u, v, d_num, d_den)

    def is_zero(self) -> bool:
        return self.sign() == Sign.ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, (QuadExt, QuarticElem, int)):
            other = _as_ext(other, self.d)
            return (self - other).is_zero()
        return NotImplemented

    def abs(self) -> "QuadExt":
        return -self if self.sign() == Sign.NEGATIVE else self

    def interval(self, bits: int = DEFAULT_BITS) -> Enclosure:
        base = self.a.interval(bits)
        if self.b.is_zero():
            return base
        root = enc_sqrt(self.d.interval(bits), bits)
        return enc_add(base, enc_mul(self.b.interval(bits), root))


def surd_form(us, vs, d: QuarticElem) -> tuple:
    """(u, v, d_num, d_den) with u_i + v_i sqrt(d_num / d_den) a positive
    multiple of us_i + vs_i sqrt(d) for every i: u and v are the int
    4-tuples of us and vs over their own common denominators e_u and e_v,
    which fold into d_num / d_den = d e_u^2 / e_v^2."""
    (u, e_u), (v, e_v) = common_over(us), common_over(vs)
    d_num, d_den = d.int_coeffs()
    return u, v, tuple(c * e_u * e_u for c in d_num), d_den * e_v * e_v


def surd_sign(u: tuple, v: tuple, d_num: tuple, d_den: int) -> Sign:
    """Exact sign of u + v sqrt(d_num / d_den) for int 4-tuples u, v and
    d_num >= 0 and an int d_den > 0: the parts' common sign where they
    agree, else the sign of the part whose square wins in
    u^2 d_den - v^2 d_num, and zero on a tie."""
    su = sign4(u)
    if not any(v):
        return _SIGN[su]
    sv = sign4(v)
    if su == sv:
        return _SIGN[su]
    t = sign4(tuple(x * d_den - y for x, y in
                    zip(mul4(u, u), mul4(mul4(v, v), d_num))))
    return _SIGN[t and (su if t > 0 else sv)]


def _as_quartic(x) -> QuarticElem:
    q = _coerce(x)
    if q is None:
        raise TypeError(f"cannot use {type(x).__name__} in QuadExt")
    return q


def _ext(a: QuarticElem, b: QuarticElem, d: QuarticElem) -> QuadExt:
    """a + b*sqrt(d) from parts already in Q(beta), with no coercion."""
    out = object.__new__(QuadExt)
    out.a, out.b, out.d = a, b, d
    return out


def _as_ext(x, d) -> QuadExt:
    if isinstance(x, QuadExt):
        return x
    return _ext(_as_quartic(x), ZERO, d)
