"""Reference scalar routines, for differential tests of ``quartic.ring`` and
``quartic.extension``.

``reference_over`` coerces every coordinate to a ``Fraction`` before taking
the common denominator; ``reference_field_quantity_N`` and
``reference_signedness`` read the coefficients through ``coeffs()``;
``reference_quadext_sign`` signs a + b sqrt(d) with ``QuarticElem``
arithmetic, and ``reference_cmp_rad_base`` compares (a + sqrt w)/2 with a
base value by squaring.  The ring's and ``extension.surd_sign``'s versions work on the
int numerators and must agree with them.
"""

from fractions import Fraction
from math import lcm

from quartic.errors import InternalMismatch
from quartic.ring import QuarticElem, Sign, Signedness, galois


def reference_over(xs) -> tuple[tuple[int, ...], int]:
    if all(type(x) is int for x in xs):
        return tuple(xs), 1
    fs = [Fraction(x) for x in xs]
    d = lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (d // f.denominator) for f in fs), d


def reference_field_quantity_N(x: QuarticElem) -> Fraction:
    a, m, p, e = x.coeffs()
    u = a * a + 2 * p * p - 4 * m * e
    v = 2 * a * p - m * m - 2 * e * e
    closed = abs(u * u - 2 * v * v)

    prod02 = x * x.conj_even()
    z13 = galois(x, 1) * galois(x, 3)
    if not z13.is_real():
        raise InternalMismatch("sigma1(x) * sigma3(x) should be real")
    full = prod02 * z13.re
    if not full.is_rational():
        raise InternalMismatch("full conjugate product should be rational")
    oracle = abs(full.q0)

    if closed != oracle:
        raise InternalMismatch(
            f"N({x.to_text()}): closed form {closed} != product {oracle}")
    return closed


def reference_signedness(x: QuarticElem) -> Signedness:
    cs = x.coeffs()
    if all(c >= 0 for c in cs) and not x.is_zero():
        return Signedness.POSITIVE
    if all(c <= 0 for c in cs) and not x.is_zero():
        return Signedness.NEGATIVE
    return Signedness.UNSIGNED


def reference_quadext_sign(x) -> Sign:
    """The sign of the ``QuadExt`` x = a + b sqrt(d)."""
    sa = x.a.sign()
    if x.b.is_zero():
        return sa
    sd = x.d.sign()
    if sd == Sign.ZERO:
        return sa
    sb = x.b.sign()
    if sa == Sign.ZERO:
        return sb
    if sa == sb:
        return sa
    t = (x.a * x.a - x.b * x.b * x.d).sign()
    if t == Sign.ZERO:
        return Sign.ZERO
    return sa if t == Sign.POSITIVE else sb


def reference_cmp_rad_base(rad, base: QuarticElem) -> int:
    """The sign of (a + sqrt w)/2 - base for rad = (a, w), w >= 0."""
    a, w = rad
    s = 2 * base - a                      # compare sqrt(w) with s
    if s.sign() != Sign.POSITIVE:
        if s.sign() == Sign.ZERO and w.is_zero():
            return 0
        return 1
    t = (w - s * s).sign()
    return int(t)
