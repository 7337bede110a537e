"""The small cubic-ring layer behind the rank-6 representation."""

from decimal import Decimal, getcontext
from fractions import Fraction
from math import lcm

import pytest

from quartic.cubic import CubicElem, CubicMat2
from quartic.intervals import DEFAULT_BITS, cubic_bounds, dyadic_bounds, dyadic_sign


def cbrt2_decimal(places: int = 50) -> Decimal:
    getcontext().prec = places
    # Newton iteration for 2^(1/3) in Decimal
    x = Decimal("1.26")
    for _ in range(60):
        x = (2 * x + Decimal(2) / (x * x)) / 3
    return x


def test_cubic_reduction():
    alpha = CubicElem(0, 1, 0)
    assert alpha * alpha == CubicElem(0, 0, 1)
    assert alpha * alpha * alpha == CubicElem(2, 0, 0)


def test_cubic_sign_against_decimal():
    a = cbrt2_decimal()
    cases = [CubicElem(-5, 4, 0), CubicElem(1, 1, -2), CubicElem(-3, 0, 2)]
    for x in cases:
        val = (Decimal(int(x.c0)) + Decimal(int(x.c1)) * a
               + Decimal(int(x.c2)) * a * a)
        assert abs(val) > Decimal("1e-30")
        assert x.sign() == (1 if val > 0 else -1)
    assert CubicElem(0, 0, 0).sign() == 0


def test_cubic_sign_uses_shared_helper_past_default_bits():
    """Powers of the unit 2^(1/3) - 1 (about 0.26) shrink until 64 bits no
    longer decide them; the shared dyadic helper must then refine."""
    a = cbrt2_decimal(120)
    unit = CubicElem(-1, 1, 0)
    x = CubicElem(1)
    escalated = 0
    for n in range(1, 41):
        x = x * unit
        for y in (x, x * Fraction(-3, 7)):
            den = lcm(*(c.denominator for c in y.coeffs()))
            n0, n1, n2 = (int(c * den) for c in y.coeffs())
            val = Decimal(n0) + Decimal(n1) * a + Decimal(n2) * a * a
            assert y.sign() == dyadic_sign(n0, (n1, n2), cubic_bounds)
            assert y.sign() == (1 if val > 0 else -1)
            lo, hi = dyadic_bounds(n0, (n1, n2), cubic_bounds, DEFAULT_BITS)
            escalated += lo <= 0 <= hi
    assert escalated > 0


def test_cubic_parse_roundtrip():
    x = CubicElem(1, -2, 3)
    assert CubicElem.parse(x.to_text()) == x
    with pytest.raises(ValueError):
        CubicElem.parse("1 2")


def test_cubic_matrix_det():
    e1 = CubicMat2(CubicElem(1), CubicElem(2, 1, 0), CubicElem(0), CubicElem(1))
    e2 = CubicMat2(CubicElem(1), CubicElem(0), CubicElem(0, 0, 3), CubicElem(1))
    assert (e1 * e2).det() == CubicElem(1)
