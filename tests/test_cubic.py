"""The small cubic-ring layer behind the rank-6 representation.

``CubicElem`` holds reduced ints over one denominator; the hypothesis tests
below check it against a naive reference on Fraction 3-tuples, with signs
from a Decimal evaluation of 2^(1/3).
"""

from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# the int kernel against a Fraction 3-tuple reference


def ref_mul3(a, b):
    out = [Fraction(0)] * 3
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            out[k % 3] += x * y * (2 if k >= 3 else 1)
    return tuple(out)


def ref_sign3(a) -> int:
    with localcontext() as ctx:
        ctx.prec = 150
        r = Decimal(2) ** (Decimal(1) / Decimal(3))
        v = sum(Decimal(c.numerator) / Decimal(c.denominator) * r ** i
                for i, c in enumerate(a))
    return (v > 0) - (v < 0)


def cubic(t) -> CubicElem:
    """Integral coefficients go in as ints, the others as Fractions."""
    return CubicElem(*(int(c) if c.denominator == 1 else c for c in t))


ints3 = st.integers(min_value=-60, max_value=60).map(Fraction)
rats3 = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coeff3 = st.one_of(ints3, rats3)
int_vec3 = st.tuples(ints3, ints3, ints3)
UNIT3 = (Fraction(-1), Fraction(1), Fraction(0))      # 2^(1/3) - 1


@st.composite
def tiny3(draw):
    """A rational multiple of (2^(1/3) - 1)^n, below 0.26^n in size."""
    n = draw(st.integers(min_value=0, max_value=40))
    scale = draw(rats3.filter(bool))
    out = (Fraction(1), Fraction(0), Fraction(0))
    for _ in range(n):
        out = ref_mul3(out, UNIT3)
    return tuple(scale * c for c in out)


vec3 = st.one_of(st.tuples(coeff3, coeff3, coeff3), int_vec3, tiny3())


def assert_same3(x: CubicElem, t):
    assert x.coeffs() == t
    assert (x.c0, x.c1, x.c2) == t
    assert x.to_text() == " ".join(str(c) for c in t)
    assert hash(x) == hash(t)
    assert x == cubic(t) == CubicElem(*t) == CubicElem(*map(str, t))
    assert x.is_integral() == all(c.denominator == 1 for c in t)
    assert x.is_zero() == (not any(t))


@given(vec3, vec3)
def test_cubic_ops_match_reference(a, b):
    x, y = cubic(a), cubic(b)
    assert_same3(x, a)
    assert_same3(x + y, tuple(u + v for u, v in zip(a, b)))
    assert_same3(x - y, tuple(u - v for u, v in zip(a, b)))
    assert_same3(-x, tuple(-u for u in a))
    assert_same3(x * y, ref_mul3(a, b))
    assert (x == y) == (a == b)


@given(vec3, st.one_of(st.integers(-9, 9), rats3))
def test_cubic_scalar_product_matches_reference(a, c):
    assert_same3(cubic(a) * c, tuple(u * c for u in a))
    assert_same3(c * cubic(a), tuple(u * c for u in a))


@given(vec3)
def test_cubic_text_roundtrip(a):
    x = cubic(a)
    y = CubicElem.parse(x.to_text())
    assert y == x
    assert y.to_text() == x.to_text()
    assert hash(y) == hash(a)


@given(vec3, vec3)
def test_cubic_sign_matches_decimal_oracle(a, b):
    assert cubic(a).sign() == ref_sign3(a)
    diff = tuple(u - v for u, v in zip(a, b))
    assert (cubic(a) - cubic(b)).sign() == ref_sign3(diff)


@given(st.tuples(coeff3, coeff3, coeff3), int_vec3)
def test_cubic_cancellation_returns_to_denominator_one(a, k):
    x = cubic(a)
    y = cubic(tuple(u - v for u, v in zip(k, a)))       # k - a
    assert_same3(x + y, k)
    assert (x + y).is_integral()
    assert_same3(x - (x - cubic(k)), k)
    m = lcm(*(c.denominator for c in a))
    assert_same3(x * m, tuple(c * m for c in a))
    assert_same3(x * Fraction(1, m) * m, a)
