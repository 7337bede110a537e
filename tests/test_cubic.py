"""The small cubic-ring layer behind the rank-6 representation.

``CubicElem`` holds ints over one denominator; the hypothesis tests below
check its sums and products against a naive reference on Fraction
3-tuples.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quartic.cubic import CubicElem, CubicMat2
from quartic.regular import regular_rep


def test_cubic_reduction():
    alpha = CubicElem(0, 1, 0)
    assert (alpha * alpha).coeffs() == (0, 0, 1)
    assert (alpha * alpha * alpha).coeffs() == (2, 0, 0)


def test_cubic_parse_roundtrip():
    x = CubicElem(1, -2, Fraction(3, 4))
    assert CubicElem.parse(x.to_text()).int_coeffs() == x.int_coeffs()
    with pytest.raises(ValueError):
        CubicElem.parse("1 2")


def test_cubic_matrix_det():
    """Unimodular factors give a unimodular product, whose rank-6 image
    has determinant one."""
    e1 = CubicMat2(CubicElem(1), CubicElem(2, 1, 0), CubicElem(0), CubicElem(1))
    e2 = CubicMat2(CubicElem(1), CubicElem(0), CubicElem(0, 0, 3), CubicElem(1))
    prod = e1 * e2
    assert prod.to_text() == "7 0 6; 2 1 0; 0 0 3; 1 0 0"
    assert regular_rep(prod, 3).det() == 1


# ---------------------------------------------------------------------------
# the int kernel against a Fraction 3-tuple reference


def ref_mul3(a, b):
    out = [Fraction(0)] * 3
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            out[k % 3] += x * y * (2 if k >= 3 else 1)
    return tuple(out)


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


@given(vec3, vec3)
def test_cubic_ops_match_reference(a, b):
    x, y = cubic(a), cubic(b)
    assert_same3(x, a)
    assert x.int_coeffs() == CubicElem(*a).int_coeffs()
    assert_same3(x + y, tuple(u + v for u, v in zip(a, b)))
    assert_same3(x * y, ref_mul3(a, b))


@given(vec3)
def test_cubic_text_roundtrip(a):
    x = cubic(a)
    y = CubicElem.parse(x.to_text())
    assert y.int_coeffs() == x.int_coeffs()
    assert y.to_text() == x.to_text()


@given(int_vec3, int_vec3)
def test_cubic_integral_values_stay_over_one(a, b):
    x, y = cubic(a), cubic(b)
    assert (x + y).int_coeffs()[1] == (x * y).int_coeffs()[1] == 1
