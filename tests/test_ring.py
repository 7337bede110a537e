"""Exact ring arithmetic, Galois embeddings and the scalar machinery."""

from decimal import Decimal, getcontext
from fractions import Fraction
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quartic.construction import (
    Signedness,
    delta,
    delta1,
    delta2,
    gamma,
    gamma1,
    gamma2,
    signedness,
)
from quartic.errors import UnsignedElement
from quartic.extension import QuadExt
from quartic.ring import (
    BETA,
    ONE,
    ZERO,
    QuarticElem,
    Sign,
    galois,
    power,
    _over,
)
from quartic.verify import field_quantity_N

from dominance_reference import _cmp_rad_base
from matrix_reference import _cmul
from ring_reference import (
    reference_cmp_rad_base,
    reference_field_quantity_N,
    reference_over,
    reference_quadext_sign,
    reference_signedness,
)


def beta_decimal(places: int = 60) -> Decimal:
    """Independent high-precision value of 2^(1/4) via two decimal sqrts."""
    getcontext().prec = places
    return Decimal(2).sqrt().sqrt()


def eval_decimal(x: QuarticElem) -> Decimal:
    b = beta_decimal()
    c = [Decimal(v.numerator) / Decimal(v.denominator) for v in x.coeffs()]
    return c[0] + c[1] * b + c[2] * b * b + c[3] * b * b * b


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
elements = st.builds(QuarticElem, rationals, rationals, rationals, rationals)
int_coeff = st.integers(min_value=-9, max_value=9)
int_elements = st.builds(QuarticElem, int_coeff, int_coeff, int_coeff, int_coeff)
pos_coeff = st.integers(min_value=1, max_value=9)
strictly_positive = st.builds(QuarticElem, pos_coeff, pos_coeff, pos_coeff, pos_coeff)


# ---------------------------------------------------------------------------
# arithmetic


def test_difference_of_squares():
    assert QuarticElem(1, 1) * QuarticElem(1, -1) == QuarticElem(1, 0, -1, 0)


def test_inverse_of_beta():
    assert BETA.inv() == QuarticElem(0, 0, 0, Fraction(1, 2))


def test_unit_product():
    assert QuarticElem(3, 0, 2, 0) * QuarticElem(3, 0, -2, 0) == ONE


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.truediv,
                                operator.lt, operator.le, operator.gt,
                                operator.ge])
@pytest.mark.parametrize("other", ["x", 1.5, None])
def test_unsupported_operand_raises_type_error(op, other):
    """An operand that is not an int, Fraction or QuarticElem gets Python's
    own TypeError, naming its type when the element comes first."""
    with pytest.raises(TypeError, match=f"'{type(other).__name__}'"):
        op(ONE, other)
    with pytest.raises(TypeError):
        op(other, ONE)


@given(elements, elements, elements)
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements)
def test_mul_inverse(x):
    if not x.is_zero():
        assert x * x.inv() == ONE


@given(elements, st.integers(min_value=1, max_value=9))
def test_power_matches_repeated_product(x, n):
    expected = ONE
    for _ in range(n):
        expected = expected * x
    assert power(x, n) == expected


@given(elements, elements)
def test_mul_commutative_and_distributive(x, y):
    assert x * y == y * x
    assert x * (y + ONE) == x * y + x


# ---------------------------------------------------------------------------
# galois embeddings


def test_galois_identity_map():
    x = QuarticElem(5, -3, 1, -2)
    assert galois(x, 0) == (x, ZERO)


def test_galois_q_trace():
    assert galois(QuarticElem(3, 0, 2, 0), 1) == (QuarticElem(3, 0, -2, 0),
                                                  ZERO)


def test_galois_p_trace():
    # im = -(3 - 2 sqrt2)
    assert galois(QuarticElem(5, -3, 1, -2), 1) == (QuarticElem(5, 0, -1, 0),
                                                    QuarticElem(-3, 0, 2, 0))


def test_galois_conjugate_pair():
    x = QuarticElem(2, 7, -1, 3)
    (r1, s1), (r3, s3) = galois(x, 1), galois(x, 3)
    assert r1 == r3 and s1 == -s3


@given(elements, elements, st.integers(min_value=0, max_value=3))
def test_galois_is_ring_homomorphism(x, y, k):
    gx, gy = galois(x, k), galois(y, k)
    assert galois(x * y, k) == _cmul(gx, gy)
    assert galois(x + y, k) == (gx[0] + gy[0], gx[1] + gy[1])


def test_galois_homomorphism_bulk(rng):
    for _ in range(1000):
        x = QuarticElem(*(rng.randint(-9, 9) for _ in range(4)))
        y = QuarticElem(*(rng.randint(-9, 9) for _ in range(4)))
        k = rng.randrange(4)
        assert galois(x * y, k) == _cmul(galois(x, k), galois(y, k))


def test_norm_oracle_bulk(rng):
    nonzero = 0
    for _ in range(1000):
        x = QuarticElem(*(rng.randint(-9, 9) for _ in range(4)))
        v = field_quantity_N(x)
        if not x.is_zero():
            nonzero += 1
            assert v >= 1
    assert nonzero > 990


# ---------------------------------------------------------------------------
# sign determination


def test_sign_zero():
    assert ZERO.sign() == Sign.ZERO


def test_sign_against_decimal_oracle():
    cases = [QuarticElem(-13, 0, 12, 0), QuarticElem(5, -3, 1, -2),
             QuarticElem(0, 1, 0, -1), QuarticElem(1, -1, 1, -1)]
    for x in cases:
        val = eval_decimal(x)
        assert abs(val) > Decimal("1e-40")
        expect = Sign.POSITIVE if val > 0 else Sign.NEGATIVE
        assert x.sign() == expect


@given(elements)
def test_sign_zero_iff_symbolically_zero(x):
    assert (x.sign() == Sign.ZERO) == x.is_zero()


@given(elements, st.one_of(st.just(ZERO), elements), elements,
       st.sampled_from(["any", "square", "zero"]))
def test_surd_sign_matches_the_quadext_reference(a, b, s, case):
    """a + b sqrt(d) for any a, b and d >= 0; for a square d = s^2 also with
    a = -b s, where the value vanishes with both parts nonzero."""
    d = s * s if case != "any" else s * s + s.abs()
    if case == "zero":
        a = -b * s
    x = QuadExt(a, b, d)
    assert x.sign() == reference_quadext_sign(x)
    if case == "zero":
        assert x.sign() == Sign.ZERO


@given(elements, elements, elements,
       st.sampled_from(["any", "square", "zero"]))
def test_surd_sign_orders_a_radical_against_a_base_value(a, s, base, case):
    """(a + sqrt w)/2 - base for any w >= 0, and for w = s^2 also where
    sqrt w = 2 base - a exactly."""
    w = s * s if case != "any" else s * s + s.abs()
    if case == "zero":
        a = 2 * base - s.abs()
    assert _cmp_rad_base((a, w), base) == reference_cmp_rad_base((a, w), base)
    if case == "zero":
        assert _cmp_rad_base((a, w), base) == Sign.ZERO


@given(elements, st.one_of(st.just(ZERO), elements), elements, elements,
       elements, st.booleans())
def test_quadext_product_with_a_base_field_operand(a, b, c, r, s, left):
    """(a + b sqrt(d)) * c takes the two-product path; it equals the general
    formula (a c + b 0 d) + (a 0 + b c) sqrt(d), on the d ``_common_d``
    picks, with the same sign, in either order and with b zero or not."""
    x = QuadExt(a, b, r * r)
    y = QuadExt.of_base(c, s * s)
    prod = x * y if left else y * x
    first, second = (x, y) if left else (y, x)
    d = first._common_d(second)
    general = QuadExt(a * c + b * ZERO * d, a * ZERO + b * c, d)
    assert (prod.a, prod.b, prod.d) == (general.a, general.b, d)
    assert prod.sign() == general.sign()


# ---------------------------------------------------------------------------
# conjugate-norm quantity


def test_norm_examples():
    assert field_quantity_N(ZERO) == 0
    assert field_quantity_N(BETA) == 2
    assert field_quantity_N(QuarticElem(1, 1)) == 1


@given(int_elements)
def test_norm_formula_vs_conjugate_product(x):
    # the function computes both routes and raises on mismatch
    v = field_quantity_N(x)
    if not x.is_zero():
        assert v >= 1


@given(st.one_of(elements, int_elements))
def test_norm_matches_the_fraction_reference(x):
    v = field_quantity_N(x)
    assert type(v) is Fraction and v == reference_field_quantity_N(x)


# a coordinate as the public constructor takes it: an int or a Fraction
coordinates = st.one_of(int_coeff, rationals)


@given(st.lists(coordinates, min_size=4, max_size=4))
def test_coercion_matches_the_fraction_reference(xs):
    assert _over(xs) == reference_over(xs)
    x = QuarticElem(*xs)
    assert (x._c, x._d) == reference_over(xs)


# ---------------------------------------------------------------------------
# signedness and the gamma/delta split


@given(st.one_of(elements, int_elements, st.just(ZERO)))
def test_signedness_matches_the_fraction_reference(x):
    assert signedness(x) == reference_signedness(x)


def test_signedness_examples():
    assert signedness(QuarticElem(1, 1)) == Signedness.POSITIVE
    assert signedness(QuarticElem(-1, 0, 0, -1)) == Signedness.NEGATIVE
    assert signedness(QuarticElem(1, -1)) == Signedness.UNSIGNED
    assert signedness(ZERO) == Signedness.UNSIGNED


def test_gamma_all_ones():
    x = QuarticElem(1, 1, 1, 1)
    assert gamma(x) == QuarticElem(4)
    assert delta(x) == QuarticElem(-3, 1, 1, 1)


def test_gamma_odd_extension():
    x = QuarticElem(1, 1, 1, 1)
    assert gamma(-x) == QuarticElem(-4)


def test_gamma1_choice_decided_exactly():
    # min{2, 3 b^2} = 2 because 3 sqrt2 > 2, so gamma1 = 4
    x = QuarticElem(2, 1, 3, 1)
    assert gamma1(x) == QuarticElem(4)


def test_gamma_mixed_sign_raises():
    with pytest.raises(UnsignedElement):
        gamma(QuarticElem(1, -1))


def test_gamma_of_zero_is_zero():
    assert gamma(ZERO) == ZERO
    assert delta1(ZERO) == ZERO and delta2(ZERO) == ZERO


@given(strictly_positive)
def test_decomposition_identity(x):
    assert gamma(x) + delta(x) == x
    assert gamma1(x) + delta1(x) + gamma2(x) + delta2(x) == x
    assert signedness(gamma(x)) == signedness(x)


@given(st.builds(QuarticElem, int_coeff, int_coeff, int_coeff, int_coeff))
def test_decomposition_identity_signed(x):
    if signedness(x) == Signedness.UNSIGNED:
        return
    assert gamma(x) + delta(x) == x
    assert gamma1(x) + delta1(x) + gamma2(x) + delta2(x) == x


@given(strictly_positive, strictly_positive, st.booleans(), st.booleans())
def test_delta_submultiplicative_on_signed_pairs(x, y, flip_x, flip_y):
    if flip_x:
        x = -x
    if flip_y:
        y = -y
    assert not (delta(x) * delta(y)).abs() < delta(x * y).abs(), (
        f"|delta(xy)| > |delta(x) delta(y)| at x = {x.to_text()}, "
        f"y = {y.to_text()}")


def test_text_roundtrip():
    x = QuarticElem(5, -3, Fraction(1, 3), -2)
    assert QuarticElem.parse(x.to_text()) == x
    with pytest.raises(ValueError):
        QuarticElem.parse("1 2 3")
