"""Differential test of RingMat2 against the QuarticElem-entry reference.

Every matrix is built twice from the same four entries: as a ``RingMat2``
(one reduced int 4-tuple matrix over one denominator) and as a
``RefMat2`` (four ``QuarticElem`` fields).  Products, powers, inverses,
determinants, traces, the scalar tests, the real view, the entries,
equality and hashing must agree, on integral entries and on entries with
mixed denominators, and every result must stay reduced.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quartic.errors import SingularMatrix
from quartic.linalg import RingMat2
from quartic.ring import QuarticElem

from matrix_reference import RefMat2

integral = st.builds(QuarticElem, *[st.integers(-5, 5)] * 4)
fractional = st.builds(
    QuarticElem,
    *[st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))] * 4)
rational = st.builds(QuarticElem,
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)))


@st.composite
def entry_lists(draw, elems):
    """Four entries: a general matrix most of the time, else a diagonal one,
    scalar half of the time (identity and minus identity among them)."""
    if draw(st.integers(0, 3)):
        return [draw(elems) for _ in range(4)]
    s = draw(st.sampled_from([QuarticElem(1), QuarticElem(-1),
                              draw(rational), draw(elems)]))
    t = s if draw(st.booleans()) else draw(elems)
    return [s, QuarticElem(0), QuarticElem(0), t]


matrices = st.one_of(entry_lists(integral), entry_lists(fractional))


def pair(es):
    return RingMat2(*es), RefMat2(*es)


def assert_same(a: RingMat2, r: RefMat2):
    """Same entries (equal QuarticElems have equal storage) and a reduced
    int matrix."""
    assert a.entries() == r.entries()
    assert (a.e11, a.e12, a.e21, a.e22) == r.entries()
    assert gcd(a._d, *(c for e in a._m for c in e)) == 1


@given(matrices, matrices)
def test_products_and_scalar_data_match(xs, ys):
    (a, r), (b, s) = pair(xs), pair(ys)
    assert_same(a, r)
    assert_same(a * b, r * s)
    assert a.det() == r.det()
    assert a.trace() == r.trace()
    assert a.is_identity() == r.is_identity()
    assert a.is_neg_identity() == r.is_neg_identity()
    assert a.is_scalar() == r.is_scalar()
    assert_same(a.real_view(2), r.real_view(2))
    assert a.real_view(0) == a


@given(matrices, st.integers(-9, 9))
def test_inverse_and_powers_match(xs, n):
    a, r = pair(xs)
    if r.det().is_zero():
        with pytest.raises(SingularMatrix):
            a.inv()
        return
    assert_same(a.inv(), r.inv())
    assert_same(a ** n, r ** n)
    assert (a * a.inv()).is_identity()


@given(matrices, matrices)
def test_equality_and_hash_match(xs, ys):
    (a, r), (b, s) = pair(xs), pair(ys)
    assert (a == b) == (r == s)
    # the same value reached by a product has the same storage and hash
    again = RingMat2(*(r * s).entries())
    assert again == a * b
    assert hash(again) == hash(a * b)
    assert RingMat2.parse(a.to_text()) == a
