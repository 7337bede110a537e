"""Differential test of the integer-backed Q(beta) kernel.

The reference below is deliberately naive: Fraction 4-tuples, schoolbook
products folded by beta^4 = 2, inverses by Gaussian elimination on the
multiplication matrix, and signs from a 150-digit Decimal evaluation.
Every kernel operation must agree with it, on inputs that mix integral and
non-integral coefficients, on elements of the even subring Q(sqrt2), on
results that cancel back to denominator 1, and on values small enough to
force the sign refinement past 64 bits.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

from hypothesis import given
from hypothesis import strategies as st

from quartic.intervals import (
    DEFAULT_BITS,
    FILTER_BITS,
    dyadic_bounds,
    filter_bounds,
    quartic_bounds,
)
from quartic.linalg import (
    RingMat2,
    compare_enclosed,
    enclosed,
    entry_exceeds,
    view_dist4,
    view_norm4,
)
from quartic.ring import QuarticElem, Sign, galois, sign4

from matrix_reference import entry_dist_sq

ZERO4 = (Fraction(0),) * 4


# ---------------------------------------------------------------------------
# reference arithmetic on Fraction tuples


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def ref_mul(a, b):
    out = [Fraction(0)] * 4
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            out[k % 4] += x * y * (2 if k >= 4 else 1)
    return tuple(out)


def ref_inv(a):
    """Solve a * y = 1 through the 4x4 matrix of multiplication by a."""
    basis = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    cols = [ref_mul(a, e) for e in basis]
    m = [[cols[j][i] for j in range(4)] + [Fraction(int(i == 0))] for i in range(4)]
    for col in range(4):
        piv = next(r for r in range(col, 4) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(4):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][4] for i in range(4))


def ref_pow(a, n):
    if n < 0:
        a, n = ref_inv(a), -n
    out = (Fraction(1),) + ZERO4[1:]
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_sign(a) -> int:
    with localcontext() as ctx:
        ctx.prec = 150
        beta = Decimal(2).sqrt().sqrt()
        v = sum(Decimal(c.numerator) / Decimal(c.denominator) * beta ** i
                for i, c in enumerate(a))
    return (v > 0) - (v < 0)


# i^n as (re, im) for n mod 4
_UNIT = ((1, 0), (0, 1), (-1, 0), (0, -1))


def ref_galois(a, k):
    """(re, im_scale) with sigma_k(a) = re + beta * im_scale * i, from
    sigma_k(beta^j) = i^(jk) beta^j."""
    re = tuple(c * _UNIT[(j * k) % 4][0] for j, c in enumerate(a))
    # the imaginary part lives on beta and beta^3 = beta * sqrt2
    im = (a[1] * _UNIT[k % 4][1], a[3] * _UNIT[(3 * k) % 4][1])
    return re, im


def quad_as4(p):
    return (p[0], Fraction(0), p[1], Fraction(0))


def elem(t) -> QuarticElem:
    """Integral coefficients go in as ints, the others as Fractions."""
    return QuarticElem(*(int(c) if c.denominator == 1 else c for c in t))


def text_of(t) -> str:
    return " ".join(str(c) for c in t)


# ---------------------------------------------------------------------------
# inputs

ints = st.integers(min_value=-60, max_value=60).map(Fraction)
rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coeff = st.one_of(ints, rats)
vec = st.tuples(coeff, coeff, coeff, coeff)
int_vec = st.tuples(ints, ints, ints, ints)
# Q(sqrt2): no beta or beta^3 part
even_vec = st.tuples(coeff, st.just(Fraction(0)), coeff, st.just(Fraction(0)))
UNIT_SMALL = (Fraction(-1), Fraction(1), Fraction(0), Fraction(0))   # beta - 1


@st.composite
def tiny(draw):
    """A rational multiple of (beta - 1)^n: |value| < 0.19^n, so large n
    needs more than 64 bits to separate it from zero."""
    n = draw(st.integers(min_value=0, max_value=40))
    scale = draw(rats.filter(bool))
    return tuple(scale * c for c in ref_pow(UNIT_SMALL, n))


any_vec = st.one_of(vec, int_vec, even_vec, tiny())


def assert_same(x: QuarticElem, t):
    assert x.coeffs() == t
    assert x.to_text() == text_of(t)
    assert hash(x) == hash(t)
    assert x == elem(t) == QuarticElem(*t) == QuarticElem(*map(str, t))
    assert x.is_integral() == all(c.denominator == 1 for c in t)


# ---------------------------------------------------------------------------
# Q(beta)


@given(any_vec, any_vec)
def test_ring_ops_match_reference(a, b):
    x, y = elem(a), elem(b)
    assert_same(x, a)
    assert_same(x + y, ref_add(a, b))
    assert_same(x - y, ref_add(a, ref_neg(b)))
    assert_same(-x, ref_neg(a))
    assert_same(x * y, ref_mul(a, b))
    assert (x == y) == (a == b)


@given(any_vec, st.integers(min_value=-3, max_value=6))
def test_inverse_and_power_match_reference(a, n):
    x = elem(a)
    if any(a):
        assert_same(x.inv(), ref_inv(a))
        assert_same(x ** n, ref_pow(a, n))
    elif n >= 0:
        assert_same(x ** n, ref_pow(a, n))


@given(any_vec)
def test_sign_matches_decimal_oracle(a):
    assert int(elem(a).sign()) == ref_sign(a)


@given(any_vec, any_vec)
def test_sign_of_difference_matches_oracle(a, b):
    assert int((elem(a) - elem(b)).sign()) == ref_sign(ref_add(a, ref_neg(b)))


def test_sign_escalates_beyond_default_bits():
    t = ref_pow(UNIT_SMALL, 40)
    c0, c1, c2, c3 = (int(c) for c in t)
    lo, hi = dyadic_bounds(c0, (c1, c2, c3), quartic_bounds, DEFAULT_BITS)
    assert lo <= 0 <= hi            # 64 bits cannot decide it
    assert elem(t).sign() == Sign.POSITIVE
    assert elem(ref_neg(t)).sign() == Sign.NEGATIVE


@given(st.one_of(vec, even_vec), int_vec)
def test_cancellation_returns_to_denominator_one(a, k):
    x = elem(a)
    y = elem(ref_add(k, ref_neg(a)))            # k - a, integral sum
    assert_same(x + y, k)
    assert_same(x - (x - elem(k)), k)
    m = lcm(*(c.denominator for c in a))
    assert_same(x * m, tuple(c * m for c in a))
    assert_same(x * Fraction(1, m) * m, a)


@given(any_vec)
def test_text_roundtrip(a):
    x = elem(a)
    assert QuarticElem.parse(x.to_text()) == x
    assert hash(QuarticElem.parse(x.to_text())) == hash(a)


@given(any_vec, st.integers(min_value=0, max_value=3))
def test_galois_matches_reference(a, k):
    z = galois(elem(a), k)
    re, im = ref_galois(a, k)
    assert_same(z.re, re)
    assert (z.im_scale.q0, z.im_scale.q2) == im
    assert z.im_scale.in_even_subring()
    # |z|^2 = re^2 + sqrt2 * im_scale^2, with the square taken in Q(beta)
    sqrt2 = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    im4 = quad_as4(im)
    assert_same(z.abs2(), ref_add(ref_mul(re, re),
                                  ref_mul(sqrt2, ref_mul(im4, im4))))


# ---------------------------------------------------------------------------
# the integral word kernel: closed-form view distances, filtered comparisons

big = st.integers(min_value=-2 ** 200, max_value=2 ** 200)
big_vec = st.tuples(big, big, big, big)


@st.composite
def tiny_int(draw):
    """An integer multiple of (beta - 1)^n, so close to zero that 64 bits
    and the filter's enclosures cannot separate it from zero for large n."""
    n = draw(st.integers(min_value=0, max_value=40))
    scale = draw(st.integers(min_value=-9, max_value=9).filter(bool))
    return tuple(scale * int(c) for c in ref_pow(UNIT_SMALL, n))


int4 = st.one_of(int_vec.map(lambda t: tuple(map(int, t))), big_vec,
                 tiny_int())


@st.composite
def near_pair(draw):
    """Two int 4-tuples that are equal, negatives, or a tiny step apart."""
    a = draw(int4)
    b = draw(st.sampled_from(["same", "neg", "step", "free"]))
    if b == "same":
        return a, a
    if b == "neg":
        return a, tuple(-c for c in a)
    if b == "step":
        return a, tuple(x + y for x, y in zip(a, draw(tiny_int())))
    return a, draw(int4)


def encloses(lo, hi, t) -> bool:
    scaled = [c << FILTER_BITS for c in t]
    return (sign4((scaled[0] - lo, *scaled[1:])) >= 0
            and sign4((scaled[0] - hi, *scaled[1:])) <= 0)


@given(int4)
def test_filter_bounds_are_narrow_at_any_size(t):
    lo, hi = filter_bounds(t[0], t[1:], quartic_bounds)
    assert encloses(lo, hi, t)
    assert hi - lo <= 5


@given(near_pair(), near_pair(), st.integers(min_value=0, max_value=3))
def test_view_dist4_matches_entry_dist_sq(p1, p2, k):
    xs = [*p1, *p2]
    lo, hi, t = view_dist4(xs, k)
    zero = RingMat2(0, 0, 0, 0)
    mat = RingMat2(*(QuarticElem(*x) for x in xs))
    assert QuarticElem(*t) == entry_dist_sq(mat, zero, k)
    assert encloses(lo, hi, t)


@given(near_pair(), near_pair(), st.integers(min_value=0, max_value=3))
def test_view_norm4_matches_galois(p1, p2, k):
    """The squared Frobenius norm in view k is the sum of |sigma_k(x)|^2
    over the entries, enclosed."""
    xs = [*p1, *p2]
    lo, hi, t = view_norm4(xs, k)
    want = QuarticElem(0)
    for x in xs:
        e = galois(QuarticElem(*x), k)
        want += e.re * e.re if e.is_real() else e.abs2()
    assert QuarticElem(*t) == want
    assert encloses(lo, hi, t)


@given(near_pair(), near_pair(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=-6, max_value=6))
def test_entry_exceeds_only_on_proof(p1, p2, k, step):
    """True only when the view distance t satisfies t * 2^FILTER_BITS > bound
    exactly, for bounds at and around the enclosure's ends; a bound far
    below a distance that is not tiny is always rejected."""
    xs = [*p1, *p2]
    lo, hi, t = view_dist4(xs, k)
    scaled = [c << FILTER_BITS for c in t]
    for bound in (lo + step, hi + step, lo - 1, hi):
        if entry_exceeds(xs, k, bound):
            assert sign4((scaled[0] - bound, *scaled[1:])) > 0
    assert not entry_exceeds(xs, k, hi)
    if lo >= 1 << 20:
        assert entry_exceeds(xs, k, lo // 2)


@given(near_pair())
def test_compare_enclosed_is_exact(p):
    a, b = p
    for x, y in ((a, b), (b, a), (a, a)):
        want = ref_sign(tuple(Fraction(u - v) for u, v in zip(x, y)))
        assert compare_enclosed(enclosed(x), enclosed(y)) == want


def test_view_dist4_orders_entries_closer_than_the_filter():
    """Two entries whose moduli differ by less than the enclosures resolve:
    the larger must win in either order and with either sign, and the
    exact sign decides it."""
    step = tuple(int(c) for c in ref_pow(UNIT_SMALL, 30))    # ~ 2e-22 > 0
    x = (7 * 10 ** 30, -5 * 10 ** 30, 3 * 10 ** 30, 2 * 10 ** 30)
    y = tuple(a + b for a, b in zip(x, step))
    neg_x, neg_y = tuple(-c for c in x), tuple(-c for c in y)
    zero = (0, 0, 0, 0)
    for xs in ([x, y, zero, zero], [y, x, zero, zero],
               [zero, neg_x, zero, y], [zero, neg_y, zero, x],
               [x, neg_y, zero, zero]):
        assert view_dist4(xs, 0)[2] == tuple(map(int, ref_mul(y, y)))
