"""Int enclosures (lo, hi, scale) against the Fraction reference, and the
decimal strings the reports print."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from quartic.extension import QuadExt
from quartic.intervals import enc_add, enc_div, enc_mul, enc_sqrt
from quartic.margin import nonneg_interval, sqrt_of_square_interval
from quartic.eigen import _proj_dist_intervals
from quartic.report import format_endpoint, interval_json
from quartic.ring import QuarticElem

from interval_reference import Interval

# interval_json of (lo, hi, scale), recorded from the Fraction `Interval`
# before enclosures became int triples: an exact dyadic, negative ends,
# values in (-10^-12, 0) and (0, 10^-12), a 12th-place carry and thirds
INTERVAL_JSON_GOLDEN = [
    ((3, 5, 4), ["0.750000000000", "1.250000000000"]),
    ((-7, -3, 8), ["-0.875000000000", "-0.375000000000"]),
    ((-1, 0, 10 ** 13), ["-0.000000000001", "0.000000000000"]),
    ((-1, 1, 3 * 10 ** 12), ["-0.000000000001", "0.000000000001"]),
    ((9999999999995, 9999999999995, 10 ** 13),
     ["0.999999999999", "1.000000000000"]),
    ((19999999999999, 19999999999999, 2 * 10 ** 13),
     ["0.999999999999", "1.000000000000"]),
    ((1, 2, 3), ["0.333333333333", "0.666666666667"]),
    ((-2, -1, 3), ["-0.666666666667", "-0.333333333333"]),
    ((-5, 7, 3), ["-1.666666666667", "2.333333333334"]),
    ((0, 0, 1), ["0.000000000000", "0.000000000000"]),
    ((1, 1, 1 << 64), ["0.000000000000", "0.000000000001"]),
    ((-1, -1, 1 << 64), ["-0.000000000001", "0.000000000000"]),
    ((2, 1000000000001, 3 * 10 ** 12), ["0.000000000000", "0.333333333334"]),
]


@pytest.mark.parametrize("enc, strings", INTERVAL_JSON_GOLDEN,
                         ids=[str(i) for i in range(len(INTERVAL_JSON_GOLDEN))])
def test_interval_json_matches_golden(enc, strings):
    assert interval_json(enc) == strings


ends = st.integers(min_value=-(10 ** 30), max_value=10 ** 30) | st.sampled_from(
    [0, 1, -1])
# powers of two, as the roots and square roots give, and scales with odd
# factors, as denominators of rational targets and products give
scales = (st.integers(min_value=0, max_value=80).map(lambda k: 1 << k)
          | st.integers(min_value=1, max_value=10 ** 18))


@st.composite
def enclosures(draw, nonneg=False):
    lo, hi = sorted((draw(ends), draw(ends)))
    if nonneg:
        lo, hi = sorted((abs(lo), abs(hi)))
    return lo, hi, draw(scales)


def same(enc, ref: Interval) -> bool:
    return Interval.of(enc).ends() == ref.ends()


@given(enclosures(), enclosures())
def test_add_and_sub_match_reference(x, y):
    assert same(enc_add(x, y), Interval.of(x) + Interval.of(y))
    lo, hi, s = y
    assert same(enc_add(x, (-hi, -lo, s)), Interval.of(x) - Interval.of(y))


@given(enclosures(), enclosures())
def test_mul_matches_reference(x, y):
    assert same(enc_mul(x, y), Interval.of(x) * Interval.of(y))


@given(enclosures(nonneg=True), enclosures(nonneg=True))
def test_quotient_matches_reference(n, d):
    assume(d[0] > 0)
    assert same(enc_div(n, d), Interval.of(n).quotient(Interval.of(d)))


@given(enclosures(nonneg=True), st.sampled_from([1, 7, 64, 128]))
def test_sqrt_matches_reference_rounding(x, bits):
    got = enc_sqrt(x, bits)
    assert got[2] == 1 << bits
    assert same(got, Interval.of(x).sqrt(bits))


def test_sqrt_rejects_negative_lower_end():
    with pytest.raises(ValueError):
        enc_sqrt((-1, 4, 3))


@given(enclosures(), st.integers(min_value=2, max_value=10 ** 9))
def test_strings_depend_only_on_the_rationals(x, k):
    lo, hi, s = x
    assert interval_json((lo * k, hi * k, s * k)) == interval_json(x)
    f = Fraction(lo, s)
    assert format_endpoint(f.numerator, f.denominator) == format_endpoint(lo, s)


coeffs = st.integers(min_value=-50, max_value=50)
quartic = st.builds(lambda a, b, c, d, den: QuarticElem(
    Fraction(a, den), Fraction(b, den), Fraction(c, den), Fraction(d, den)),
    coeffs, coeffs, coeffs, coeffs, st.integers(min_value=1, max_value=12))


@given(quartic, quartic, st.integers(min_value=0, max_value=4),
       st.sampled_from([16, 64]))
def test_quadext_enclosure_matches_reference(a, b, d, bits):
    d = QuarticElem(d, 1)               # d + beta > 0
    x = QuadExt(a, b, d)
    ref = Interval.of(a.interval(bits))
    if not b.is_zero():
        root = Interval.of(d.interval(bits)).sqrt(bits)
        ref = ref + Interval.of(b.interval(bits)) * root
    assert same(x.interval(bits), ref)


@given(quartic, st.sampled_from([8, 64]))
def test_square_root_of_a_square_matches_reference(x, bits):
    sq = x * x
    b = bits
    ref = Interval.of(sq.interval(b))
    while ref.lo < 0 and b < 1 << 14:
        b *= 2
        ref = Interval.of(sq.interval(b))
    if ref.lo < 0:
        ref = Interval(0, max(0, ref.hi))
    assert same(nonneg_interval(sq, bits), ref)
    assert same(sqrt_of_square_interval(sq, bits), ref.sqrt(bits))


def reference_proj_dist(p: tuple, q: tuple, bits: int) -> Interval:
    """The chordal distance of two points over different extensions, with
    Fraction interval arithmetic throughout."""
    pc = [Interval.of(c.interval(bits)) for c in p]
    qc = [Interval.of(c.interval(bits)) for c in q]
    dot, p2, q2 = pc[0] * qc[0], pc[0] * pc[0], qc[0] * qc[0]
    for i in range(1, len(p)):
        dot = dot + pc[i] * qc[i]
        p2 = p2 + pc[i] * pc[i]
        q2 = q2 + qc[i] * qc[i]
    num = p2 * q2 - dot * dot
    den = p2 * q2
    assert den.lo > 0
    lo = max(Fraction(0), num.lo / den.hi)
    hi = max(Fraction(0), num.hi / den.lo)
    return Interval(lo, min(Fraction(1), hi)).sqrt(bits)


@given(quartic, quartic, quartic, quartic)
def test_mixed_extension_distance_matches_reference(a, b, c, e):
    p = (QuadExt(a, b, QuarticElem(2)), QuadExt(1, c, QuarticElem(3)))
    q = (QuadExt(e, 1, QuarticElem(5)), QuadExt(a, 1, QuarticElem(5)))
    bits = 64
    ref = reference_proj_dist(p, q, bits)
    assert same(_proj_dist_intervals(p, q, bits), ref)
