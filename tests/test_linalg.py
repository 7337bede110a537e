"""Matrices, classification, regular representations, eigen data."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic.errors import (
    NotUnimodular,
    ParabolicNotSupported,
    ScalarMatrix,
    SingularMatrix,
    WrongSubring,
)
from quartic.extension import QuadExt
from quartic.eigen import eigen2
from quartic.linalg import MatClass, RingMat2, classify, share_eigenvector
from quartic.cli import _parse_matrix, as_paper_hyperbolic
from quartic.cubic import CubicElem, CubicMat2
from quartic.construction import paper_generators
from quartic.regular import regular_rep
from quartic.ring import ONE, QuarticElem, galois
from quartic.verify import _random_sl2, _random_word_matrix

from matrix_reference import entry_dist_sq
from regular_reference import charpoly_fraction, embedded_charpoly_product
from word_reference import random_word_matrix


P, Q = paper_generators()


# ---------------------------------------------------------------------------
# basic matrix algebra


def test_pow_zero_is_identity():
    assert (P ** 0).is_identity()


def test_q_times_inverse():
    assert (Q * Q.inv()).is_identity()


def test_q_squared_closed_form():
    t = QuarticElem(3, 0, 2, 0)
    expected = RingMat2(t * t - ONE, t, -t, QuarticElem(-1))
    assert Q ** 2 == expected


def test_negative_powers():
    assert Q ** -3 == (Q ** 3).inv()


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrix):
        RingMat2(ONE, ONE, ONE, ONE).inv()


def test_matrix_text_roundtrip():
    assert _parse_matrix(P.to_text()) == P


# ---------------------------------------------------------------------------
# classification


def test_classification_table():
    expected = {
        ("P", 0): MatClass.ELLIPTIC,
        ("P", 1): MatClass.LOXODROMIC,
        ("P", 2): MatClass.HYPERBOLIC,
        ("P", 3): MatClass.LOXODROMIC,
        ("Q", 0): MatClass.HYPERBOLIC,
        ("Q", 1): MatClass.ELLIPTIC,
        ("Q", 2): MatClass.HYPERBOLIC,
        ("Q", 3): MatClass.ELLIPTIC,
    }
    for (name, k), want in expected.items():
        mat = P if name == "P" else Q
        assert classify(mat, k) == want, (name, k)


def test_loxodromic_counts_as_source_hyperbolic():
    assert as_paper_hyperbolic(classify(P, 1))
    assert not as_paper_hyperbolic(classify(P, 0))


def test_classify_requires_det_one():
    with pytest.raises(NotUnimodular):
        classify(RingMat2(QuarticElem(2), QuarticElem(0),
                          QuarticElem(0), QuarticElem(1)), 0)


def test_classify_conjugation_invariant(rng):
    for _ in range(15):
        a = random_word_matrix(rng, P, Q, 4)
        w = random_word_matrix(rng, P, Q, 4)
        conj = w * a * w.inv()
        for k in range(4):
            assert classify(conj, k) == classify(a, k)


def test_trace_commutes_with_embedding(rng):
    for _ in range(15):
        a = random_word_matrix(rng, P, Q, 4)
        for k in range(4):
            t, x, y = (galois(e, k) for e in (a.trace(), a.e11, a.e22))
            assert t == (x[0] + y[0], x[1] + y[1])


# ---------------------------------------------------------------------------
# regular representations


def test_psi_p_first_row():
    rr = regular_rep(P, 4)
    assert [int(c) for c in rr.entries[0]] == [5, -4, 2, -6, 1, 0, 0, 0]


IDENTITY_8 = [[int(i == j) for j in range(8)] for i in range(8)]


def test_psi_identity():
    rr = regular_rep(RingMat2.identity(), 4)
    assert rr.to_int_grid() == IDENTITY_8 and rr.den == 1


def test_psi_inverse_product():
    rr = regular_rep(Q, 4) * regular_rep(Q.inv(), 4)
    assert rr.to_int_grid() == IDENTITY_8 and rr.den == 1


def test_psi_q_row_four_computed():
    rr = regular_rep(Q, 4)
    assert [int(c) for c in rr.entries[3]] == [0, 2, 0, 3, 0, 0, 0, 1]


def test_multiplicative_kappa4(rng):
    for _ in range(25):
        a = _random_word_matrix(rng, P, Q)
        b = _random_word_matrix(rng, P, Q)
        assert regular_rep(a * b, 4) == regular_rep(a, 4) * regular_rep(b, 4)


def test_random_word_helper_draws_the_program_words():
    """The test helper, at the program's 6 letters, draws the same words
    with the same rng calls as ``verify._random_word_matrix``."""
    rng_a, rng_b = random.Random(5), random.Random(5)
    for _ in range(20):
        assert random_word_matrix(rng_a, P, Q, 6) == _random_word_matrix(
            rng_b, P, Q)
    assert rng_a.getstate() == rng_b.getstate()


def test_det_one_kappa4(rng):
    for _ in range(200):
        assert regular_rep(_random_word_matrix(rng, P, Q), 4).det() == 1


def test_kappa2_requires_even_subring():
    with pytest.raises(WrongSubring):
        regular_rep(P, 2)
    rr = regular_rep(Q, 2)
    assert [int(c) for c in rr.entries[0]] == [3, 4, 1, 0]


def test_kappa3_uses_cubic_matrices(rng):
    with pytest.raises(WrongSubring):
        regular_rep(Q, 3)
    for _ in range(15):
        a, b = _random_sl2(rng, 3), _random_sl2(rng, 3)
        assert regular_rep(a * b, 3) == regular_rep(a, 3) * regular_rep(b, 3)
        assert regular_rep(a, 3).det() == 1


def test_spectrum_decomposition(rng):
    """char(Psi(a)) is the product of the four embedded char polys."""
    for a in [P, Q] + [random_word_matrix(rng, P, Q, 4) for _ in range(10)]:
        lhs = charpoly_fraction([list(r) for r in regular_rep(a, 4).entries])
        assert lhs == embedded_charpoly_product(a)


def test_charpoly_leading_coefficients():
    coeffs = charpoly_fraction([list(r) for r in regular_rep(P, 4).entries])
    assert coeffs[0] == 1
    assert coeffs[-1] == 1          # det of an SL2 source block structure
    assert coeffs == embedded_charpoly_product(P)


# ---------------------------------------------------------------------------
# regular representations against a Fraction-grid reference
#
# The reference builds each block column by column as the coefficients of
# x * r^j (r^kappa = 2) on Fraction tuples, and multiplies, compares and
# takes determinants on Fraction grids by the schoolbook rules.


def ref_block(coeffs, kappa):
    cols = []
    for j in range(kappa):
        col = [Fraction(0)] * kappa
        for i, c in enumerate(coeffs):
            k = i + j
            col[k % kappa] += c * (2 if k >= kappa else 1)
        cols.append(col)
    return [[cols[j][i] for j in range(kappa)] for i in range(kappa)]


def ref_grid(mat, kappa):
    coeffs = [e.coeffs() for e in mat.entries()]
    if kappa == 2:
        coeffs = [(c[0], c[2]) for c in coeffs]
    b11, b12, b21, b22 = (ref_block(c, kappa) for c in coeffs)
    return ([b11[i] + b12[i] for i in range(kappa)]
            + [b21[i] + b22[i] for i in range(kappa)])


def ref_grid_mul(a, b):
    n = len(a)
    return [[sum((a[i][l] * b[l][j] for l in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def ref_det(grid):
    m = [row[:] for row in grid]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def ref_int_grid(grid):
    return [[int(c) if c.denominator == 1 else c for c in row]
            for row in grid]


rep_coeff = st.one_of(st.integers(min_value=-9, max_value=9).map(Fraction),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=6))


def rep_entry(kappa, cs):
    cs = [int(c) if c.denominator == 1 else c for c in cs]
    if kappa == 3:
        return CubicElem(*cs)
    if kappa == 2:
        return QuarticElem(cs[0], 0, cs[1], 0)
    return QuarticElem(*cs)


@st.composite
def rep_matrix(draw, kappa):
    """A 2x2 matrix over the kappa ring, integral or not."""
    width = 2 if kappa == 2 else kappa
    cells = [rep_entry(kappa, draw(st.lists(rep_coeff, min_size=width,
                                            max_size=width)))
             for _ in range(4)]
    return CubicMat2(*cells) if kappa == 3 else RingMat2(*cells)


def _typed(grid):
    return [[(type(c), c) for c in row] for row in grid]


def _check_rep(a, b, kappa):
    ra, rb = regular_rep(a, kappa), regular_rep(b, kappa)
    ga, gb = ref_grid(a, kappa), ref_grid(b, kappa)
    assert _typed(ra.to_int_grid()) == _typed(ref_int_grid(ga))
    assert [list(row) for row in ra.entries] == ga
    assert ra.det() == ref_det(ga)
    prod = ra * rb
    assert prod.to_int_grid() == ref_int_grid(ref_grid_mul(ga, gb))
    assert prod == regular_rep(a * b, kappa)
    assert (ra == rb) == (ga == gb)


@pytest.mark.parametrize("kappa", [2, 3, 4])
@settings(max_examples=40)
@given(data=st.data())
def test_regular_rep_matches_fraction_reference(kappa, data):
    a = data.draw(rep_matrix(kappa))
    b = data.draw(st.one_of(rep_matrix(kappa), st.just(a)))
    _check_rep(a, b, kappa)


def _inverse_pair(kappa):
    """[[1/2, 2/3 r], [0, 2]] and its inverse [[2, -2/3 r], [0, 1/2]] over
    the kappa ring, r = 2^(1/kappa)."""
    if kappa == 3:
        r = CubicElem(0, Fraction(2, 3), 0)
        half, zero, two = (CubicElem(c) for c in (Fraction(1, 2), 0, 2))
        return (CubicMat2(half, r, zero, two),
                CubicMat2(two, CubicElem(0, Fraction(-2, 3), 0), zero, half))
    r = (QuarticElem(0, 0, Fraction(2, 3), 0) if kappa == 2
         else QuarticElem(0, Fraction(2, 3), 0, 0))
    a = RingMat2(Fraction(1, 2), r, 0, 2)
    return a, a.inv()


@pytest.mark.parametrize("kappa", [2, 3, 4])
def test_regular_rep_non_integral_inverse_pair(kappa):
    a, b = _inverse_pair(kappa)
    _check_rep(a, b, kappa)
    _check_rep(b, a, kappa)
    ra, rb = regular_rep(a, kappa), regular_rep(b, kappa)
    assert ra.den == 6 and (ra * rb).den == 1
    assert ra.det() == 1 and rb.det() == 1
    assert (ra * rb).to_int_grid() == [[int(i == j) for j in range(2 * kappa)]
                                       for i in range(2 * kappa)]


# ---------------------------------------------------------------------------
# eigen data


def test_eigen_q_trace_identity():
    e = eigen2(Q)
    lam, mu = e.lam_dominant, e.lam_recessive
    assert lam + mu == QuadExt.of_base(Q.trace(), lam.d)
    assert lam * mu == QuadExt.of_base(ONE, lam.d)
    lo, hi, s = lam.interval()
    assert 5 * s < lo < hi < 6 * s


def test_eigen_p_sigma2_moduli():
    assert classify(P, 2) == MatClass.HYPERBOLIC
    e = eigen2(P.real_view())
    lo, _, s = e.lam_dominant.interval()
    assert lo > s
    lo, hi, s = e.lam_recessive.interval()
    assert 0 < lo < hi < s


def test_eigen_parabolic_rejected():
    with pytest.raises(ParabolicNotSupported):
        eigen2(RingMat2.identity())
    shear = RingMat2(ONE, ONE, QuarticElem(0), ONE)
    with pytest.raises(ParabolicNotSupported):
        eigen2(shear)


def test_eigen_elliptic_reports_unit_circle():
    """The eigenvalues of an elliptic view are a conjugate pair, so their
    squared modulus is their product, the determinant."""
    assert classify(P, 0) == MatClass.ELLIPTIC
    e = eigen2(P)
    assert e.lam_dominant is None and e.lam_recessive is None
    lo, hi, s = P.det().interval()
    assert lo == s == hi


# ---------------------------------------------------------------------------
# shared eigenvectors


def test_share_eigenvector_reference_pair():
    assert share_eigenvector(P, Q) is False


def test_share_eigenvector_self_and_inverse():
    assert share_eigenvector(P, P) is True
    assert share_eigenvector(Q, Q.inv()) is True


def test_share_eigenvector_scalar_raises():
    with pytest.raises(ScalarMatrix):
        share_eigenvector(RingMat2.identity(), Q)


def test_share_eigenvector_embedding_independent(rng):
    for _ in range(10):
        a = random_word_matrix(rng, P, Q, 4)
        b = random_word_matrix(rng, P, Q, 4)
        if a.is_scalar() or b.is_scalar():
            continue
        assert (share_eigenvector(a.real_view(), b.real_view())
                == share_eigenvector(a, b))


def test_entry_dist_is_exact_square():
    d = entry_dist_sq(Q, RingMat2.identity(), 0)
    # entries of Q - I: 2 + 2 b^2, 1, -1, -1; the largest square wins
    assert d == QuarticElem(2, 0, 2, 0) * QuarticElem(2, 0, 2, 0)
