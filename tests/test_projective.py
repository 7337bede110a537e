"""Dominance analysis, north-south data and ping-pong certificates."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quartic.construction import paper_generators
from quartic.errors import HypothesisViolated, NotHyperbolicLike
from quartic.extension import QuadExt
from quartic.intervals import interval_json
from quartic.linalg import RingMat2, int_matrices, is_scalar4, regular_rep
from quartic.probe import walk_words
from quartic import projective
from quartic.projective import (
    Ball,
    PingPongCertificate,
    ProjPoint,
    analyze_dominance,
    dominant_eigenvalue,
    free_pair_power,
    hyperbolic_like,
    noncommuting_check,
    pingpong_exponent,
    proj_dist,
    proj_equal,
    verify_certificate,
)
from quartic.ring import ONE, ZERO, QuarticElem, Sign

from ring_reference import reference_quadext_sign

P, Q = paper_generators()
A2 = P.real_view(2)
B2 = Q.real_view(2)


@pytest.fixture(scope="module")
def certificate():
    return pingpong_exponent(A2, B2)


# ---------------------------------------------------------------------------
# dominance


def test_dominant_psi_p():
    rec = dominant_eigenvalue(regular_rep(P, 4))
    assert rec is not None
    assert rec.block_k == 2
    assert (rec.value - 1).sign() == Sign.POSITIVE


def test_dominant_psi_q_double_max():
    ana = analyze_dominance(regular_rep(Q, 4))
    assert ana.record is None
    assert ana.reason == "double maximal eigenvalue"


def test_dominant_identity_none():
    assert dominant_eigenvalue(RingMat2.identity()) is None


def test_dominant_rotation_none():
    h = Fraction(1, 2)
    rot = RingMat2(QuarticElem(0, 0, h), QuarticElem(0, 0, -h),
                   QuarticElem(0, 0, h), QuarticElem(0, 0, h))
    assert rot.det() == ONE
    assert dominant_eigenvalue(rot) is None


def test_hyperbolic_like_psi():
    assert hyperbolic_like(regular_rep(P, 4)) is not None
    assert hyperbolic_like(regular_rep(Q, 4)) is None


def _annihilates(cov, point):
    """Whether the covector's dot product with the point is exactly zero."""
    return sum((c * x for c, x in zip(cov[1:], point.coords[1:])),
               cov[0] * point.coords[0]).is_zero()


def test_hyperbolic_like_cross_membership():
    data = hyperbolic_like(regular_rep(P, 4))
    assert data.dim == 8
    assert _annihilates(data.cross_minus, data.attracting)
    assert _annihilates(data.cross_plus, data.repelling)
    assert not _annihilates(data.cross_plus, data.attracting)
    assert not _annihilates(data.cross_minus, data.repelling)


def test_hyperbolic_like_dim2_crosses_are_opposite_points():
    data = hyperbolic_like(B2)
    assert data.dim == 2
    assert proj_equal(data.cross_plus, data.repelling)
    assert proj_equal(data.cross_minus, data.attracting)
    assert not proj_equal(data.attracting, data.repelling)


def test_power_compatibility():
    base = hyperbolic_like(B2)
    squared = hyperbolic_like(B2 * B2)
    assert proj_equal(base.attracting, squared.attracting)
    assert proj_equal(base.repelling, squared.repelling)
    inverse = hyperbolic_like(B2.inv())
    assert proj_equal(base.attracting, inverse.repelling)
    assert proj_equal(base.repelling, inverse.attracting)


# ---------------------------------------------------------------------------
# chordal distance


def test_proj_dist_zero_for_equal_points():
    p = ProjPoint((ONE, QuarticElem(2)))
    q = ProjPoint((QuarticElem(3), QuarticElem(6)))
    lo, hi, _ = proj_dist(p, q)
    assert lo == 0 == hi


def test_proj_dist_orthogonal():
    lo, hi, s = proj_dist(ProjPoint((ONE, ZERO)), ProjPoint((ZERO, ONE)))
    assert lo == s == hi


def test_proj_dist_diagonal_pair():
    lo, hi, s = proj_dist(ProjPoint((ONE, ONE)), ProjPoint((ONE, -ONE)))
    assert lo == s == hi


# interval_json of the chordal distances between the four certificate
# centers; an A center and a B center live in different extensions
CENTER_DIST_GOLDEN = {
    ("A_att", "A_rep"): ["0.988706599053", "0.988706599054"],
    ("A_att", "B_att"): ["0.099750381598", "0.099750381599"],
    ("A_att", "B_rep"): ["0.968826412712", "0.968826412713"],
    ("A_rep", "B_att"): ["0.968826412712", "0.968826412713"],
    ("A_rep", "B_rep"): ["0.099750381598", "0.099750381599"],
    ("B_att", "B_rep"): ["0.939282169482", "0.939282169483"],
}


def test_center_distances_match_golden():
    centers = projective._fixed_points(A2, B2)
    got = {(a, b): interval_json(proj_dist(ProjPoint(centers[a]),
                                           ProjPoint(centers[b])))
           for a, b in CENTER_DIST_GOLDEN}
    assert got == CENTER_DIST_GOLDEN


# ---------------------------------------------------------------------------
# ping-pong certificates


def test_certificate_found(certificate):
    assert 1 <= certificate.exponent <= 1 << 16
    ok, problems = verify_certificate(certificate)
    assert ok, problems


def test_certificate_roundtrip(certificate):
    blob = certificate.to_json_text()
    again = PingPongCertificate.from_json(json.loads(blob))
    ok, problems = verify_certificate(again)
    assert ok, problems
    assert again.exponent == certificate.exponent


def test_certificate_tamper_detected(certificate):
    blob = json.loads(certificate.to_json_text())
    blob["balls"][0]["radius"] = str(Fraction(1, 2))   # far too large
    tampered = PingPongCertificate.from_json(blob)
    ok, problems = verify_certificate(tampered)
    assert not ok and problems


def test_certificate_missing_ball_detected(certificate):
    blob = json.loads(certificate.to_json_text())
    blob["balls"].pop()
    ok, problems = verify_certificate(PingPongCertificate.from_json(blob))
    assert not ok and any("balls missing" in p for p in problems)


def test_certificate_wrong_center_detected(certificate):
    blob = json.loads(certificate.to_json_text())
    blob["balls"][0]["center"]["v1"]["a"] = "17 0 0 0"
    tampered = PingPongCertificate.from_json(blob)
    ok, problems = verify_certificate(tampered)
    assert not ok


def _mutated(certificate, mutate):
    blob = json.loads(certificate.to_json_text())
    mutate(blob)
    return PingPongCertificate.from_json(blob)


def _set_field(name, key, value):
    def mutate(blob):
        next(c for c in blob["checked_conditions"]
             if c["name"] == name)[key] = value
    return mutate


def _set_top(key, value):
    def mutate(blob):
        blob[key] = value
    return mutate


def _reverse_step_regions(blob):
    for cond in blob["checked_conditions"]:
        if cond["region_kind"] == "interval":
            cond["region"].reverse()
            cond["cells"] = []


@pytest.mark.parametrize("mutate", [
    _set_field("A_att_step", "exponent", 3),
    _set_field("A_pos", "exponent", 1),
    _set_field("B_neg", "exponent", 3),
    _set_field("A_pos", "generator", "B"),
    _set_field("B_rep_step", "generator", "A"),
    _set_field("A_pos", "region_kind", "interval"),
    _set_field("A_att_step", "region_kind", "complement"),
    _set_field("A_pos", "target", "A_rep"),
    _set_field("B_att_step", "target", "A_att"),
    lambda blob: blob["checked_conditions"].append(
        dict(blob["checked_conditions"][0])),
    lambda blob: blob["checked_conditions"].pop(),
    lambda blob: blob["checked_conditions"].pop(0),
    # these three raised instead of returning (False, problems)
    _set_top("disjointness_bits", -64),
    _set_field("A_neg", "outer", "0"),
    _set_top("generator_b", "1 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"),
    # the precision the checker would spend is capped
    _set_top("disjointness_bits", 10 ** 6),
    _set_top("generator_a", "2 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"),
    _set_top("generator_b", "0 0 0 0; 1 0 0 0; -1 0 0 0; 0 0 0 0"),
    _set_top("N", 0),
    # a step region with its ends swapped is empty, so no cell checks it
    _reverse_step_regions,
], ids=["step_exponent", "pos_exponent", "neg_exponent", "generator",
        "step_generator", "region_kind", "step_region_kind", "target",
        "step_target", "duplicate", "dropped_last", "dropped_first",
        "negative_bits", "zero_outer", "identity_generator", "huge_bits",
        "det_two_generator", "elliptic_generator", "zero_exponent",
        "reversed_step_regions"])
def test_certificate_single_field_mutation_rejected(certificate, mutate):
    assert certificate.exponent == 3
    ok, problems = verify_certificate(_mutated(certificate, mutate))
    assert not ok and problems


# sha256 of the full certificate JSON of the paper pair's sigma2 views:
# balls, regions, outer bounds, cells, basepoint and disjointness_bits
# (`certify --json` prints only the balls).
CERTIFICATE_GOLDEN = {
    3: "1517dcbcb133c61e4df2e280265636b26ea409b4b5a0bf3de56cb36b6955e06e",
    4: "e288957d08bc38ecec88c7ae49c61721dc1fce025b48bb76f1b539a799ef49a5",
}


@pytest.mark.parametrize("n", sorted(CERTIFICATE_GOLDEN))
def test_certificate_json_matches_golden(n):
    text = projective.certify_exponent(A2, B2, n).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_GOLDEN[n]


def test_pingpong_search_tries_no_exponent_twice(monkeypatch, certificate):
    tried = []
    real = projective.certify_exponent

    def spy(a, b, n, sep=None):
        tried.append(n)
        return real(a, b, n, sep)

    monkeypatch.setattr(projective, "certify_exponent", spy)
    cert = pingpong_exponent(A2, B2)
    assert tried == [1, 2, 4, 3]
    assert cert.to_json_text() == certificate.to_json_text()
    assert cert.to_json_text() == real(A2, B2, 3).to_json_text()


def _reference_sign(ball, point):
    """Sign of chordal(p, c)^2 - r^2 by the direct formula
    cross^2 - r^2 |p|^2 |c|^2, cross = p1 c2 - p2 c1, in the center's
    extension: the reference for ``Ball.membership_sign``'s form."""
    d = ball.center[0].d
    p1, p2 = (QuadExt.of_base(x, d) for x in point)
    c1, c2 = ball.center
    cross = p1 * c2 - p2 * c1
    r2 = QuadExt.of_base(QuarticElem(ball.radius * ball.radius), d)
    return reference_quadext_sign(
        cross * cross - (p1 * p1 + p2 * p2) * (c1 * c1 + c2 * c2) * r2)


def _assert_exclusions_match_reference(ball):
    # the charts' points at infinity are (0, 1) for s and (1, 0) for u
    for chart, point in (("s", (ZERO, ONE)), ("u", (ONE, ZERO))):
        assert ball.excludes_chart_infinity(chart) == (
            _reference_sign(ball, point) == Sign.POSITIVE)


def test_search_form_signs_match_the_checker_formula(monkeypatch):
    """Every point the whole exponent search signs on the paper pair, its
    failing exponents and rungs included, and every point the checker
    signs, gets the sign of the direct formula."""
    seen = []
    real = Ball.membership_sign

    def spy(ball, point):
        sign = real(ball, point)
        seen.append((ball, point, sign))
        return sign

    monkeypatch.setattr(Ball, "membership_sign", spy)
    tried = []
    real_exponent = projective.certify_exponent

    def exponent_spy(a, b, n, search=None):
        tried.append(n)
        return real_exponent(a, b, n, search)

    monkeypatch.setattr(projective, "certify_exponent", exponent_spy)
    cert = free_pair_power(P, Q).certificate
    assert tried == [1, 2, 4, 3]
    searched = len(seen)
    assert searched > 150
    assert len({ball.radius for ball, _, _ in seen}) > 1
    again = PingPongCertificate.from_json(json.loads(cert.to_json_text()))
    assert verify_certificate(again) == (True, [])
    assert len(seen) - searched > 50
    for ball, point, sign in seen:
        assert _reference_sign(ball, point) == sign, (ball.name, point)
    for ball in {id(b): b for b, _, _ in seen}.values():
        _assert_exclusions_match_reference(ball)


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
parts = st.builds(QuarticElem, small, st.integers(-3, 3), small,
                  st.integers(-3, 3))
# the sqrt(d) part may vanish, d may be zero, and d = 2 is a square in
# Q(beta), so u + v sqrt(d) can vanish with u and v both nonzero
surd_parts = st.one_of(st.just(ZERO), parts)
radicands = st.sampled_from([ZERO, QuarticElem(2), QuarticElem(3),
                             QuarticElem(0, 1), QuarticElem(5, 0, 1)])


@given(surd_parts, surd_parts, surd_parts, surd_parts, radicands,
       st.fractions(min_value=0, max_value=2, max_denominator=16),
       parts, parts)
def test_form_sign_matches_the_formula_anywhere(a1, b1, a2, b2, d, rho,
                                                p1, p2):
    ball = Ball("h", (QuadExt(a1, b1, d), QuadExt(a2, b2, d)), rho)
    assert ball.membership_sign((p1, p2)) == _reference_sign(ball, (p1, p2))
    _assert_exclusions_match_reference(ball)


@given(parts, parts, surd_parts, surd_parts,
       st.one_of(st.just(QuarticElem(2)), radicands), st.integers(2, 7),
       st.data())
def test_form_sign_zero_on_rotated_boundaries(e1, e2, k_a, k_b, d, u, data):
    """A point at chordal distance n / h from the center, for a
    Pythagorean triple (m, n, h), signs zero on the ball of radius n / h.
    Over d = 2 the center is any surd pair, otherwise a surd multiple of
    a base-field pair."""
    v = data.draw(st.integers(1, u - 1))
    m, n, h = u * u - v * v, 2 * u * v, u * u + v * v
    if d == QuarticElem(2):
        center = (QuadExt(e1, k_a, d), QuadExt(e2, k_b, d))
        e1, e2 = (c.a + c.b * QuarticElem(0, 0, 1) for c in center)
    else:
        k = QuadExt(k_a, k_b, d)
        center = (k * e1, k * e2)
    lam = data.draw(small.filter(bool))
    point = (lam * (m * e1 - n * e2) / h, lam * (n * e1 + m * e2) / h)
    ball = Ball("z", center, Fraction(n, h))
    assert _reference_sign(ball, point) == Sign.ZERO
    assert ball.membership_sign(point) == Sign.ZERO
    _assert_exclusions_match_reference(ball)


def test_form_sign_of_a_value_with_no_rational_part():
    # around (1, sqrt11) at radius 1/2 the form's rational part vanishes at
    # slope +-2, since 11 + 2^2 = (1/2)^2 (1 + 11)(1 + 2^2); the value left
    # is -+4 sqrt11
    d = QuarticElem(11)
    ball = Ball("r", (QuadExt(ONE, ZERO, d), QuadExt(ZERO, ONE, d)),
                Fraction(1, 2))
    for point, want in (((ONE, QuarticElem(2)), Sign.NEGATIVE),
                        ((QuarticElem(Fraction(1, 2)), ONE), Sign.NEGATIVE),
                        ((ONE, QuarticElem(-2)), Sign.POSITIVE)):
        assert _reference_sign(ball, point) == want
        assert ball.membership_sign(point) == want


def _edge_slopes(ball, side, bits=40):
    """Rational slopes (inside, outside) of the ball 2^-bits apart at one
    edge (side +1 or -1), bisected with the reference formula."""
    c1, c2 = ball.center
    lo, _, s = (c2 * c1.inv()).interval()
    inside = Fraction(lo, s)
    # a chordal radius r spans about r (1 + s^2) in slope s
    outside = inside + side * (1 + inside * inside)
    assert _reference_sign(ball, (ONE, QuarticElem(inside))) == Sign.NEGATIVE
    assert _reference_sign(ball, (ONE, QuarticElem(outside))) == Sign.POSITIVE
    for _ in range(bits):
        mid = (inside + outside) / 2
        if _reference_sign(ball, (ONE, QuarticElem(mid))) == Sign.NEGATIVE:
            inside = mid
        else:
            outside = mid
    return inside, outside


@pytest.mark.parametrize("halvings", [0, 1])
def test_form_signs_at_the_ball_edges(certificate, halvings):
    for ball in certificate.balls.values():
        form = Ball(ball.name, ball.center, ball.radius / 2 ** halvings)
        for side in (1, -1):
            for t, want in zip(_edge_slopes(form, side),
                               (Sign.NEGATIVE, Sign.POSITIVE)):
                for point in ((ONE, QuarticElem(t)), (QuarticElem(t), ONE)):
                    assert form.membership_sign(point) == \
                        _reference_sign(form, point)
                assert form.membership_sign((ONE, QuarticElem(t))) == want
        _assert_exclusions_match_reference(form)


def test_form_sign_zero_on_the_boundary():
    # the chordal ball of radius 3/5 around slope 0 has slopes +-3/4 on its
    # boundary: (3/4)^2 / (1 + (3/4)^2) = (3/5)^2
    d = QuarticElem(2)
    center = (QuadExt.of_base(ONE, d), QuadExt.of_base(ZERO, d))
    for rho, edge in ((Fraction(3, 5), Fraction(3, 4)),
                      (Fraction(4, 5), Fraction(4, 3))):
        form = Ball("c", center, rho)
        for t, want in ((edge, Sign.ZERO), (-edge, Sign.ZERO),
                        (edge * (1 - Fraction(1, 2 ** 30)), Sign.NEGATIVE),
                        (edge * (1 + Fraction(1, 2 ** 30)), Sign.POSITIVE)):
            point = (ONE, QuarticElem(t))
            assert _reference_sign(form, point) == want
            assert form.membership_sign(point) == want


def test_pingpong_same_matrix_rejected():
    with pytest.raises(HypothesisViolated):
        pingpong_exponent(A2, A2)


def test_pingpong_elliptic_rejected():
    with pytest.raises(NotHyperbolicLike):
        pingpong_exponent(P, B2)   # P itself is elliptic in the identity view


def test_no_short_relations(certificate):
    """The certified pair satisfies no relation up to length 10."""
    n = certificate.exponent
    a = A2 ** n
    b = B2 ** n
    gens, den = int_matrices([a, a.inv(), b, b.inv()])
    count = 0
    for codes, mat in walk_words(gens, 10):
        count += 1
        assert not is_scalar4(mat, den ** len(codes)), codes
    assert count == sum(4 * 3 ** (k - 1) for k in range(1, 11))


# ---------------------------------------------------------------------------
# commuting and freeness wrappers


def test_noncommuting_reference_pair():
    res = noncommuting_check(A2, B2)
    assert res and res.commutator_nontrivial


def test_noncommuting_power_pair_fails_hypotheses():
    res = noncommuting_check(A2, A2 * A2)
    assert not res
    assert "fixed" in res.reason


def test_noncommuting_inverse_pair_fails_hypotheses():
    res = noncommuting_check(B2, B2.inv())
    assert not res


def test_free_pair_power(certificate):
    fp = free_pair_power(P, Q)
    assert fp.exponent == certificate.exponent
    ok, _ = verify_certificate(fp.certificate)
    assert ok


def test_free_pair_power_rejects_shared_eigenvectors():
    with pytest.raises(HypothesisViolated):
        free_pair_power(P, P)


def test_free_pair_power_inverse_generator():
    fp = free_pair_power(P, Q.inv())
    assert fp.exponent >= 1
