"""Dominance analysis, north-south data and ping-pong certificates."""

import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic.cli import _parse_matrix
from quartic.dominance import noncommuting_check
from quartic.construction import paper_generators
from quartic.errors import (HypothesisViolated, NotHyperbolicLike,
                            SearchOverflow)
from quartic.extension import QuadExt
from quartic.intervals import interval_json
from quartic.linalg import (MatClass, RingMat2, classify, is_scalar4,
                            share_eigenvector)
from quartic.probe import int_matrices, walk_words
from quartic import pingpong, projective
from quartic.pingpong import (
    Ball,
    Cell,
    MappingCondition,
    PingPongCertificate,
    proj_dist,
    proj_equal,
    verify_certificate,
)
from quartic.projective import free_pair_power, pingpong_exponent
from quartic.regular import regular_rep
from quartic.ring import ONE, ZERO, QuarticElem, Sign, common_over

import certificate_reference
import dominance_reference
from certificate_reference import (
    reference_cell_pole_free,
    reference_certify_cell,
    reference_certify_condition,
    reference_certify_exponent,
    reference_complement_cells,
    reference_image_pair,
    reference_recheck_condition,
)
from dominance_reference import analyze_dominance, hyperbolic_like
from ring_reference import reference_quadext_sign
from word_reference import reference_word_matrix, reference_words

P, Q = paper_generators()
A2 = P.real_view(2)
B2 = Q.real_view(2)


@pytest.fixture(scope="module")
def certificate():
    return pingpong_exponent(A2, B2)


# ---------------------------------------------------------------------------
# dominance


def test_dominant_psi_p():
    eig = analyze_dominance(regular_rep(P, 4)).eigen
    assert eig is not None
    assert eig.k == 2
    assert (eig.lam_dominant - 1).sign() == Sign.POSITIVE


def test_dominant_psi_q_double_max():
    ana = analyze_dominance(regular_rep(Q, 4))
    assert ana.eigen is None
    assert ana.reason == "double maximal eigenvalue"


def test_dominant_identity_none():
    assert analyze_dominance(RingMat2.identity()).eigen is None


def test_dominant_rotation_none():
    h = Fraction(1, 2)
    rot = RingMat2(QuarticElem(0, 0, h), QuarticElem(0, 0, -h),
                   QuarticElem(0, 0, h), QuarticElem(0, 0, h))
    assert rot.det() == ONE
    assert analyze_dominance(rot).eigen is None


def test_hyperbolic_like_psi():
    assert hyperbolic_like(regular_rep(P, 4)) is not None
    assert hyperbolic_like(regular_rep(Q, 4)) is None


def _annihilates(cov, point):
    """Whether the covector's dot product with the point is exactly zero."""
    return sum((c * x for c, x in zip(cov[1:], point[1:])),
               cov[0] * point[0]).is_zero()


def test_hyperbolic_like_cross_membership():
    data = hyperbolic_like(regular_rep(P, 4))
    assert len(data.attracting) == 8
    assert _annihilates(data.cross_minus, data.attracting)
    assert _annihilates(data.cross_plus, data.repelling)
    assert not _annihilates(data.cross_plus, data.attracting)
    assert not _annihilates(data.cross_minus, data.repelling)


def test_hyperbolic_like_dim2_crosses_are_opposite_points():
    data = hyperbolic_like(B2)
    assert len(data.attracting) == 2
    assert proj_equal(data.cross_plus, data.repelling)
    assert proj_equal(data.cross_minus, data.attracting)
    assert not proj_equal(data.attracting, data.repelling)


def test_power_compatibility():
    base = hyperbolic_like(B2)
    squared = hyperbolic_like(B2 * B2)
    # the square's points lie over another extension: compare enclosures
    for p, q in ((base.attracting, squared.attracting),
                 (base.repelling, squared.repelling)):
        lo, hi, s = proj_dist(p, q, 256)
        assert lo == 0 and hi < s >> 100
    inverse = hyperbolic_like(B2.inv())
    assert proj_equal(base.attracting, inverse.repelling)
    assert proj_equal(base.repelling, inverse.attracting)


# ---------------------------------------------------------------------------
# chordal distance


def test_proj_dist_zero_for_equal_points():
    p = (ONE, QuarticElem(2))
    q = (QuarticElem(3), QuarticElem(6))
    lo, hi, _ = proj_dist(p, q)
    assert lo == 0 == hi


def test_proj_dist_orthogonal():
    lo, hi, s = proj_dist((ONE, ZERO), (ZERO, ONE))
    assert lo == s == hi


def test_proj_dist_diagonal_pair():
    lo, hi, s = proj_dist((ONE, ONE), (ONE, -ONE))
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
    centers = pingpong._fixed_points(A2, B2)
    got = {(a, b): interval_json(proj_dist(centers[a], centers[b]))
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


def _restate(n):
    """The certificate's exponent N, and each complement condition's +-N,
    set to n."""
    def mutate(blob):
        blob["N"] = n
        for cond in blob["checked_conditions"]:
            if cond["region_kind"] == "complement":
                cond["exponent"] = n if cond["exponent"] > 0 else -n
    return mutate


def test_certificate_restated_at_a_higher_exponent_passes(certificate):
    """A^N and B^N contract more as N grows, so the N = 3 balls, regions and
    cells also certify N = 2^10."""
    assert verify_certificate(_mutated(certificate, _restate(1 << 10))) == (
        True, [])


def test_certificate_exponent_beyond_the_cap_rejected_unbuilt(certificate,
                                                              monkeypatch):
    """An exponent above ``pingpong.EXPONENT_CAP`` is a problem found before
    any generator power is built."""
    cap = pingpong.EXPONENT_CAP
    assert cap == 1 << 16
    tampered = _mutated(certificate, _restate(1 << 40))

    def spy(self, n):
        raise AssertionError(f"the checker built a power {n}")

    monkeypatch.setattr(RingMat2, "__pow__", spy)
    started = time.monotonic()
    ok, problems = verify_certificate(tampered)
    assert time.monotonic() - started < 1
    assert not ok
    assert problems == [f"exponent {1 << 40} beyond cap {cap}"]


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


def _int_point(point):
    """A point of two QuarticElems as two int 4-tuples, both scaled by
    their common denominator: the point type ``Ball.membership_sign``
    takes."""
    return common_over(point)[0]


def _slope_point(t):
    return _int_point((ONE, QuarticElem(t)))


def _reference_sign(ball, point):
    """Sign of chordal(p, c)^2 - r^2 at the int point p by the direct
    formula cross^2 - r^2 |p|^2 |c|^2, cross = p1 c2 - p2 c1, in the
    center's extension: the reference for ``Ball.membership_sign``'s
    form."""
    d = ball.center[0].d
    p1, p2 = (QuadExt.of_base(QuarticElem(*x), d) for x in point)
    c1, c2 = ball.center
    cross = p1 * c2 - p2 * c1
    r2 = QuadExt.of_base(QuarticElem(ball.radius * ball.radius), d)
    return reference_quadext_sign(
        cross * cross - (p1 * p1 + p2 * p2) * (c1 * c1 + c2 * c2) * r2)


def _assert_exclusions_match_reference(ball):
    # the charts' points at infinity are (0, 1) for s and (1, 0) for u
    for chart, point in (("s", (ZERO, ONE)), ("u", (ONE, ZERO))):
        assert ball.excludes_chart_infinity(chart) == (
            _reference_sign(ball, _int_point(point)) == Sign.POSITIVE)


def test_search_form_signs_match_the_checker_formula(monkeypatch):
    """Every point the whole exponent search signs on the paper pair, its
    failing exponents and witnesses included, and every point the checker
    signs, gets the sign of the direct formula; so does every point the
    search signs on ``COMPANION``, whose failed step condition walks the
    whole radius ladder."""
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
    cert = free_pair_power(P, Q)
    assert tried == [1, 2, 4, 3]
    searched = len(seen)
    assert searched == 106
    # exponents 1 and 2 are refuted at the first radius, by a witness
    assert len({ball.radius for ball, _, _ in seen}) == 1
    again = PingPongCertificate.from_json(json.loads(cert.to_json_text()))
    assert verify_certificate(again) == (True, [])
    assert len(seen) == 158
    with pytest.raises(SearchOverflow):
        free_pair_power(*COMPANION)
    assert len({ball.radius for ball, _, _ in seen[158:]}) > 1
    for ball, point, sign in seen:
        assert _reference_sign(ball, point) == sign, (ball.name, point)
    for ball in {id(b): b for b, _, _ in seen}.values():
        _assert_exclusions_match_reference(ball)


# ---------------------------------------------------------------------------
# one cell per root, accepted by the checker, against the bisecting search
# and the left/right/u tiling test of tests/certificate_reference.py


@pytest.fixture(scope="module")
def pair_search():
    return projective._PairSearch(A2, B2)


def _ladder(search):
    """Every radius ``certify_exponent`` tries on the pair."""
    rho = projective._dyadic_near(search.sep / 4)
    return [rho / 2 ** k for k in range(6)]


def _cells(cells):
    return [(c.chart, c.lo, c.hi, c.target_chart) for c in cells]


def test_one_cell_search_matches_bisecting_reference_on_the_paper_pair(
        pair_search):
    """At exponents 1-4 and every radius of the ladder, each condition's
    searched region gets the same verdict and cells from the one-cell
    search as from the bisecting reference."""
    verdicts = set()
    for rho in _ladder(pair_search):
        balls = {name: Ball(name, c, rho)
                 for name, c in pair_search.centers.items()}
        for n in range(1, 5):
            for name in pingpong._CONDITIONS:
                gen, expo, source, target, kind = \
                    pingpong._condition_spec(name, n)
                region = projective._search_region(balls[source], kind)
                if region is None:
                    continue
                m = pair_search.gens[gen] ** expo
                cond = MappingCondition(name, gen, expo, region[0], kind,
                                        region[1], target)
                ok = projective._certify_condition(m, cond, balls)
                want, cells = reference_certify_condition(m, cond, balls)
                assert ok == want, (rho, n, name)
                if ok:
                    assert _cells(cond.cells) == _cells(cells)
                verdicts.add(ok)
    assert verdicts == {True, False}


def _pole(m, chart, target_chart):
    """The exact parameter of the chart that m maps onto the target chart's
    point at infinity, or None."""
    e11, e12, e21, e22 = m.entries()
    a, b = (e11, e12) if target_chart == "s" else (e21, e22)
    # the image coordinate is a + b t in chart s and a t + b in chart u
    num, den = (a, b) if chart == "s" else (b, a)
    return None if den.is_zero() else -num * den.inv()


def test_pole_test_at_a_rational_pole():
    # (1, t) maps to (2 + t, 1 + t): chart s's denominator vanishes at -2,
    # chart u's at -1; a cell that touches a pole is not pole-free
    m = RingMat2(QuarticElem(2), ONE, ONE, ONE)
    for lo, hi, chart, want in ((-2, -2, "s", False), (-3, -2, "s", False),
                                (-3, -1, "s", False), (-1, 0, "s", True),
                                (-1, -1, "u", False), (-2, -1, "u", False),
                                (-3, -2, "u", True), (0, 5, "u", True)):
        cell = Cell("s", Fraction(lo), Fraction(hi))
        assert pingpong._cell_pole_free(m, cell, chart) == want
        assert reference_cell_pole_free(m, cell, chart) == want


def _positive_multiple(p, q):
    """Whether the int point p is a positive rational multiple of q."""
    p, q = p[0] + p[1], q[0] + q[1]
    k = next(i for i, x in enumerate(q) if x)
    scale = Fraction(p[k], q[k])
    return scale > 0 and all(x == scale * y for x, y in zip(p, q))


def test_one_cell_search_matches_bisecting_reference_at_poles(pair_search):
    """Roots built to straddle a pole of a generator power get the same
    verdict and cells from one cell plus ``_recheck_cell`` as from the
    bisecting reference.  The reference bisects some of them, and each of
    those fails: the pole maps onto a chart's point at infinity, and a
    ball convex in that chart lies away from it.  Besides the ladder's
    radii, at 1/8 and 1/4 some balls are convex in one chart only."""
    radii = st.one_of(st.sampled_from(_ladder(pair_search)),
                      st.sampled_from([Fraction(1, 8), Fraction(1, 4)]))
    splits = []
    succeeded = []

    # "image" is the ball the power maps the rest of the line into
    @settings(max_examples=300)
    @given(st.sampled_from("AB"), st.integers(-4, 4).filter(bool),
           st.sampled_from(["image"] + sorted(pair_search.centers)),
           radii, st.sampled_from("su"), st.sampled_from("su"),
           st.integers(-64, 64), st.integers(-64, 64), st.integers(0, 24))
    def check(gen, expo, name, rho, chart, pole_chart, a, b, bits):
        m = pair_search.gens[gen] ** expo
        if name == "image":
            name = gen + ("_att" if expo > 0 else "_rep")
        ball = Ball(name, pair_search.centers[name], rho)
        pole = _pole(m, chart, pole_chart)
        if pole is None:
            return
        lo, hi, s = pole.interval()
        # dyadic ends a and b steps of 2^-bits out from the pole: around
        # it when a < 0 < b
        one = 2 ** bits
        lo, hi = lo * one // s + a, -(-hi * one // s) + b
        if lo >= hi:
            return
        root = Cell(chart, Fraction(lo, one), Fraction(hi, one))
        for c in "su":
            assert pingpong._cell_pole_free(m, root, c) == \
                reference_cell_pole_free(m, root, c)
        for t in (root.lo, root.hi):
            assert _positive_multiple(pingpong._image_pair(m, chart, t),
                                      reference_image_pair(m, chart, t))
        cell = projective._root_cell(m, root, ball)
        ok = cell is not None and pingpong._recheck_cell(m, cell, ball)
        want, leaves, n_splits = reference_certify_cell(m, root, ball)
        assert ok == want
        if ok:
            assert _cells([cell]) == _cells(leaves)
        assert not (want and n_splits)
        splits.append(n_splits)
        succeeded.append(ok)

    check()
    assert sum(map(bool, splits)) >= 10, splits
    assert sum(succeeded) >= 10, succeeded


def _variants(cond):
    """(label, cover, outer, want): the condition's own cover and small
    changes to it, each with its verdict."""
    cells = cond.cells
    first = cells[0]
    a, b = first.lo, first.hi
    mid, mid2 = a + (b - a) / 3, a + 2 * (b - a) / 3

    def part(lo, hi):
        return Cell(first.chart, lo, hi, first.target_chart)

    rest = cells[1:]
    out = [("own", cells, True),
           ("gap", [part(a, mid), part(mid2, b)] + rest, False),
           ("overlap", [part(a, mid2), part(mid, b)] + rest, False),
           ("duplicate", cells + [first], False),
           ("zero_width", [part(a, a)] + cells, True)]
    lo, hi = cond.region
    if cond.region_kind == "complement":
        inv = 1 / cond.outer
        s_cells = [c for c in cells if c.chart == "s"]
        u_cells = [c for c in cells if c.chart == "u"]
        out += [
            ("s_past_outer", cells + [Cell("s", cond.outer, cond.outer + 1,
                                           s_cells[0].target_chart)], False),
            ("u_past_inverse", s_cells + [Cell("u", -inv, 2 * inv, c.target_chart)
                                          for c in u_cells], False),
            ("s_straddles_removed", cells + [Cell("s", lo, hi, "s")], False),
        ]
    else:
        out += [("s_past_region", cells + [part(hi, hi + 1)], False)]
    return [(label, cover, cond.outer, want) for label, cover, want in out] + (
        [("outer_below_region", cells, max(abs(lo), abs(hi)) / 2, False)]
        if cond.region_kind == "complement" else [])


def test_tiling_check_matches_reference_on_the_certificate_covers(certificate):
    """The roots-based tiling test and the left/right/u reference give the
    same verdict, the expected one, on the paper certificate's own covers
    and on a gap, an overlap, a duplicated cell, a zero-width cell, cells
    past ``outer`` or past +-1/outer, a cell over the removed interval and
    an ``outer`` below the region."""
    seen = set()
    for cond in certificate.conditions:
        gen, expo = cond.generator, cond.exponent
        m = (certificate.gen_a if gen == "A" else certificate.gen_b) ** expo
        for label, cover, outer, want in _variants(cond):
            changed = MappingCondition(cond.name, gen, expo, cond.region,
                                       cond.region_kind, outer, cond.target,
                                       list(cover))
            got = pingpong._recheck_condition(m, changed, certificate.balls)
            ref = reference_recheck_condition(m, changed, certificate.balls)
            assert got == ref == want, (cond.name, label)
            seen.add(label)
    assert len(seen) == 10


def test_tiling_check_matches_reference_on_drawn_covers(monkeypatch):
    """With every cell accepted, the verdict is the tiling alone: the two
    tests agree on tilings of the roots and their changes, drawn on a grid.
    The new test is stricter only on covers outside this set: a cell in a
    chart with no root of the condition, or a reversed cell outside every
    root, which the reference accepted."""
    accepted = []
    for module, name in ((pingpong, "_recheck_cell"),
                         (certificate_reference, "reference_recheck_cell")):
        monkeypatch.setattr(module, name, lambda m, c, ball, name=name:
                            accepted.append(name) or True)
    grid = [Fraction(k, 4) for k in range(-20, 21)]
    verdicts = []

    @given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(["complement", "interval"]))
        lo, hi = sorted(data.draw(st.lists(st.sampled_from(grid[8:-8]),
                                           min_size=2, max_size=2,
                                           unique=True)))
        outer = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1),
                                           Fraction(2), Fraction(4)]))
        roots = (reference_complement_cells((lo, hi), outer)
                 if kind == "complement" else [Cell("s", lo, hi)])
        cells = []
        for root in roots:
            inside = [t for t in grid if root.lo <= t <= root.hi]
            ends = sorted(data.draw(st.lists(st.sampled_from(inside or grid),
                                             max_size=3)))
            ends = [root.lo] + ends + [root.hi]
            cells += [Cell(root.chart, x, y, "s") for x, y in zip(ends, ends[1:])]
        for _ in range(data.draw(st.integers(0, 2))):
            if not cells:   # a first change dropped the only cell
                break
            i = data.draw(st.integers(0, len(cells) - 1))
            c = cells[i]
            change = data.draw(st.sampled_from(
                ["drop", "duplicate", "shift_lo", "shift_hi", "chart"]))
            step = data.draw(st.sampled_from([Fraction(-1, 4), Fraction(1, 4)]))
            if change == "drop":
                cells.pop(i)
            elif change == "duplicate":
                cells.append(c)
            elif change == "shift_lo" and c.lo + step <= c.hi:
                cells[i] = Cell(c.chart, c.lo + step, c.hi, "s")
            elif change == "shift_hi" and c.lo <= c.hi + step:
                cells[i] = Cell(c.chart, c.lo, c.hi + step, "s")
            elif change == "chart" and kind == "complement":
                cells[i] = Cell("u" if c.chart == "s" else "s", c.lo, c.hi, "s")
        cond = MappingCondition("c", "A", 1, (lo, hi), kind, outer, "t", cells)
        want = reference_recheck_condition(None, cond, {"t": None})
        assert pingpong._recheck_condition(None, cond, {"t": None}) == want
        verdicts.append(want)

    check()
    assert True in verdicts and False in verdicts
    # both tests looked up the spies, so the verdicts are the tilings'
    assert set(accepted) == {"_recheck_cell", "reference_recheck_cell"}
    # outside the compared set the new test rejects what the reference took
    step = MappingCondition("c", "A", 1, (Fraction(0), Fraction(1)),
                            "interval", Fraction(1), "t",
                            [Cell("s", Fraction(0), Fraction(1), "s"),
                             Cell("u", Fraction(0), Fraction(1), "s")])
    reversed_past = MappingCondition(
        "c", "A", 1, (Fraction(0), Fraction(1)), "interval", Fraction(1), "t",
        [Cell("s", Fraction(0), Fraction(2), "s"),
         Cell("s", Fraction(2), Fraction(1), "s")])
    for cond in (step, reversed_past):
        assert reference_recheck_condition(None, cond, {"t": None})
        assert not pingpong._recheck_condition(None, cond, {"t": None})


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
    point = _int_point((p1, p2))
    assert ball.membership_sign(point) == _reference_sign(ball, point)
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
    point = _int_point((lam * (m * e1 - n * e2) * Fraction(1, h),
                        lam * (n * e1 + m * e2) * Fraction(1, h)))
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
    for point, want in ((_slope_point(2), Sign.NEGATIVE),
                        (_int_point((QuarticElem(Fraction(1, 2)), ONE)),
                         Sign.NEGATIVE),
                        (_slope_point(-2), Sign.POSITIVE)):
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
    assert _reference_sign(ball, _slope_point(inside)) == Sign.NEGATIVE
    assert _reference_sign(ball, _slope_point(outside)) == Sign.POSITIVE
    for _ in range(bits):
        mid = (inside + outside) / 2
        if _reference_sign(ball, _slope_point(mid)) == Sign.NEGATIVE:
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
                for point in (_slope_point(t),
                              _int_point((QuarticElem(t), ONE))):
                    assert form.membership_sign(point) == \
                        _reference_sign(form, point)
                assert form.membership_sign(_slope_point(t)) == want
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
            point = _slope_point(t)
            assert _reference_sign(form, point) == want
            assert form.membership_sign(point) == want


def test_pingpong_same_matrix_rejected():
    with pytest.raises(HypothesisViolated):
        pingpong_exponent(A2, A2)


def test_pingpong_elliptic_rejected():
    with pytest.raises(NotHyperbolicLike):
        pingpong_exponent(P, B2)   # P itself is elliptic in the identity view


def test_paper_search_certifications(monkeypatch):
    """The paper search certifies 16 conditions, all at the first radius,
    the only rung it builds.  A witness refutes exponent 1 at ``A_pos``
    and exponent 2 at ``B_pos``; the check after exponent 1 that the radius
    is live certifies the four step conditions, which every later exponent
    shares; exponents 4 and 3 certify their four complement conditions."""
    names = []
    real = projective._certify_condition

    def spy(m, cond, balls):
        names.append(cond.name)
        return real(m, cond, balls)

    rungs = []
    real_rung = projective._PairSearch._rung

    def rung_spy(search, rho):
        rungs.append(rho)
        return real_rung(search, rho)

    monkeypatch.setattr(projective, "_certify_condition", spy)
    monkeypatch.setattr(projective._PairSearch, "_rung", rung_spy)
    assert free_pair_power(P, Q).exponent == 3
    complements = ["A_pos", "A_neg", "B_pos", "B_neg"]
    assert names == (["A_pos", "A_att_step", "A_rep_step", "B_att_step",
                      "B_rep_step", "A_pos", "A_neg", "B_pos"]
                     + complements + complements)
    assert len(names) == 16
    assert rungs == [projective._PairSearch(A2, B2).radii()[0]]


# sigma2 views of a pair whose step condition B_att_step fails at every
# radius of the ladder, at every exponent
COMPANION = (_parse_matrix("0 -4 6 6; 1 0 0 0; -1 0 0 0; 0 0 0 0"),
             _parse_matrix("-5 -4 3 3; -4 -4 3 3; -1 0 0 0; -1 0 0 0"))


def test_search_gives_up_when_no_radius_is_live(monkeypatch):
    """The search stops after exponent 1 instead of doubling on: the spy
    fails at once on any later exponent."""
    real = projective.certify_exponent

    def spy(a, b, n, search=None):
        assert n == 1, f"the search went on to exponent {n}"
        return real(a, b, n, search)

    monkeypatch.setattr(projective, "certify_exponent", spy)
    with pytest.raises(SearchOverflow, match="every radius"):
        free_pair_power(*COMPANION)


# ---------------------------------------------------------------------------
# a failing exponent refuted by one witness point, against the ladder walk
# of tests/certificate_reference.py


def _drawn_hyperbolic_pairs(rng, count):
    """Pairs of sigma2 word matrices of length <= 3 in P and Q, both
    hyperbolic, with no shared eigenvector."""
    words = reference_words(3)[1:]
    pairs = []
    while len(pairs) < count:
        a, b = (reference_word_matrix(rng.choice(words), 1, (A2, B2))
                for _ in range(2))
        if (classify(a, 0) == classify(b, 0) == MatClass.HYPERBOLIC
                and not share_eigenvector(a, b)):
            pairs.append((a, b))
    return pairs


def _assert_witness_refutes(a, b, n, m, source, target, t):
    """t lies outside the source ball, m maps it to a point not strictly
    inside the target ball, both by the direct formula, m is the
    condition's power, and the bisecting reference fails the condition at
    the witness's radius and every smaller one."""
    assert _reference_sign(source, _slope_point(t)) == Sign.POSITIVE
    assert _reference_sign(target, reference_image_pair(m, "s", t)) != (
        Sign.NEGATIVE)
    name = next(k for k, (*_, src, tgt, kind) in pingpong._CONDITIONS.items()
                if (src, tgt, kind) == (source.name, target.name,
                                        "complement"))
    gen, expo, *_ = pingpong._condition_spec(name, n)
    assert m == (a if gen == "A" else b) ** expo
    search = projective._PairSearch(a, b)
    smaller = [rho for rho in search.radii() if rho <= source.radius]
    assert smaller[0] == source.radius
    for rho in smaller:
        balls = {k: Ball(k, c, rho) for k, c in search.centers.items()}
        region = projective._search_region(balls[source.name], "complement")
        if region is None:
            continue
        cond = MappingCondition(name, gen, expo, region[0], "complement",
                                region[1], target.name)
        assert not reference_certify_condition(m, cond, balls)[0], (name, rho)


def test_witness_search_matches_the_ladder_walk_reference(monkeypatch, rng):
    """The search that stops at a witness returns what the full ladder walk
    returns, None or the same certificate text, on the paper pair at
    exponents 1 to 6, the pairs (Q, P) and (P^-1, Q), ``COMPANION`` and
    drawn pairs at exponents 1 to 3.  Every witness is checked exactly:
    the differential test alone cannot catch an unsound refutation, since
    no radius after a failed complement condition certifies on these
    pairs."""
    found, missed = [], []
    real = projective._witness

    def spy(m, source, target):
        t = real(m, source, target)
        (missed if t is None else found).append((m, source, target, t))
        return t

    monkeypatch.setattr(projective, "_witness", spy)
    companion = tuple(m.real_view(2) for m in COMPANION)
    cases = ([((A2, B2), n) for n in range(1, 7)]
             + [(pair, n) for pair in ((B2, A2), (A2.inv(), B2))
                for n in range(1, 5)]
             + [(companion, 1)]
             + [(pair, n) for pair in _drawn_hyperbolic_pairs(rng, 32)
                for n in range(1, 4)])
    refuted = 0
    for (a, b), n in cases:
        found.clear()
        got, want = (None if c is None else c.to_json_text()
                     for c in (projective.certify_exponent(a, b, n),
                               reference_certify_exponent(a, b, n)))
        assert got == want
        for witness in found:
            _assert_witness_refutes(a, b, n, *witness)
        refuted += len(found)
    # one complement failure, on a drawn pair, has no witness and falls
    # through to the next radius
    assert (refuted, len(missed)) == (64, 1)


def test_witness_needs_both_exact_checks(monkeypatch):
    """``_witness`` returns only a candidate outside the source ball whose
    image is not strictly inside the target ball: here the first
    candidate is inside the source ball, the second maps inside the target
    ball, and the third is the witness exponent 1 fails with."""
    search = projective._PairSearch(A2, B2)
    balls = search._balls(search.radii()[0])
    source, target = balls["A_rep"], balls["A_att"]
    witness = projective._witness(A2, source, target)
    assert witness is not None
    # the midpoints of the regions the search removes from the two balls
    inside, mapped_in = (projective._dyadic_near(sum(
        projective._search_region(ball, "complement")[0]) / 2)
        for ball in (source, target))
    for t, outside, image_inside in ((inside, False, False),
                                     (mapped_in, True, True)):
        assert (_reference_sign(source, _slope_point(t))
                == Sign.POSITIVE) == outside
        assert (_reference_sign(target, reference_image_pair(A2, "s", t))
                == Sign.NEGATIVE) == image_inside
    monkeypatch.setattr(projective, "_edge_slopes",
                        lambda ball: [inside, mapped_in, witness])
    assert projective._witness(A2, source, target) == witness
    monkeypatch.setattr(projective, "_edge_slopes",
                        lambda ball: [inside, mapped_in])
    assert projective._witness(A2, source, target) is None


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


def test_noncommuting_check_matches_reference(rng):
    """The check reads ``classify`` and one ``eigen2`` where the reference
    went through the dominance analysis: both give the same verdict, reason
    and commutator flag on the paper pair's sigma2 and identity views (P is
    elliptic in the identity view), powers, inverses and drawn word pairs."""
    pairs = [(A2, B2), (B2, A2), (A2, A2 * A2), (B2, B2.inv()), (P, Q),
             (Q, P), (Q, B2)]
    words = reference_words(3)[1:]
    for view in ((A2, B2), (P, Q)):
        for _ in range(12):
            pairs.append(tuple(reference_word_matrix(rng.choice(words), 1,
                                                     view)
                               for _ in range(2)))
    reasons = set()
    for a, b in pairs:
        got = noncommuting_check(a, b)
        want = dominance_reference.noncommuting_check(a, b)
        assert (got.holds, got.reason, got.commutator_nontrivial) == (
            want.holds, want.reason, want.commutator_nontrivial)
        reasons.add(got.reason)
    assert len(reasons) == 3, reasons


def test_free_pair_power(certificate):
    fp = free_pair_power(P, Q)
    assert fp.exponent == certificate.exponent
    ok, _ = verify_certificate(fp)
    assert ok


def test_free_pair_power_checks_the_pair_once(monkeypatch):
    """The search state is the one place the pair's hypotheses are
    checked: one shared-eigenvector test, on the sigma2 views."""
    calls = []
    real = projective.share_eigenvector

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(projective, "share_eigenvector", spy)
    assert free_pair_power(P, Q).exponent == 3
    assert calls == [(A2, B2)]


def test_free_pair_power_rejects_shared_eigenvectors():
    with pytest.raises(HypothesisViolated):
        free_pair_power(P, P)


def test_free_pair_power_inverse_generator():
    fp = free_pair_power(P, Q.inv())
    assert fp.exponent >= 1
