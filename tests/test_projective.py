"""Dominance analysis, north-south data and ping-pong certificates."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic.construction import paper_generators
from quartic.errors import (HypothesisViolated, NotHyperbolicLike,
                            SearchOverflow)
from quartic.extension import QuadExt
from quartic.intervals import interval_json
from quartic.linalg import RingMat2, int_matrices, is_scalar4, regular_rep
from quartic.probe import walk_words
from quartic import projective
from quartic.projective import (
    Ball,
    Cell,
    MappingCondition,
    PingPongCertificate,
    ProjPoint,
    analyze_dominance,
    free_pair_power,
    hyperbolic_like,
    noncommuting_check,
    pingpong_exponent,
    proj_dist,
    proj_equal,
    verify_certificate,
)
from quartic.ring import ONE, ZERO, QuarticElem, Sign, common_over

import certificate_reference
from certificate_reference import (
    reference_cell_pole_free,
    reference_certify_cell,
    reference_certify_condition,
    reference_complement_cells,
    reference_image_pair,
    reference_recheck_condition,
)
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
    rec = analyze_dominance(regular_rep(P, 4)).record
    assert rec is not None
    assert rec.block_k == 2
    assert (rec.value - 1).sign() == Sign.POSITIVE


def test_dominant_psi_q_double_max():
    ana = analyze_dominance(regular_rep(Q, 4))
    assert ana.record is None
    assert ana.reason == "double maximal eigenvalue"


def test_dominant_identity_none():
    assert analyze_dominance(RingMat2.identity()).record is None


def test_dominant_rotation_none():
    h = Fraction(1, 2)
    rot = RingMat2(QuarticElem(0, 0, h), QuarticElem(0, 0, -h),
                   QuarticElem(0, 0, h), QuarticElem(0, 0, h))
    assert rot.det() == ONE
    assert analyze_dominance(rot).record is None


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
    assert searched == 179
    assert len({ball.radius for ball, _, _ in seen}) > 1
    again = PingPongCertificate.from_json(json.loads(cert.to_json_text()))
    assert verify_certificate(again) == (True, [])
    assert len(seen) == 231
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
            for name in projective._CONDITIONS:
                gen, expo, source, target, kind = \
                    projective._condition_spec(name, n)
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
    return None if den.is_zero() else -num / den


def test_pole_test_at_a_rational_pole():
    # (1, t) maps to (2 + t, 1 + t): chart s's denominator vanishes at -2,
    # chart u's at -1; a cell that touches a pole is not pole-free
    m = RingMat2(QuarticElem(2), ONE, ONE, ONE)
    for lo, hi, chart, want in ((-2, -2, "s", False), (-3, -2, "s", False),
                                (-3, -1, "s", False), (-1, 0, "s", True),
                                (-1, -1, "u", False), (-2, -1, "u", False),
                                (-3, -2, "u", True), (0, 5, "u", True)):
        cell = Cell("s", Fraction(lo), Fraction(hi))
        assert projective._cell_pole_free(m, cell, chart) == want
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
            assert projective._cell_pole_free(m, root, c) == \
                reference_cell_pole_free(m, root, c)
        for t in (root.lo, root.hi):
            assert _positive_multiple(projective._image_pair(m, chart, t),
                                      reference_image_pair(m, chart, t))
        cell = projective._root_cell(m, root, ball)
        ok = cell is not None and projective._recheck_cell(m, cell, ball)
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
            got = projective._recheck_condition(m, changed, certificate.balls)
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
    for module, name in ((projective, "_recheck_cell"),
                         (certificate_reference, "reference_recheck_cell")):
        monkeypatch.setattr(module, name, lambda m, c, ball: True)
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
        assert projective._recheck_condition(None, cond, {"t": None}) == want
        verdicts.append(want)

    check()
    assert True in verdicts and False in verdicts
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
        assert not projective._recheck_condition(None, cond, {"t": None})


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
    point = _int_point((lam * (m * e1 - n * e2) / h,
                        lam * (n * e1 + m * e2) / h))
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
    """The paper search certifies 28 conditions; checking after each
    failed exponent that some radius is live adds none."""
    names = []
    real = projective._certify_condition

    def spy(m, cond, balls):
        names.append(cond.name)
        return real(m, cond, balls)

    monkeypatch.setattr(projective, "_certify_condition", spy)
    assert free_pair_power(P, Q).exponent == 3
    assert len(names) == 28


# sigma2 views of a pair whose step condition B_att_step fails at every
# radius of the ladder, at every exponent
COMPANION = (RingMat2.parse("0 -4 6 6; 1 0 0 0; -1 0 0 0; 0 0 0 0"),
             RingMat2.parse("-5 -4 3 3; -4 -4 3 3; -1 0 0 0; -1 0 0 0"))


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
