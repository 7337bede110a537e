"""Dominance analysis, north-south data and ping-pong certificates."""

import hashlib
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quartic.cli import _parse_matrix
from quartic.construction import north_south, paper_generators
from quartic.eigen import proj_dist
from quartic.errors import (HypothesisViolated, NotHyperbolicLike,
                            SearchOverflow)
from quartic.extension import QuadExt
from quartic.linalg import (MatClass, RingMat2, classify, is_scalar4,
                            share_eigenvector)
from quartic.probe import int_matrices, walk_words
from quartic import pingpong, projective
from quartic.pingpong import Ball, PingPongCertificate, verify_certificate
from quartic.projective import free_pair_power, pingpong_exponent
from quartic.regular import regular_rep
from quartic.report import interval_json
from quartic.ring import ONE, ZERO, QuarticElem, Sign, common_over

import dominance_reference
from certificate_reference import (
    Cell,
    MappingCondition,
    cover_balls_disjoint,
    cover_certify_condition,
    cover_outer,
    cover_pole_free,
    cover_recheck_cell,
    cover_root_cell,
    proj_equal,
    reference_cell_pole_free,
    reference_certify_cell,
    reference_certify_condition,
    reference_certify_exponent,
    reference_fixed_points,
    reference_image_pair,
    reference_wrong_center,
)
from dominance_reference import analyze_dominance, hyperbolic_like
from ring_reference import reference_quadext_sign
from word_reference import reference_word_matrix, reference_words

P, Q = paper_generators()
A2 = P.real_view()
B2 = Q.real_view()


@pytest.fixture(scope="module")
def certificate():
    return pingpong_exponent(A2, B2)


# ---------------------------------------------------------------------------
# dominance


def test_dominant_psi_p():
    ana = analyze_dominance(regular_rep(P, 4))
    eig = ana.eigen
    assert eig is not None
    assert ana.k == 2
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


def test_rank8_rows_give_back_the_matrix(rng):
    """The dominance reference reads the 2x2 matrix back from the rank-8
    rows, so the representation need not carry its source."""
    words = reference_words(4)[1:]
    rational = RingMat2(QuarticElem(Fraction(1, 2), 3), QuarticElem(0, 0, -2),
                        QuarticElem(1, 0, 0, Fraction(-5, 6)), ONE)
    mats = [P, Q, rational]
    mats += [reference_word_matrix(rng.choice(words), 1, (P, Q))
             for _ in range(20)]
    for m in mats:
        assert dominance_reference._matrix_of(regular_rep(m, 4)) == m


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
    centers = projective._fixed_points(A2, B2)
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


def _ball_json(blob, name):
    return next(b for b in blob["balls"] if b["name"] == name)


def _set_top(key, value):
    def mutate(blob):
        blob[key] = value
    return mutate


def _copy_region(name, source):
    def mutate(blob):
        blob["regions"][name] = list(blob["regions"][source])
    return mutate


def _drop_region(name):
    def mutate(blob):
        del blob["regions"][name]
    return mutate


def _rename_region(name, new):
    def mutate(blob):
        blob["regions"][new] = blob["regions"].pop(name)
    return mutate


def _shrink_region(name):
    """The region cut to 2^-30 either side of its midpoint."""
    def mutate(blob):
        mid = sum(map(Fraction, blob["regions"][name])) / 2
        half = Fraction(1, 2 ** 30)
        blob["regions"][name] = [str(mid - half), str(mid + half)]
    return mutate


def _set_ball(name, key, value):
    def mutate(blob):
        _ball_json(blob, name)[key] = value
    return mutate


def _step_region_beside(name):
    """The step region [lo, hi] moved to [hi, 2 hi - lo], wholly on one side
    of its ball."""
    def mutate(blob):
        lo, hi = map(Fraction, blob["regions"][name])
        blob["regions"][name] = [str(hi), str(2 * hi - lo)]
    return mutate


def _reverse_step_regions(blob):
    for name, region in blob["regions"].items():
        if name.endswith("_step"):
            region.reverse()


def _center_problem(name):
    return f"ball {name} center is not the eigenvector point"


def _region_problem(name):
    return f"{name}: region/ball relation fails"


def _image_problem(name):
    target = pingpong._CONDITIONS[name][3]
    return f"{name}: image is not certified inside {target}"


_NOT_HYPERBOLIC = "{} is not hyperbolic with determinant one"


@pytest.mark.parametrize("mutate, problems", [
    # a region of the other kind than the name's
    (_copy_region("A_pos", "A_rep_step"), [_region_problem("A_pos")]),
    (_copy_region("A_att_step", "A_neg"), [_region_problem("A_att_step")]),
    (_drop_region("B_rep_step"), ["conditions missing: ['B_rep_step']"]),
    (_drop_region("A_pos"), ["conditions missing: ['A_pos']"]),
    (_rename_region("A_pos", "A_pos2"),
     ["conditions missing: ['A_pos']", "unknown condition A_pos2"]),
    (_set_top("generator_b", "1 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"),
     [_NOT_HYPERBOLIC.format("generator_b")]),
    (_set_top("generator_a", "2 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"),
     [_NOT_HYPERBOLIC.format("generator_a")]),
    (_set_top("generator_b", "0 0 0 0; 1 0 0 0; -1 0 0 0; 0 0 0 0"),
     [_NOT_HYPERBOLIC.format("generator_b")]),
    (_set_top("N", 0), ["exponent 0 is below 1"]),
    # a hyperbolic generator, but not the one the A balls are centered on
    (lambda blob: blob.update(generator_a=blob["generator_b"]),
     [_center_problem("A_att"), _center_problem("A_rep")]),
    # a step region with its ends swapped is empty
    (_reverse_step_regions,
     [_region_problem(n) for n in ("A_att_step", "A_rep_step", "B_att_step",
                                   "B_rep_step")]),
    # the complement of a tiny removed interval is not mapped inside
    (_shrink_region("A_pos"), [_image_problem("A_pos")]),
    (_set_ball("B_rep", "radius", "0"), ["ball B_rep has nonpositive radius"]),
    (_set_ball("A_att", "name", "A_at"),
     ["unknown ball A_at", "balls missing: ['A_att']"]),
    # B_att grown past the A_att ball, about 0.0998 away
    (_set_ball("B_att", "radius", "3/40"),
     ["balls are not certified pairwise disjoint",
      _region_problem("B_att_step")]),
    # A maps this region inside A_att, which the region does not enclose
    (_step_region_beside("A_att_step"), [_region_problem("A_att_step")]),
    # A_rep grown past chart s's point at infinity, about 0.0767 away, and
    # past B_rep, about 0.088 away: it is no interval of the slope chart,
    # so no region relation holds on it, though A_pos's ends lie inside
    (_set_ball("A_rep", "radius", "2/25"),
     ["balls are not certified pairwise disjoint", _region_problem("A_pos"),
      _region_problem("A_rep_step")]),
    # an empty removed interval at 0 has K = 0 and no root in chart u: the
    # checker stops at the region problem
    (lambda blob: blob["regions"].update(A_pos=["0", "0"]),
     [_region_problem("A_pos")]),
    # A_att at radius 1 holds the whole line bar the one point at chordal
    # distance 1, so neither chart's point at infinity lies outside it: it is
    # an interval in no chart, no image is certified inside it and no
    # region relation holds on it
    (_set_ball("A_att", "radius", "1"),
     ["balls are not certified pairwise disjoint", _image_problem("A_pos"),
      _region_problem("A_neg"), _region_problem("A_att_step")]),
], ids=["region_kind", "step_region_kind", "dropped_last", "dropped_first",
        "unknown_condition", "identity_generator", "det_two_generator",
        "elliptic_generator", "zero_exponent", "generator",
        "reversed_step_regions",
        "shrunk_region", "zero_radius", "unknown_ball", "overlapping_balls",
        "step_region_beside_ball", "ball_holds_chart_infinity",
        "empty_region_at_zero", "ball_holds_the_line"])
def test_certificate_single_field_mutation_rejected(certificate, mutate,
                                                    problems):
    assert certificate.exponent == 3
    assert verify_certificate(_mutated(certificate, mutate)) == (False,
                                                                 problems)


def _restate(n):
    """The certificate's exponent N set to n."""
    return _set_top("N", n)


def test_certificate_restated_at_a_higher_exponent_passes(certificate):
    """A^N and B^N contract more as N grows, so the N = 3 balls and regions
    also certify N = 2^10."""
    assert verify_certificate(_mutated(certificate, _restate(1 << 10))) == (
        True, [])


@pytest.mark.parametrize("n, failing", [
    (1, ["A_pos", "A_neg", "B_pos", "B_neg"]),
    (2, ["B_pos", "B_neg"]),
])
def test_certificate_restated_at_a_lower_exponent_fails_its_images(
        certificate, n, failing):
    """At N = 1 every complement condition fails, at N = 2 those of B: the
    problems the cell-cover checker listed, one image problem for each
    condition whose cells failed."""
    assert verify_certificate(_mutated(certificate, _restate(n))) == (
        False, [_image_problem(name) for name in failing])


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


def _center_json(blob, name):
    return _ball_json(blob, name)["center"]


def _zero_center(blob):
    _center_json(blob, "A_att").update(v1={"a": "0 0 0 0", "b": "0 0 0 0"},
                                       v2={"a": "0 0 0 0", "b": "0 0 0 0"})


def _swap_a_centers(blob):
    att, rep = _center_json(blob, "A_att"), _center_json(blob, "A_rep")
    for key in ("v1", "v2"):
        att[key], rep[key] = rep[key], att[key]


def _double_center(blob):
    center = _center_json(blob, "B_rep")
    for key in ("v1", "v2"):
        for part in ("a", "b"):
            x = QuarticElem.parse(center[key][part])
            center[key][part] = (x * 2).to_text()


def _shift_d(blob):
    center = _center_json(blob, "A_att")
    center["d"] = (QuarticElem.parse(center["d"]) + ONE).to_text()


def _negate_d(name):
    def mutate(blob):
        center = _center_json(blob, name)
        center["d"] = (-QuarticElem.parse(center["d"])).to_text()
    return mutate


@pytest.mark.parametrize("mutate, problems", [
    # (0, 0) is proportional to every point, so a proportionality test
    # alone passes it
    (_zero_center, [_center_problem("A_att")]),
    (_swap_a_centers, [_center_problem("A_att"), _center_problem("A_rep")]),
    # a center is a projective point: any nonzero multiple passes
    (_double_center, []),
    (_shift_d, [_center_problem("A_att")]),
    # a negative d has no square root: the checker stops before the
    # disjointness and region checks, which would take one
    (_negate_d("A_att"), [_center_problem("A_att")]),
    (_negate_d("B_rep"), [_center_problem("B_rep")]),
], ids=["zero", "swapped", "doubled", "shifted_d", "negated_d",
        "negated_b_d"])
def test_certificate_center_mutations(certificate, mutate, problems):
    """Each center problem is listed, and only a center problem decides
    whether a changed center passes."""
    ok, got = verify_certificate(_mutated(certificate, mutate))
    assert ok == (not problems)
    assert [p for p in got if "center" in p] == problems


# every leaf of the certificate JSON, as its path: the balls sorted by name
_LEAVES = [("N",), ("generator_a",), ("generator_b",)] + [
    ("balls", i, *key) for i in range(4)
    for key in [("name",), ("radius",), ("center", "d")]
    + [("center", v, part) for v in ("v1", "v2") for part in "ab"]
] + [("regions", name, j) for name in pingpong._CONDITIONS for j in (0, 1)]

_NUMBER = re.compile(r"-?\d+(?:/\d+)?")


def _leaf_parent(blob, path):
    """The object holding the leaf at path, and the leaf's key there."""
    *keys, last = path
    for key in keys:
        blob = blob[key]
    return blob, last


# mutations that change a leaf's JSON type: from_json refuses each
_TYPE_SWAPS = ("swap", "bool", "float")


def _mutate_leaf(value, kind, k, char):
    """The leaf with its k-th number (k taken modulo their count) plus or
    minus 1, every number negated, or a stray character inserted at k; or
    with its type changed: a number written as a string and a string as
    the int of its first number, a bool, or a float near its number."""
    if kind in _TYPE_SWAPS:
        found = _NUMBER.search(str(value))
        x = Fraction(found.group() if found else 0)
        return {"swap": str(value) if isinstance(value, int) else int(x),
                "bool": bool(k % 2), "float": float(x) + k % 2 / 10}[kind]
    if isinstance(value, int):
        value = {"plus": value + 1, "minus": value - 1, "negate": -value,
                 "stray": f"{value}{char}"}[kind]
        return value
    if kind == "stray":
        k %= len(value) + 1
        return value[:k] + char + value[k:]
    if kind == "negate":
        return _NUMBER.sub(lambda x: str(-Fraction(x.group())), value)
    numbers = list(_NUMBER.finditer(value))
    if not numbers:
        return value
    x = numbers[k % len(numbers)]
    step = 1 if kind == "plus" else -1
    return value[:x.start()] + str(Fraction(x.group()) + step) + value[x.end():]


@given(st.sampled_from(_LEAVES),
       st.sampled_from(["plus", "minus", "negate", "stray", *_TYPE_SWAPS]),
       st.integers(0, 40), st.sampled_from("x;/ -"))
@example(("balls", 0, "center", "d"), "negate", 0, "x")
@example(("balls", 3, "center", "d"), "negate", 0, "x")
@example(("N",), "float", 0, "x")
@example(("N",), "swap", 0, "x")
@example(("balls", 0, "radius"), "float", 0, "x")
@example(("generator_a",), "swap", 0, "x")
def test_checker_is_total_on_single_leaf_mutations(certificate, leaf, kind,
                                                   k, char):
    """A certificate with one leaf of its JSON changed is refused by
    ``from_json`` as malformed, or gets (ok, problems) from
    ``verify_certificate``; it never raises there.  A leaf of another JSON
    type is always refused, with ``ValueError``.  The two examples give
    a ball a negative d: the cell-cover checker raised on them, taking a
    square root of d in its disjointness test."""
    blob = json.loads(certificate.to_json_text())
    parent, last = _leaf_parent(blob, leaf)
    parent[last] = _mutate_leaf(parent[last], kind, k, char)
    if kind in _TYPE_SWAPS:
        with pytest.raises(ValueError):
            PingPongCertificate.from_json(blob)
        return
    try:
        cert = PingPongCertificate.from_json(blob)
    except (ValueError, KeyError, TypeError):
        return
    ok, problems = verify_certificate(cert)
    assert isinstance(ok, bool) and isinstance(problems, list)
    assert ok == (not problems)


@pytest.mark.parametrize("path, value", [
    (("N",), 3.9), (("N",), 3.0), (("N",), "3"), (("N",), True),
    (("balls", 0, "radius"), 0.025),
    (("regions", "A_pos", 0), -15.47),
    (("balls", 0, "center", "d"), 5),
    (("generator_a",), 7),
    (("regions", "A_pos"), "12"),
    (("regions", "A_pos"), ["-16", "-11", "0"]),
    # a copy of A_att at radius 1/2 listed before the real one
    (("balls",), lambda balls: [dict(balls[0], radius="1/2"), *balls]),
    (("balls",), lambda balls: {b["name"]: b for b in balls}),
    (("balls",), {}),
    (("balls", 0), "A_att"),
    (("regions",), lambda regions: list(regions.values())),
], ids=["float_N", "integral_float_N", "string_N", "bool_N",
        "float_radius", "float_region_end", "int_d", "int_generator",
        "string_region", "triple_region", "repeated_ball", "balls_object",
        "empty_balls_object", "ball_name_for_ball", "regions_list"])
def test_from_json_refuses_what_to_json_does_not_write(certificate, path,
                                                       value):
    """N is an int, every other leaf a string, the balls a list with
    distinct names and each region a pair [lo, hi]: anything else is
    refused, not read as some other value.  A float N was truncated and a
    string N parsed, a float radius or region end read as its nearest
    double, a string region split into its characters, an int where a
    string belongs raised AttributeError, a repeated ball kept its last copy
    unchecked, a balls object or a name in place of a ball raised TypeError
    and an empty balls object was read as no balls.  A callable value maps
    the old one."""
    blob = json.loads(certificate.to_json_text())
    parent, last = _leaf_parent(blob, path)
    parent[last] = value(parent[last]) if callable(value) else value
    with pytest.raises(ValueError):
        PingPongCertificate.from_json(blob)


# nonzero base-field factors a center may be scaled by
_CENTER_FACTORS = (QuarticElem(2), QuarticElem(-1), QuarticElem(1, -1),
                   QuarticElem(Fraction(1, 3), 0, 1, -2))


def _center_variants(centers, name):
    """The named center, its nonzero multiples, its partner (the other
    fixed point of the same generator) and the center with one coordinate
    part changed."""
    c1, c2 = centers[name]
    partner = name[:2] + ("rep" if name.endswith("att") else "att")
    out = [(c1, c2), centers[partner]]
    out += [(c1 * f, c2 * f) for f in _CENTER_FACTORS]
    for i in range(2):
        for da, db in ((ONE, ZERO), (ZERO, ONE)):
            c = [c1, c2]
            c[i] = QuadExt(c[i].a + da, c[i].b + db, c[i].d)
            out.append(tuple(c))
    return out


def test_center_check_matches_the_eigenvector_reference(rng):
    """The fixed-point equation test gives the eigenvector comparison's
    verdict on every nonzero center: the four centers of the paper pair and
    of the drawn pairs of ``test_witness_search_matches_the_ladder_walk_
    reference``, each scaled, swapped with its partner and changed in one
    coordinate part."""
    verdicts = []
    for a, b in [(A2, B2)] + _drawn_hyperbolic_pairs(rng, 32):
        expected = reference_fixed_points(a, b)
        for name in sorted(expected):
            g = a if name[0] == "A" else b
            for center in _center_variants(expected, name):
                if all(x.is_zero() for x in center):
                    continue
                want = not reference_wrong_center(
                    Ball(name, center, Fraction(1, 8)), expected)
                assert pingpong._is_center(g, center, name.endswith("_att")) \
                    == want, (name, center)
                verdicts.append(want)
    assert verdicts.count(True) == 33 * 4 * (1 + len(_CENTER_FACTORS))
    assert verdicts.count(False) >= 33 * 4 * 5


# sha256 of the full certificate JSON of the paper pair's sigma2 views:
# N, the generators, the balls and the regions (`certify --json` prints
# only the balls).
CERTIFICATE_GOLDEN = {
    3: "c0d04cd7b674ee3847e46aaac70c760303c0a321a613610f70ef106683d3b255",
    4: "7d410fec957f2b72dce7ae9de028097da16968a9388ab34ef647ba24d6616c8d",
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
    assert searched == 102
    # exponents 1 and 2 are refuted at the first radius, by a witness
    assert len({ball.radius for ball, _, _ in seen}) == 1
    again = PingPongCertificate.from_json(json.loads(cert.to_json_text()))
    assert verify_certificate(again) == (True, [])
    assert len(seen) == 150
    with pytest.raises(SearchOverflow):
        free_pair_power(*COMPANION)
    assert len({ball.radius for ball, _, _ in seen[150:]}) > 1
    for ball, point, sign in seen:
        assert _reference_sign(ball, point) == sign, (ball.name, point)
    for ball in {id(b): b for b, _, _ in seen}.values():
        _assert_exclusions_match_reference(ball)


# ---------------------------------------------------------------------------
# one cell per root, checked by the checker, against the cell-cover checker,
# the bisecting search and the enclosure disjointness test of
# tests/certificate_reference.py


@pytest.fixture(scope="module")
def pair_search():
    return projective._PairSearch(A2, B2)


def _ladder(search):
    """Every radius ``certify_exponent`` tries on the pair."""
    rho = projective._dyadic_near(search.sep / 4)
    return [rho / 2 ** k for k in range(6)]


def _cells(cells):
    return [(c.chart, c.lo, c.hi, c.target_chart) for c in cells]


def _cover_verdict(m, name, region, outer, balls):
    """(verdict, cells) of the cell-cover search and checker, and the
    bisecting reference's verdict and cells, at the outer bound K."""
    gen, expo, _, target, kind = pingpong._condition_spec(name, 1)
    cond = MappingCondition(name, gen, expo, region, kind, outer, target)
    ok = cover_certify_condition(m, cond, balls)
    want, cells = reference_certify_condition(m, cond, balls)
    return (ok, _cells(cond.cells) if ok else None), (want, _cells(cells)
                                                     if want else None)


def test_one_cell_search_matches_bisecting_reference_on_the_paper_pair(
        pair_search):
    """At exponents 1-4 and every radius of the ladder, each condition's
    searched region gets the same verdict from the checker's root test as
    from the cell-cover checker and the bisecting reference, which also
    agree on the cells."""
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
                ok = pingpong._condition_holds(m, region, kind, balls[target])
                cover, bisected = _cover_verdict(m, name, region,
                                                 cover_outer(region), balls)
                assert cover == bisected and cover[0] == ok, (rho, n, name)
                verdicts.add(ok)
    assert verdicts == {True, False}


def _outer_bounds(region):
    """The bounds K the root test is compared at: the least, the cell-cover
    search's, a large one and one off the dyadic grid."""
    least = max(abs(region[0]), abs(region[1]))
    return [least, cover_outer(region), Fraction(1000),
            least + Fraction(1, 3)]


def test_root_check_matches_the_cover_reference(certificate):
    """The root test, which takes K = max(|lo|, |hi|), gives the verdict of
    the cell-cover checker at every K: on the paper certificate's regions
    at N = 1, 2, 3, 4 and 2^10, and on regions drawn around them at the
    ladder's first two radii."""
    a, b = certificate.gen_a, certificate.gen_b
    verdicts = []

    def compare(balls, n, name, region):
        gen, expo, _, target, kind = pingpong._condition_spec(name, n)
        m = (a if gen == "A" else b) ** expo
        ok = pingpong._condition_holds(m, region, kind, balls[target])
        outers = (_outer_bounds(region) if kind == "complement"
                  else [Fraction(1)])
        for outer in outers:
            cover, bisected = _cover_verdict(m, name, region, outer, balls)
            assert cover[0] == bisected[0] == ok, (n, name, region, outer)
        verdicts.append(ok)

    for n in (1, 2, 3, 4, 1 << 10):
        for name, region in certificate.regions.items():
            compare(certificate.balls, n, name, region)
    assert verdicts.count(False) == 6

    search = projective._PairSearch(a, b)
    unit = Fraction(1, 2 ** 24)

    @settings(max_examples=150)
    @given(st.sampled_from(search.radii()[:2]),
           st.sampled_from(sorted(pingpong._CONDITIONS)),
           st.integers(1, 4), st.integers(-2 ** 22, 2 ** 22),
           st.integers(-2 ** 22, 2 ** 22))
    def check(rho, name, n, d_lo, d_hi):
        balls = search._balls(rho)
        lo, hi = certificate.regions[name]
        region = (lo + d_lo * unit, hi + d_hi * unit)
        if region[0] < region[1]:
            compare(balls, n, name, region)

    check()
    assert True in verdicts[40:] and False in verdicts[40:]


def test_disjointness_matches_the_enclosure_reference(certificate, rng):
    """The exact disjointness test agrees with ``proj_dist`` enclosures at
    256 bits wherever they decide: on the six pairs of the paper balls, at
    radii 10^-6 either side of half the A_att-B_att distance, on the six
    pairs at radius 1/4 each, and on the
    fixed points of the drawn pairs of ``test_witness_search_matches_the_
    ladder_walk_reference`` at radii around half of each distance."""
    decided = []

    def compare(b1, b2):
        want = (True if cover_balls_disjoint({"1": b1, "2": b2}, 256)
                else None)
        _, hi, s = proj_dist(b1.center, b2.center, 256)
        if hi < (b1.radius + b2.radius) * s:
            want = False
        if want is not None:
            assert pingpong._disjoint(b1, b2) == want, (b1, b2)
            assert pingpong._disjoint(b2, b1) == want, (b1, b2)
            decided.append(want)

    balls = certificate.balls
    names = sorted(balls)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            compare(balls[n1], balls[n2])
    assert decided == [True] * 6
    lo, hi, s = proj_dist(balls["A_att"].center, balls["B_att"].center, 256)
    half = Fraction(lo + hi, 4 * s)
    for delta in (Fraction(-1, 10 ** 6), Fraction(1, 10 ** 6)):
        compare(Ball("A_att", balls["A_att"].center, half + delta),
                Ball("B_att", balls["B_att"].center, half + delta))
    assert decided[6:] == [True, False]
    # at radius 1/4 each the A_att-B_att and A_rep-B_rep balls, about 0.0998
    # apart, overlap; for A_rep-B_rep both S and T are negative
    quarter = {n: Ball(n, balls[n].center, Fraction(1, 4)) for n in names}
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            compare(quarter[n1], quarter[n2])
    assert decided[8:] == [True, False, True, True, False, True]
    for a, b in _drawn_hyperbolic_pairs(rng, 32):
        centers = reference_fixed_points(a, b)
        names = sorted(centers)
        for i, n1 in enumerate(names):
            for n2 in names[i + 1:]:
                lo, hi, s = proj_dist(centers[n1], centers[n2], 256)
                for f in (Fraction(999, 1000), Fraction(1001, 1000)):
                    r = Fraction(lo + hi, 4 * s) * f
                    compare(Ball(n1, centers[n1], r), Ball(n2, centers[n2], r))
    # the enclosures decide every drawn pair, and each at 999/1000 of half
    # the distance is disjoint, at 1001/1000 not
    assert decided[14:] == [True, False] * (32 * 6)


def test_root_check_needs_the_pole_test():
    """t -> -1/t maps both ends of the root [-a, a] inside a ball around
    slope 0, but t = 0 onto the slope chart's point at infinity: the pole
    test alone rejects the root."""
    m = RingMat2(ZERO, ONE, -ONE, ZERO)
    d = QuarticElem(2)
    ball = Ball("z", (QuadExt.of_base(ONE, d), QuadExt.of_base(ZERO, d)),
                Fraction(1, 4))
    a = Fraction(100)
    assert ball.excludes_chart_infinity("s")
    for t in (-a, a):
        assert ball.membership_sign(pingpong._image_pair(m, "s", t)) == (
            Sign.NEGATIVE)
    pole = pingpong._image_pair(m, "s", Fraction(0))
    assert not any(pole[0])
    assert ball.membership_sign(pole) == Sign.POSITIVE
    assert not pingpong._pole_free(m, "s", -a, a, "s")
    assert not pingpong._root_holds(m, ("s", -a, a), ball)
    assert not pingpong._condition_holds(m, (-a, a), "interval", ball)
    # the halves on either side of the pole pass
    assert pingpong._root_holds(m, ("s", a / 2, a), ball)


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
    # chart u's at -1; a root that touches a pole is not pole-free
    m = RingMat2(QuarticElem(2), ONE, ONE, ONE)
    for lo, hi, chart, want in ((-2, -2, "s", False), (-3, -2, "s", False),
                                (-3, -1, "s", False), (-1, 0, "s", True),
                                (-1, -1, "u", False), (-2, -1, "u", False),
                                (-3, -2, "u", True), (0, 5, "u", True)):
        lo, hi = Fraction(lo), Fraction(hi)
        assert pingpong._pole_free(m, "s", lo, hi, chart) == want
        assert cover_pole_free(m, Cell("s", lo, hi), chart) == want
        assert reference_cell_pole_free(m, Cell("s", lo, hi), chart) == want


def _positive_multiple(p, q):
    """Whether the int point p is a positive rational multiple of q."""
    p, q = p[0] + p[1], q[0] + q[1]
    k = next(i for i, x in enumerate(q) if x)
    scale = Fraction(p[k], q[k])
    return scale > 0 and all(x == scale * y for x, y in zip(p, q))


def test_one_cell_search_matches_bisecting_reference_at_poles(pair_search):
    """Roots built to straddle a pole of a generator power get the same
    verdict from the root test as from one cell of the cell-cover checker
    and from the bisecting reference.  The reference bisects some of them,
    and each of those fails: the pole maps onto a chart's point at
    infinity, and a ball convex in that chart lies away from it.  Besides
    the ladder's radii, at 1/8 and 1/4 some balls are convex in one chart
    only."""
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
            assert pingpong._pole_free(m, chart, root.lo, root.hi, c) == \
                reference_cell_pole_free(m, root, c)
        for t in (root.lo, root.hi):
            assert _positive_multiple(pingpong._image_pair(m, chart, t),
                                      reference_image_pair(m, chart, t))
        ok = pingpong._root_holds(m, (chart, root.lo, root.hi), ball)
        cell = cover_root_cell(m, root, ball)
        assert ok == (cell is not None and cover_recheck_cell(m, cell, ball))
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


# a condition by its region kind and target ball
_CONDITION_OF = {(kind, target): name for name, (*_, target, kind)
                 in pingpong._CONDITIONS.items()}


def test_paper_search_certifications(monkeypatch):
    """The paper search certifies 16 conditions, each once, by the
    checker's condition test and nothing else, all at the first radius,
    the only one whose balls it builds.  A witness refutes exponent 1 at
    ``A_pos`` and exponent 2 at ``B_pos``; the check after exponent 1 that
    the radius is live certifies the four step conditions, which every
    later exponent shares; exponents 4 and 3 certify their four complement
    conditions."""
    names = []
    real = projective._condition_holds

    def spy(m, region, kind, ball):
        names.append(_CONDITION_OF[kind, ball.name])
        return real(m, region, kind, ball)

    radii = set()
    real_balls = projective._PairSearch._balls

    def balls_spy(search, rho):
        radii.add(rho)
        return real_balls(search, rho)

    monkeypatch.setattr(projective, "_condition_holds", spy)
    monkeypatch.setattr(projective._PairSearch, "_balls", balls_spy)
    assert free_pair_power(P, Q).exponent == 3
    complements = ["A_pos", "A_neg", "B_pos", "B_neg"]
    assert names == (["A_pos", "A_att_step", "A_rep_step", "B_att_step",
                      "B_rep_step", "A_pos", "A_neg", "B_pos"]
                     + complements + complements)
    assert len(names) == 16
    assert radii == {projective._PairSearch(A2, B2).radii()[0]}


def test_paper_search_runs_one_pole_test_per_root(monkeypatch):
    """Each root of the 16 certifications gets at most one pole test, in
    the slope chart: the 12 complement conditions have three roots each
    and the 4 step conditions one, 40 in all, but the two failing
    conditions, ``A_pos`` at N = 1 and ``B_pos`` at N = 2, stop at their
    first root.  The checker then tests each root of the N = 3
    certificate once more, 16 in all."""
    seen = []
    real = pingpong._pole_free

    def spy(m, chart, lo, hi, target_chart):
        seen.append((id(m), chart, lo, hi, target_chart))
        return real(m, chart, lo, hi, target_chart)

    monkeypatch.setattr(pingpong, "_pole_free", spy)
    cert = free_pair_power(P, Q)
    searched = list(seen)
    assert len(searched) == len(set(searched)) == 40 - 2 * 2
    assert {t for *_, t in searched} == {"s"}
    seen.clear()
    assert verify_certificate(cert) == (True, [])
    assert len(seen) == len(set(seen)) == 4 * 3 + 4


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
        cond = MappingCondition(name, gen, expo, region, "complement",
                                cover_outer(region), target.name)
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
    companion = tuple(m.real_view() for m in COMPANION)
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
        projective._search_region(ball, "complement")) / 2)
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
    assert north_south(A2, B2)


def test_noncommuting_power_pair_fails_hypotheses():
    assert not north_south(A2, A2 * A2)


def test_noncommuting_inverse_pair_fails_hypotheses():
    assert not north_south(B2, B2.inv())


# a maps b's fixed point (1, 0) onto b's other fixed point (0, 1), and
# shares neither with b
_SWAP_A = RingMat2(ZERO, -ONE, ONE, QuarticElem(3))
_SWAP_B = RingMat2(QuarticElem(2), ZERO, ZERO, QuarticElem(Fraction(1, 2)))


def test_north_south_matches_reference(rng):
    """The one-resultant test gives the verdict of the criterion as it was
    written on the dominance analysis, on the paper pair's sigma2 and
    identity views (P is elliptic in the identity view), powers, inverses,
    drawn word pairs and a pair whose first matrix maps a fixed point of
    the second onto the other, with its variants.  The pairs reach each
    reason the reference gives for its verdict."""
    pairs = [(A2, B2), (B2, A2), (A2, A2 * A2), (B2, B2.inv()), (P, Q),
             (Q, P), (Q, B2)]
    pairs += [(_SWAP_A, _SWAP_B), (_SWAP_A.inv(), _SWAP_B),
              (_SWAP_A, _SWAP_B.inv()), (_SWAP_B, _SWAP_A)]
    words = reference_words(3)[1:]
    for view in ((A2, B2), (P, Q)):
        for _ in range(12):
            pairs.append(tuple(reference_word_matrix(rng.choice(words), 1,
                                                     view)
                               for _ in range(2)))
    reasons = set()
    for a, b in pairs:
        want = dominance_reference.noncommuting_check(a, b)
        assert north_south(a, b) == want.holds, (a, b, want.reason)
        reasons.add(want.reason)
    assert reasons == {
        "inputs are not hyperbolic-like", "shared fixed point",
        "first matrix preserves the fixed pair of the second",
        "north-south dynamics forces AB != BA"}


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
