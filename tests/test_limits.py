"""Limit-candidate checker and bounded search."""

from fractions import Fraction

import pytest

from quartic.construction import paper_generators
from quartic.errors import NonIntegralInput, NotUnimodular
from quartic.intervals import DEFAULT_BITS
from quartic.limits import (
    LimitCandidate,
    _entry_grid,
    _entry_residuals,
    check_limit_conditions,
    default_targets,
    margin_uniformity_probe,
    search_limit_candidates,
)
from quartic.linalg import MatClass, RingMat2, classify, share_eigenvector
from quartic.ring import QuarticElem, galois

P, Q = paper_generators()

# frozen from the exhaustive bound-1 scan (its own oracle): the four
# companion-shaped candidates ranked closest to the default targets
GOLDEN_B1_PREFIX = [
    "0 -1 -1 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 0 -1 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 0 -1 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "-1 -1 -1 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
]

# frozen from search_limit_candidates(2, count=8) before the exact rank
# table replaced the float shortlist
GOLDEN_BOUND2_TOP8 = [
    "2 -1 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 0 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 -1 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 -1 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 -1 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 0 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 -2 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 -2 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
]

# frozen from search_limit_candidates(2, count=25) with the all-pairs
# product join, before the threshold rounds
GOLDEN_BOUND2_TOP25 = [
    "2 -1 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 0 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 -1 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 -1 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 -1 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 0 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 -2 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 -2 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "-1 -2 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 -2 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 0 -1 1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 1 0 1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "-1 -1 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 0 0 1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 1 0 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 -1 -1 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 -1 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 0 -2 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 -2 -2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "2 1 1 1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 0 -1 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 0 -1 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "-1 -1 -1 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "0 -1 -1 -1; 1 0 0 0; -1 0 0 0; 0 0 0 0",
    "1 1 0 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
]


def test_candidate_views_match_galois_images():
    cand = LimitCandidate(P)
    v1 = cand.view1()
    v2 = cand.view2()
    for base, got in zip(P.entries(), v1.entries()):
        assert got == base.conj_even()
    for base, got in zip(P.entries(), v2.entries):
        assert got == galois(base, 3)
    assert cand.view3() == P


def test_candidate_requires_integral():
    frac = RingMat2(QuarticElem(Fraction(1, 2)), QuarticElem(0),
                    QuarticElem(0), QuarticElem(2))
    with pytest.raises(NonIntegralInput):
        LimitCandidate(frac)


def test_checker_requires_det_one():
    bad = LimitCandidate(RingMat2(QuarticElem(2), QuarticElem(0),
                                  QuarticElem(0), QuarticElem(1)))
    with pytest.raises(NotUnimodular):
        check_limit_conditions(bad, vi_depth=1)


def test_constant_reference_candidate_fails_structural_condition():
    rep = check_limit_conditions(LimitCandidate(P), vi_depth=2)
    # the second view of P is hyperbolic (must be elliptic) and the
    # identity view is elliptic (must be hyperbolic); the report names both
    assert rep.cond_iv["view1_elliptic"] is False
    assert rep.cond_iv["view3_hyperbolic"] is False
    assert rep.cond_iv["view2_hyperbolic"] is True
    assert rep.cond_viii is True
    assert not rep.passes_iv_and_viii()


def test_zero_odd_part_gives_zero_residual():
    cand = LimitCandidate(Q)          # q = s = 0 in every entry
    rep = check_limit_conditions(cand, vi_depth=1)
    assert rep.residuals_ii_exact_zero
    assert all(iv.hi == 0 for row in rep.residuals_ii for iv in row)


def test_checker_vi_is_probe_only():
    rep = check_limit_conditions(LimitCandidate(Q), vi_depth=3)
    assert rep.cond_vi_probe["probe_only"] is True
    assert rep.cond_vi_probe["relation_scan_depth"] == 3


def test_checker_vi_lists_relations_in_walk_order():
    rot = RingMat2(QuarticElem(0), QuarticElem(1), QuarticElem(-1),
                   QuarticElem(0))
    rep = check_limit_conditions(LimitCandidate(rot), vi_depth=4)
    assert rep.cond_vi_probe["relations_found"] == [
        "f f f f", "f^-1 f^-1 f^-1 f^-1"]


def test_checker_tolerance_schedule():
    rep = check_limit_conditions(LimitCandidate(Q), vi_depth=1, seq_index=3)
    assert any("tolerance" in note for note in rep.notes)
    custom = default_targets()
    custom.tolerances = [Fraction(1)]
    assert custom.tolerance_at(7) == Fraction(1)
    assert default_targets().tolerance_at(4) == Fraction(1, 16)


def test_search_bound_one_golden_prefix():
    cands = search_limit_candidates(1, count=10)
    texts = [c.matrix.to_text() for c in cands]
    assert texts[:4] == GOLDEN_B1_PREFIX


def test_search_bound_two_golden_top8():
    cands = search_limit_candidates(2, count=8)
    assert [c.matrix.to_text() for c in cands] == GOLDEN_BOUND2_TOP8


def test_search_bound_two_golden_top25():
    cands = search_limit_candidates(2, count=25)
    assert [c.matrix.to_text() for c in cands] == GOLDEN_BOUND2_TOP25


def test_search_pruning_is_exact():
    # a count above the number of candidates never prunes, so this is every
    # bound-1 matrix passing conditions iv and viii
    full = search_limit_candidates(1, count=10 ** 6)
    assert len(full) == 7392
    targets = default_targets()
    keys = []
    for cand in full:
        rank = sum(iv.hi for i, row in enumerate(_entry_grid(cand.matrix))
                   for j, e in enumerate(row)
                   for iv in _entry_residuals(e, targets.u[i][j],
                                              targets.v[i][j], DEFAULT_BITS))
        keys.append((rank, [c for row in cand.coeff_grid() for c in row]))
    assert keys == sorted(keys)
    # at count 53 a full best list must swap its last entry for a later hit
    # of equal rank and smaller coefficients
    for k in (1, 8, 25, 53):
        assert search_limit_candidates(1, count=k) == full[:k]


def test_search_zero_bound_is_empty():
    assert search_limit_candidates(0, count=5) == []


def test_search_results_pass_checker():
    cands = search_limit_candidates(1, count=6)
    assert cands
    for cand in cands:
        assert classify(cand.matrix, 2) == MatClass.ELLIPTIC
        assert classify(cand.matrix, 0) == MatClass.HYPERBOLIC
        assert classify(cand.matrix, 3) in (MatClass.HYPERBOLIC,
                                            MatClass.LOXODROMIC)
        assert not share_eigenvector(cand.matrix, Q, 0)
        rep = check_limit_conditions(cand, vi_depth=2)
        assert rep.passes_iv_and_viii()


def test_search_deterministic():
    a = [c.matrix.to_text() for c in search_limit_candidates(1, count=10)]
    b = [c.matrix.to_text() for c in search_limit_candidates(1, count=10)]
    assert a == b


def test_candidate_json_roundtrip():
    cand = search_limit_candidates(1, count=1)[0]
    again = LimitCandidate.from_json(cand.to_json())
    assert again.matrix == cand.matrix


def test_margin_uniformity_probe_smoke():
    cands = search_limit_candidates(1, count=2)
    rows = margin_uniformity_probe(cands, 2, 3, Fraction(1, 2))
    assert len(rows) == 2
    for row in rows:
        assert row.margin.lo > 0
        assert row.witness
        assert isinstance(row.near_identity_words, list)
    # identity word never appears
    for row in rows:
        for entry in row.near_identity_words:
            assert entry["word"] != "<empty>"


def test_margin_uniformity_accepts_json_candidates():
    cands = search_limit_candidates(1, count=1)
    rows = margin_uniformity_probe([cands[0].to_json()], 2, 2, Fraction(1, 4))
    assert len(rows) == 1
