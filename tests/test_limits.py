"""Limit-candidate checker and bounded search."""

import functools
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import quartic
from quartic import intervals, limits, ring
from quartic.construction import paper_generators
from quartic.errors import NonIntegralInput, NotUnimodular
from quartic.intervals import DEFAULT_BITS
from quartic.limits import (
    LimitCandidate,
    _rank_tables,
    check_limit_conditions,
    margin_uniformity_probe,
    search_limit_candidates,
)
from quartic.linalg import MatClass, RingMat2, classify, share_eigenvector
from quartic.ring import QuarticElem

from interval_reference import Interval
from matrix_reference import sigma3_commutator_nontrivial

P, Q = paper_generators()
ROOT = pathlib.Path(__file__).resolve().parent.parent

# the paper's limit targets, row-major (u, v) enclosures per position: the
# companion matrices [[t, 1], [-1, 0]] of Q's trace t = 3 + 2 sqrt2 and of
# its conjugate 3 - 2 sqrt2
PAPER_TARGETS = [(QuarticElem(c, 0, t, 0).interval(),
                  QuarticElem(c, 0, -t, 0).interval())
                 for c, t in ((3, 2), (1, 0), (-1, 0), (0, 0))]

# sha256 of the residual grids and notes of check_limit_conditions(..,
# vi_depth=1).to_json() for the eight bound-2 candidates, frozen before the
# targets became fixed, and of their exact endpoints, frozen at the parent
# of the integer rank tables
GRIDS_BOUND2_TOP8_SHA256 = (
    "3bb9ef0db34780203beda1cff1b219ec3ad47e64168f877f7005b9ee00da4972")
EXACT_BOUND2_TOP8_SHA256 = (
    "8066271b510bbeb35322d0e502219d12026aa42d32a90897c8b5816814700169")
# stdout of scripts/limit_candidate_search.py --bound 2 --count 6
# --margin-L 2, frozen at the same parent
SCRIPT_STDOUT_SHA256 = (
    "5376ec7e6205967567771d175bac05cdb2765bebcd26260571246c8f32fa0bf2")


def reference_residuals(e: QuarticElem, u, v, bits: int = DEFAULT_BITS):
    """Slow reference: Fraction enclosures of one entry's residuals, the
    even part p - r b^2 against the target enclosure u, the odd part
    q b - s b^3 against zero and the second view against v."""
    p, q, r, s = e.coeffs()
    return tuple(abs(Interval.of(x.interval(bits)) - Interval.of(t))
                 for x, t in ((QuarticElem(p, 0, -r, 0), u),
                              (QuarticElem(0, q, 0, -s), (0, 0, 1)),
                              (e.conj_even(), v)))


@functools.cache
def reference_entry_rank(k: int, coeffs: tuple) -> Fraction:
    """The reference rank of an entry at row-major position k."""
    return sum(iv.hi for iv in reference_residuals(QuarticElem(*coeffs),
                                                   *PAPER_TARGETS[k]))


def reference_key(cand: LimitCandidate):
    """Sort key of a candidate in the search order: its reference rank,
    then its coefficients."""
    grid = [tuple(row) for row in cand.coeff_grid()]
    return (sum(reference_entry_rank(k, c) for k, c in enumerate(grid)),
            [c for row in grid for c in row])


# frozen from the exhaustive bound-1 scan (its own oracle): the four
# companion-shaped candidates ranked closest to the paper's targets
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
    for base, got in zip(P.entries(), v1.entries()):
        assert got == base.conj_even()
    assert cand.matrix == P


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


def _random_sl2(rng) -> RingMat2:
    """A product of two to four elementary matrices over Z[beta]."""
    out = RingMat2.identity()
    for _ in range(rng.randint(2, 4)):
        x = QuarticElem(*(rng.randint(-2, 2) for _ in range(4)))
        e = (1, x, 0, 1) if rng.random() < 0.5 else (1, 0, x, 1)
        out = out * RingMat2(*e)
    return out


def test_commutator_verdict_matches_sigma3_reference(rng):
    """Both commutator keys carry the ring verdict on sigma2, and it is
    the verdict of the sigma1/sigma3 route taken in the complex views, on
    random det-1 candidates with a beta-odd part, a sixth of them
    sigma2(Q^k), whose commutator with the paper Q is trivial."""
    trivial = 0
    for i in range(120):
        if i % 6 == 0:
            m = (Q ** rng.choice((1, -1, 2))).real_view()
        else:
            m = _random_sl2(rng)
        if m.is_scalar():
            continue
        vii = check_limit_conditions(LimitCandidate(m), vi_depth=1).cond_vii
        want = sigma3_commutator_nontrivial(Q, m)
        assert vii == {"commutator_view1": want, "commutator_view2": want}
        trivial += not want
    assert trivial >= 10


def test_constant_reference_candidate_fails_structural_condition():
    rep = check_limit_conditions(LimitCandidate(P), vi_depth=2)
    # the second view of P is hyperbolic (must be elliptic) and the
    # identity view is elliptic (must be hyperbolic); the report names both
    assert rep.cond_iv["view1_elliptic"] is False
    assert rep.cond_iv["view3_hyperbolic"] is False
    assert rep.cond_iv["view2_hyperbolic"] is True
    assert rep.cond_viii is True
    assert not (all(rep.cond_iv.values()) and rep.cond_viii)


def test_zero_odd_part_gives_zero_residual():
    cand = LimitCandidate(Q)          # q = s = 0 in every entry
    rep = check_limit_conditions(cand, vi_depth=1)
    assert rep.residuals_ii_exact_zero
    assert all(hi == 0 for row in rep.residuals_ii for _, hi, _ in row)


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


@pytest.fixture(scope="module")
def bound1_all():
    # a count above the number of candidates never prunes, so this is every
    # bound-1 matrix passing conditions iv and viii
    return search_limit_candidates(1, count=10 ** 6)


def test_search_pruning_is_exact(bound1_all):
    full = bound1_all
    assert len(full) == 7392
    keys = list(map(reference_key, full))
    assert keys == sorted(keys)
    # at count 53 a full best list must swap its last entry for a later hit
    # of equal rank and smaller coefficients
    for k in (1, 8, 25, 53):
        assert ([c.matrix for c in search_limit_candidates(1, count=k)]
                == [c.matrix for c in full[:k]])


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
        assert not share_eigenvector(cand.matrix, Q)
        rep = check_limit_conditions(cand, vi_depth=2)
        assert all(rep.cond_iv.values()) and rep.cond_viii


def test_search_deterministic():
    a = [c.matrix.to_text() for c in search_limit_candidates(1, count=10)]
    b = [c.matrix.to_text() for c in search_limit_candidates(1, count=10)]
    assert a == b


def test_margin_uniformity_probe_smoke():
    cands = search_limit_candidates(1, count=2)
    rows = margin_uniformity_probe(cands, 2, 3, Fraction(1, 2))
    assert len(rows) == 2
    for row in rows:
        assert row.margin[0] > 0
        assert row.witness
        assert isinstance(row.near_identity_words, list)
    # identity word never appears
    for row in rows:
        for entry in row.near_identity_words:
            assert entry["word"] != "<empty>"


# sha256 of the sorted-key JSON of the uniformity rows of the first three
# bound-2 candidates at N = 2, L = 3, eps = 1/2: margins and the chordal
# distances of near-identity words to the eigenvector points
UNIFORMITY_GOLDEN = (
    "50568c0ea4c81a8379b39594a30ec0daf13b16fbc5f7e811fdc9e3af6aa0165a")


def test_margin_uniformity_probe_matches_golden():
    rows = margin_uniformity_probe(search_limit_candidates(2, count=8)[:3],
                                   2, 3, Fraction(1, 2))
    blob = json.dumps([row.to_json() for row in rows], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == UNIFORMITY_GOLDEN


def test_rank_tables_match_reference_bound_two():
    tables = _rank_tables(2)
    entries = list(itertools.product(range(-2, 3), repeat=4))
    for k, table in enumerate(tables):
        assert len(table) == len(entries)
        for coeffs, rank in zip(entries, table):
            assert Fraction(rank, 1 << DEFAULT_BITS) == (
                reference_entry_rank(k, coeffs)), (k, coeffs)


def test_search_encloses_no_entry_on_its_own(monkeypatch):
    calls = []
    real = intervals.dyadic_bounds

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(limits, "dyadic_bounds", spy)
    monkeypatch.setattr(ring, "dyadic_bounds", spy)
    assert search_limit_candidates(2, count=8)
    # 50 pair enclosures and 8 targets; one per entry would be 2,500+
    assert 0 < len(calls) <= 200


def test_checker_residual_grids_unchanged():
    cands = search_limit_candidates(2, count=8)
    keys = ("residuals_even_part", "residuals_odd_part",
            "residuals_second_view", "notes")
    reps = [check_limit_conditions(c, vi_depth=1) for c in cands]
    blob = json.dumps([{k: rep.to_json()[k] for k in keys} for rep in reps],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        GRIDS_BOUND2_TOP8_SHA256)
    exact = [[[[str(Fraction(lo, s)), str(Fraction(hi, s))]
               for row in grid for lo, hi, s in row]
              for grid in (rep.residuals_i, rep.residuals_ii,
                           rep.residuals_iii)] for rep in reps]
    assert hashlib.sha256(json.dumps(exact).encode()).hexdigest() == (
        EXACT_BOUND2_TOP8_SHA256)


def test_checker_residuals_match_reference(rng):
    """On the first bound-1 candidates and on random det-1 matrices, whose
    entries reach every coefficient in every position."""
    randoms = [m for m in (_random_sl2(rng) for _ in range(20))
               if not m.is_scalar()]
    for cand in (search_limit_candidates(1, count=6)
                 + [LimitCandidate(m) for m in randoms]):
        rep = check_limit_conditions(cand, vi_depth=1)
        for k, e in enumerate(cand.matrix.entries()):
            i, j = divmod(k, 2)
            ref = reference_residuals(e, *PAPER_TARGETS[k])
            got = (rep.residuals_i[i][j], rep.residuals_ii[i][j],
                   rep.residuals_iii[i][j])
            assert [Interval.of(g).ends() for g in got] == [
                r.ends() for r in ref]


def test_limit_candidate_script_stdout_unchanged():
    src = str(pathlib.Path(quartic.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "limit_candidate_search.py"),
         "--bound", "2", "--count", "6", "--margin-L", "2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        check=True).stdout
    assert hashlib.sha256(out).hexdigest() == SCRIPT_STDOUT_SHA256
