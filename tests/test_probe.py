"""The word walker, margins, freeness, torsion, dual smallness."""

import concurrent.futures
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from quartic.construction import paper_generators
from quartic.errors import DepthTooLarge, NotUnimodular
from quartic.limits import (LimitCandidate, margin_uniformity_probe,
                            search_limit_candidates)
from quartic.linalg import (
    RingMat2,
    _mat,
    int_matrices,
    is_scalar4,
    sqrt_of_square_interval,
)
from quartic import linalg, probe
from quartic.probe import (
    ReducedWord,
    discreteness_margin,
    dual_smallness_scan,
    freeness_certificate,
    torsion_probe,
    walk_words,
    word_count,
)
from quartic.ring import QuarticElem, Sign

from matrix_reference import RefMat2, entry_dist_sq
from word_reference import (inverse_codes, parse_word, reference_word_matrix,
                            reference_words)

P, Q = paper_generators()
ROOT = pathlib.Path(__file__).resolve().parent.parent
# the paper pair conjugated by diag(2, 1/2): rational, determinant one
_H = RingMat2(QuarticElem(2), QuarticElem(0), QuarticElem(0),
              QuarticElem(Fraction(1, 2)))
P_RAT, Q_RAT = _H * P * _H.inv(), _H * Q * _H.inv()
# g21 = -g12 in both, and neither is companion-shaped
SWAP_A = RingMat2(QuarticElem(1), QuarticElem(2), QuarticElem(-2),
                  QuarticElem(-3))
SWAP_B = RingMat2(QuarticElem(1, -1), QuarticElem(0, 1), QuarticElem(0, -1),
                  QuarticElem(1, 1))


def _companion_pair(seed):
    """Two companion matrices [[t, 1], [-1, 0]], each coefficient of t drawn
    from -3..3 over 1 or 2."""
    rng = random.Random(seed)
    return tuple(RingMat2(QuarticElem(*[Fraction(rng.randint(-3, 3),
                                                 rng.choice((1, 2)))
                                        for _ in range(4)]),
                          QuarticElem(1), QuarticElem(-1), QuarticElem(0))
                 for _ in range(2))


def _flip(codes):
    """The word with every letter inverted."""
    return tuple(c ^ 1 for c in codes)


# ---------------------------------------------------------------------------
# words


def test_word_counts():
    assert word_count(0) == 1
    assert word_count(1) == 5
    assert word_count(3) == 53
    for depth in range(5):
        assert len(reference_words(depth)) == word_count(depth)


def test_words_are_unique_and_reduced():
    words = reference_words(4)
    assert len(set(words)) == len(words)
    assert all(codes[i] ^ 1 != codes[i + 1]
               for codes in words for i in range(len(codes) - 1))


def test_reduced_word_str():
    codes = parse_word("f g f^-1 g^-1")
    assert str(ReducedWord(codes)) == "f g f^-1 g^-1"
    assert str(ReducedWord(inverse_codes(codes))) == "g f g^-1 f^-1"
    assert str(ReducedWord()) == "<empty>"


def test_reference_word_matrix_examples():
    assert reference_word_matrix((), 5, (P, Q)).is_identity()
    comm = reference_word_matrix(parse_word("f g f^-1 g^-1"), 1, (P, Q))
    assert not comm.is_identity()
    assert reference_word_matrix(parse_word("f f"), 1, (P, Q)) == P ** 2


def test_reference_word_matrix_homomorphism(rng):
    words = reference_words(3)[1:]
    for _ in range(500):
        u = words[rng.randrange(len(words))]
        v = words[rng.randrange(len(words))]
        if u[-1] ^ 1 == v[0]:
            continue            # u v is not freely reduced as written
        assert (reference_word_matrix(u + v, 2, (P, Q))
                == reference_word_matrix(u, 2, (P, Q))
                * reference_word_matrix(v, 2, (P, Q)))


def _check_walk(pair, n):
    gens, den = int_matrices([m for g in pair for m in (g ** n, g ** -n)])
    for depth in range(5):
        walked = list(walk_words(gens, depth))
        codes = [c for c, _ in walked]
        assert codes == sorted(reference_words(depth)[1:])
        for c, mat in walked:
            assert _mat(mat, den ** len(c)) == reference_word_matrix(
                c, n, pair)
    return den


def test_walk_words_is_lexicographic_and_matches_enumeration():
    assert _check_walk((P, Q), 1) == 1


def test_walk_words_rational_letters_share_one_denominator():
    assert _check_walk((P_RAT, Q_RAT), 2) > 1


def test_walk_words_scalar_test_matches_ring_matrices():
    # S^2 = -I and S^4 = I, so words in S and P hit both signs
    s = RingMat2(QuarticElem(0), QuarticElem(-1), QuarticElem(1),
                 QuarticElem(0))
    pair = (s, P_RAT)
    gens, den = int_matrices([s, s.inv(), P_RAT, P_RAT.inv()])
    for sign in (1, -1):
        hits = [c for c, m in walk_words(gens, 4)
                if is_scalar4(m, sign * den ** len(c))]
        want = [c for c in reference_words(4)[1:] if (
            reference_word_matrix(c, 1, pair).is_identity() if sign == 1
            else reference_word_matrix(c, 1, pair).is_neg_identity())]
        assert hits and sorted(hits) == sorted(want)


def test_walk_words_roots_partition_the_walk():
    gens, _ = int_matrices([P, P.inv(), Q, Q.inv()])
    full = [c for c, _ in walk_words(gens, 3)]
    parts = [c for first in range(4)
             for c, _ in walk_words(gens, 3, (first,))]
    assert parts == full
    for first in range(4):
        assert all(c[0] == first for c, _ in walk_words(gens, 3, (first,)))


def test_walk_words_paired_keeps_one_word_of_each_inverse_pair():
    gens, _ = int_matrices([P, P.inv(), Q, Q.inv()])
    for depth in range(1, 5):
        full = list(walk_words(gens, depth))
        paired = list(walk_words(gens, depth, paired=True))
        assert paired == [(c, m) for c, m in full if inverse_codes(c) > c]
        assert 2 * len(paired) == len(full)


def test_walk_words_swap_symmetry_reversal_rule():
    gens, _ = int_matrices([P, P.inv(), Q, Q.inv()])
    for depth in range(1, 6):
        full = list(walk_words(gens, depth, (0, 2)))
        kept = list(walk_words(gens, depth, (0, 2), paired=True,
                               reversal=True))
        assert kept == [(c, m) for c, m in full
                        if inverse_codes(c) > c and c[::-1] >= c]
        # each orbit {W, W^-1, flip W, reverse W} once, by its least word
        orbits = {min(c, inverse_codes(c), _flip(c), c[::-1])
                  for c in reference_words(depth)[1:]}
        assert sorted(orbits) == [c for c, _ in kept]


# ---------------------------------------------------------------------------
# margins


def test_margin_depth_one_is_min_over_generators():
    rep = discreteness_margin(2, 1)
    ident = RingMat2.identity()
    gens = [P ** 2, (P ** 2).inv(), Q ** 2, (Q ** 2).inv()]
    best = None
    for g in gens:
        d0 = entry_dist_sq(g, ident, 0)
        d1 = entry_dist_sq(g, ident, 1)
        m = d1 if (d1 - d0).sign() == Sign.POSITIVE else d0
        if best is None or (m - best).sign() == Sign.NEGATIVE:
            best = m
    assert rep.margin_sq == best


def test_margin_monotone_and_positive():
    rep = discreteness_margin(2, 4)
    assert rep.margin[0] > 0
    values = [Fraction(hi, s) for _, (_, hi, s) in rep.per_depth]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_margin_witness_ties_include_inverse():
    rep = discreteness_margin(2, 3)
    ties = [w.codes for w in rep.ties]
    assert rep.witness.codes in ties
    assert inverse_codes(rep.witness.codes) in ties


def test_margin_threads_agree():
    a = discreteness_margin(2, 3, threads=1)
    b = discreteness_margin(2, 3, threads=2)
    assert a.margin_sq == b.margin_sq
    assert str(a.witness) == str(b.witness)
    assert [str(w) for w in a.ties] == [str(w) for w in b.ties]


def _word_distances(n, depth, pair, views):
    """Slow reference: the exact squared product-metric distance of every
    nonempty reduced word, inverses included, shortest first, on RefMat2
    products and entry_dist_sq.  Each word's product is its prefix's times
    its last letter."""
    ident = RefMat2.identity()
    p, q = pair
    letters = [RefMat2(*m.entries())
               for m in (p ** n, p ** -n, q ** n, q ** -n)]
    mats = {(): ident}
    out = {}
    for codes in reference_words(depth)[1:]:
        mat = mats[codes] = mats[codes[:-1]] * letters[codes[-1]]
        d = entry_dist_sq(mat, ident, views[0])
        d1 = entry_dist_sq(mat, ident, views[1])
        out[codes] = d1 if (d1 - d).sign() == Sign.POSITIVE else d
    return out


def _cumulative_minima(dist, depth):
    """{length: least distance over the words no longer than length}."""
    running, out = None, {}
    for length in range(1, depth + 1):
        for codes, d in dist.items():
            if len(codes) == length and (
                    running is None or (d - running).sign() == Sign.NEGATIVE):
                running = d
        out[length] = running
    return out


def _unpaired_margin(n, depth, pair, views):
    """Slow reference margin measuring every word: the exact minimum, its
    ties in (length, codes) order, and the cumulative per-depth
    enclosures."""
    dist = _word_distances(n, depth, pair, views)
    best, ties = None, []
    for codes, d in dist.items():
        s = None if best is None else (d - best).sign()
        if s is None or s == Sign.NEGATIVE:
            best, ties = d, [codes]
        elif s == Sign.ZERO:
            ties.append(codes)
    per_depth = [(length, sqrt_of_square_interval(v))
                 for length, v in _cumulative_minima(dist, depth).items()]
    return best, sorted(ties, key=lambda c: (len(c), c)), per_depth


@pytest.mark.parametrize("n, depth, views, pair", [
    (1, 4, (0, 1), "paper"),
    (2, 4, (0, 1), "paper"),
    (3, 3, (0, 1), "paper"),
    (2, 4, (2, 3), "candidate"),
    # f = g: f g^-1, f g^-1 f g^-1 and the other words equal to I tie at
    # distance zero, several of them in one subtree
    (1, 4, (0, 1), "repeated"),
    # rational entries: every distance over one common denominator
    (1, 4, (0, 1), "rational"),
    (2, 3, (2, 3), "rational"),
    # subtrees scanned by pool workers
    (2, 4, (0, 1), "paper_threads2"),
    # the complex-first views, and a depth where most words are rejected
    # from one entry's bounds
    (2, 4, (2, 3), "paper"),
    (1, 7, (0, 1), "paper"),
    # pruning fires heavily: the paper's depth, and f = g, where the words
    # equal to I bring B to zero
    (3, 8, (0, 1), "paper"),
    (1, 6, (0, 1), "repeated"),
    # the swap-symmetric scan over half the tree: seeded companion pairs,
    # with integral and rational traces, and a pair of other shape
    (2, 4, (0, 1), "swap_symmetry_companion1"),
    (1, 5, (0, 1), "swap_symmetry_companion2"),
    (1, 4, (2, 3), "swap_symmetry_companion3"),
    (1, 5, (0, 1), "swap_symmetry_noncompanion"),
    # only f passes the guard, so all four subtrees are scanned; in views
    # (2, 3) a scan of the f and g subtrees alone misses the minimum f^-1 g
    (2, 4, (0, 1), "swap_symmetry_half"),
    (1, 4, (2, 3), "swap_symmetry_half"),
])
def test_paired_margin_matches_unpaired_reference(n, depth, views, pair):
    pair, threads = {
        "paper": ((P, Q), 1),
        "candidate": ((Q, search_limit_candidates(1, count=1)[0].matrix), 1),
        "repeated": ((P, P), 1),
        "rational": ((P_RAT, Q_RAT), 1),
        "paper_threads2": ((P, Q), 2),
        "swap_symmetry_companion1": (_companion_pair(1), 1),
        "swap_symmetry_companion2": (_companion_pair(2), 1),
        "swap_symmetry_companion3": (_companion_pair(3), 1),
        "swap_symmetry_noncompanion": ((SWAP_A, SWAP_B), 1),
        "swap_symmetry_half": ((P, P_RAT), 1),
    }[pair]
    rep = discreteness_margin(n, depth, pair=pair, views=views,
                              threads=threads)
    best, ties, per_depth = _unpaired_margin(n, depth, pair, views)
    assert rep.margin_sq == best
    assert [w.codes for w in rep.ties] == ties
    assert [(d, Fraction(lo, s), Fraction(hi, s))
            for d, (lo, hi, s) in rep.per_depth] == [
        (d, Fraction(lo, s), Fraction(hi, s))
        for d, (lo, hi, s) in per_depth]


@pytest.mark.parametrize("n, depth, pair", [(2, 5, "paper"),
                                           (1, 6, "repeated")])
def test_pruned_subtrees_hold_no_cumulative_minimum(n, depth, pair,
                                                    monkeypatch):
    """Every word below a node the scan prunes lies strictly above the
    final cumulative minimum for its length, so it could be neither a
    per_depth value nor a tie.  Checked against the exact distance of every
    word."""
    pair = {"paper": (P, Q), "repeated": (P, P)}[pair]
    pruned = []
    real_walk = probe.walk_words

    def walk(*args, prune, **kwargs):
        def spy(codes, mat):
            hit = prune(codes, mat)
            if hit:
                pruned.append(codes)
            return hit
        return real_walk(*args, prune=spy, **kwargs)

    monkeypatch.setattr(probe, "walk_words", walk)
    discreteness_margin(n, depth, pair=pair)
    assert pruned
    dist = _word_distances(n, depth, pair, (0, 1))
    cumulative = _cumulative_minima(dist, depth)
    below = 0
    for node in pruned:
        for codes, d in dist.items():
            if len(codes) > len(node) and codes[:len(node)] == node:
                below += 1
                assert (d - cumulative[len(codes)]).sign() == Sign.POSITIVE
    assert below > len(pruned)


def _spy_scan(monkeypatch, *margin_args, **margin_kwargs):
    """The roots and reversal flag of each walk of a margin scan, and the
    products the walks multiplied."""
    walks, muls = [], [0]
    real_walk = probe.walk_words

    def walk(gens, depth, roots, *args, reversal, **kwargs):
        walks.append((tuple(roots), reversal))

        def mul(a, b):
            muls[0] += 1
            return linalg.mul_mat4(a, b)
        return real_walk(gens, depth, roots, *args, reversal=reversal,
                         mul=mul, **kwargs)

    monkeypatch.setattr(probe, "walk_words", walk)
    discreteness_margin(*margin_args, **margin_kwargs)
    return sorted(walks), muls[0]


@pytest.mark.parametrize("pair, swap", [
    ("paper", True), ("noncompanion", True),
    # the first limit candidate is companion-shaped too
    ("candidate", True),
    ("rational", False), ("half", False),
])
def test_swap_symmetry_guard_picks_the_roots(pair, swap, monkeypatch):
    """With g21 = -g12 in every letter the scan walks the f and g subtrees
    with the reversal rule, else all four subtrees without it."""
    pair = {
        "paper": (P, Q),
        "noncompanion": (SWAP_A, SWAP_B),
        "candidate": (Q, search_limit_candidates(1, count=1)[0].matrix),
        "rational": (P_RAT, Q_RAT),
        "half": (P, P_RAT),
    }[pair]
    walks, _ = _spy_scan(monkeypatch, 1, 3, pair=pair)
    roots = (0, 2) if swap else range(4)
    assert walks == [((r,), swap) for r in roots]


def test_swap_symmetry_halves_the_paper_scan(monkeypatch):
    """At the paper's (3, 8) two subtrees multiply at most 850 products,
    where the four subtrees of the inverse-paired scan multiply 1,686."""
    walks, muls = _spy_scan(monkeypatch, 3, 8)
    assert walks == [((0,), True), ((2,), True)]
    assert muls <= 850


@pytest.mark.parametrize("pair, threads, workers", [
    ((P, Q), 4, 2), ((P_RAT, Q_RAT), 4, 4), ((P_RAT, Q_RAT), 3, 3)])
def test_swap_symmetry_pool_starts_one_worker_per_subtree(
        pair, threads, workers, monkeypatch):
    """The pool never starts more workers than there are subtrees."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    discreteness_margin(1, 3, pair=pair, threads=threads)
    assert sizes == [workers]


@pytest.mark.parametrize("pair", [(P, Q), (SWAP_A, SWAP_B)])
def test_swap_symmetry_orbit_shares_one_distance(pair):
    """M W M = flip W when every letter has g21 = -g12, so flip W and
    reverse W lie at W's distance; checked on every word up to length 5."""
    dist = _word_distances(1, 5, pair, (0, 1))
    for codes, d in dist.items():
        assert dist[_flip(codes)] == d == dist[codes[::-1]], codes


def test_swap_symmetry_needs_the_guard():
    """Where only f has g21 = -g12, some flip W lies at another distance:
    the scan must walk all four subtrees."""
    dist = _word_distances(1, 2, (P, P_RAT), (0, 1))
    assert dist[_flip((0, 2))] != dist[(0, 2)]


def test_margin_falls_through_to_the_exact_path(monkeypatch):
    """On (P, P) the words equal to I tie at distance zero at several
    lengths: one entry's bounds cannot reject such a word, so it falls
    through to view_dist4 and compare_enclosed, whose overlapping bounds
    go to the exact sign4.  Counted by spies on both helpers."""
    calls = {"rejected": 0, "fell_through": 0, "sign4": 0}
    real_exceeds, real_sign4 = probe.entry_exceeds, linalg.sign4

    def exceeds(xs, k, bound):
        hit = real_exceeds(xs, k, bound)
        calls["rejected" if hit else "fell_through"] += 1
        return hit

    def sign4(t):
        calls["sign4"] += 1
        return real_sign4(t)

    monkeypatch.setattr(probe, "entry_exceeds", exceeds)
    monkeypatch.setattr(linalg, "sign4", sign4)
    rep = discreteness_margin(1, 4, pair=(P, P))
    assert min(calls.values()) > 0, calls
    best, ties, _ = _unpaired_margin(1, 4, (P, P), (0, 1))
    assert rep.margin_sq == best == 0
    assert [w.codes for w in rep.ties] == ties


def test_margin_requires_unimodular_generators():
    stretch = RingMat2(QuarticElem(2), QuarticElem(0), QuarticElem(0),
                       QuarticElem(1))
    with pytest.raises(NotUnimodular):
        discreteness_margin(1, 2, pair=(P, stretch))
    # limit candidates reach the margin with no determinant check of their
    # own
    with pytest.raises(NotUnimodular):
        margin_uniformity_probe([LimitCandidate(stretch)], 1, 2,
                                Fraction(1, 2))


def test_margin_depth_cap():
    with pytest.raises(DepthTooLarge):
        discreteness_margin(1, 13)


def test_margin_json_schema_fields():
    rep = discreteness_margin(2, 2)
    blob = rep.to_json()
    assert set(blob) >= {"N", "L", "margin", "witness", "factors"}
    assert set(blob["factors"]) == {"s0", "s1", "s2"}


# ---------------------------------------------------------------------------
# freeness certificate


def test_freeness_certificate_rejects_zero():
    with pytest.raises(ValueError):
        freeness_certificate(0)
    with pytest.raises(ValueError):
        freeness_certificate(3, crosscheck_depth=0)


def test_freeness_certificate_smoke():
    cert = freeness_certificate(3, crosscheck_depth=5)
    assert cert.ok()
    assert cert.words_checked == word_count(5) - 1
    assert cert.pingpong.exponent == 3


# S^4 = T^6 = I, so short words of this pair are +-I
_S = RingMat2(QuarticElem(0), QuarticElem(-1), QuarticElem(1), QuarticElem(0))
_T = RingMat2(QuarticElem(1), QuarticElem(-1), QuarticElem(1), QuarticElem(0))


def _reference_hits(pair, depth):
    """The codes of every nonempty reduced word of length <= depth that is
    +-I, from exact RingMat2 products."""
    hits = []
    for codes in reference_words(depth)[1:]:
        m = reference_word_matrix(codes, 1, pair)
        if m.is_identity() or m.is_neg_identity():
            hits.append(codes)
    return sorted(hits)


def reference_crosscheck(gens, den, depth):
    """``probe._crosscheck`` by walking every word: each nonempty reduced
    word of length <= depth is multiplied in F_p, p = ``probe._PRIME``, and
    one whose image is +-den^k I is multiplied out exactly."""
    p = probe._PRIME
    b = probe._BETA_IMAGE % p
    letters = [tuple([(t[0] + b * (t[1] + b * (t[2] + b * t[3]))) % p
                      for t in g]) for g in gens]

    def mul(x, y):
        x11, x12, x21, x22 = x
        y11, y12, y21, y22 = y
        return ((x11 * y11 + x12 * y21) % p, (x11 * y12 + x12 * y22) % p,
                (x21 * y11 + x22 * y21) % p, (x21 * y12 + x22 * y22) % p)

    count = 0
    hits = []
    for codes, (m11, m12, m21, m22) in walk_words(letters, depth, mul=mul):
        count += 1
        if m12 or m21 or m11 != m22:
            continue
        one = den ** len(codes)
        if m11 not in (one % p, -one % p):
            continue
        mat = probe._word_matrix(gens, codes)
        if is_scalar4(mat, one) or is_scalar4(mat, -one):
            hits.append(codes)
    return count, hits


def _letters_of(pair):
    return int_matrices([pair[0], pair[0].inv(), pair[1], pair[1].inv()])


def _crosscheck_of(pair, depth):
    count, hits = probe._crosscheck(*_letters_of(pair), depth)
    return count, sorted(hits)


def test_crosscheck_finds_the_relators_of_a_torsion_pair():
    count, hits = _crosscheck_of((_S, _T), 6)
    assert count == word_count(6) - 1
    assert hits == _reference_hits((_S, _T), 6)
    assert (0, 0) in hits and (2, 2, 2) in hits and (3, 3, 3) in hits


def test_crosscheck_agrees_with_exact_walk_under_a_weak_filter(monkeypatch):
    # 2^4 = 2 (mod 7) as well, so F_7 is a filter ring for beta -> 2^46 too;
    # about a quarter of the paper words pass it, and the exact fallback
    # rejects each of them
    exact_checks = []
    real = probe.is_scalar4

    def spy(m, s):
        exact_checks.append(s)
        return real(m, s)

    strong = freeness_certificate(3, crosscheck_depth=6)
    strong_relators = _crosscheck_of((_S, _T), 5)
    monkeypatch.setattr(probe, "_PRIME", 7)
    monkeypatch.setattr(probe, "is_scalar4", spy)
    weak = freeness_certificate(3, crosscheck_depth=6)
    assert exact_checks
    assert weak.words_checked == strong.words_checked == word_count(6) - 1
    assert weak.identity_hits == strong.identity_hits == []
    assert _crosscheck_of((_S, _T), 5) == strong_relators
    assert strong_relators[1] == _reference_hits((_S, _T), 5)


# relators of both parities, up to 1,426 hits at depth 9; -I as a letter
# gives relators of length one, which split against the empty word
_MINUS_I = RingMat2(QuarticElem(-1), QuarticElem(0), QuarticElem(0),
                    QuarticElem(-1))
_CROSSCHECK_CASES = (
    [pytest.param((_S, _T), d, id=f"torsion-L{d}") for d in range(1, 10)]
    + [pytest.param((_T, _MINUS_I), d, id=f"central-L{d}")
       for d in range(1, 6)]
    + [pytest.param((P ** n, Q ** n), d, id=f"paper-N{n}-L{d}")
       for n in (1, 2, 3) for d in range(1, 9)])


@pytest.mark.parametrize("prime", [probe._PRIME, 7], ids=["p61", "p7"])
@pytest.mark.parametrize("pair, depth", _CROSSCHECK_CASES)
def test_crosscheck_matches_reference(pair, depth, prime, monkeypatch):
    monkeypatch.setattr(probe, "_PRIME", prime)
    gens, den = _letters_of(pair)
    count, hits = reference_crosscheck(gens, den, depth)
    assert _crosscheck_of(pair, depth) == (count, sorted(hits))
    assert count == word_count(depth) - 1


@pytest.mark.parametrize("depth", range(1, 8))
def test_crosscheck_matches_reference_when_every_key_collides(depth,
                                                              monkeypatch):
    # conjugated by diag(7, 1/7), the torsion pair has denominator 49, so in
    # F_7 every word shorter than the half length keys to zero
    h = RingMat2(QuarticElem(7), QuarticElem(0), QuarticElem(0),
                 QuarticElem(Fraction(1, 7)))
    pair = (h * _S * h.inv(), h * _T * h.inv())
    gens, den = _letters_of(pair)
    assert den % 7 == 0
    monkeypatch.setattr(probe, "_PRIME", 7)
    count, hits = reference_crosscheck(gens, den, depth)
    assert _crosscheck_of(pair, depth) == (count, sorted(hits))
    assert sorted(hits) == _reference_hits(pair, depth)


def test_crosscheck_multiplies_only_half_length_words(monkeypatch):
    """At depth 8 the F_p walk goes to length 4: 160 words from 156
    products, where walking every word takes 13,120."""
    words = []
    products = []
    real = probe.walk_words

    def spy(letters, depth, *args, mul, **kwargs):
        def counted(x, y):
            products.append(1)
            return mul(x, y)
        for item in real(letters, depth, *args, mul=counted, **kwargs):
            words.append(item[0])
            yield item

    gens, den = int_matrices(probe._generator_powers(3))
    monkeypatch.setattr(probe, "walk_words", spy)
    count, hits = probe._crosscheck(gens, den, 8)
    assert len(words) <= 160 and len(products) <= 160
    assert max(map(len, words)) == 4
    monkeypatch.undo()
    assert (count, sorted(hits)) == reference_crosscheck(gens, den, 8)
    assert count == 13120 and hits == []


# ---------------------------------------------------------------------------
# torsion


def test_torsion_minus_identity():
    neg = RingMat2(QuarticElem(-1), QuarticElem(0), QuarticElem(0), QuarticElem(-1))
    res = torsion_probe(neg, 10)
    assert res.torsion and res.order == 2 and res.order_mod_center == 1


def test_torsion_quarter_rotation():
    rot = RingMat2(QuarticElem(0), QuarticElem(1), QuarticElem(-1), QuarticElem(0))
    res = torsion_probe(rot, 10)
    assert res.torsion and res.order == 4 and res.order_mod_center == 2
    assert res.sign_at_first_hit == -1


def test_torsion_trace_heuristic_agreement():
    # order-6 rotation: trace 1 = 2 cos(pi/3)
    rot6 = RingMat2(QuarticElem(1), QuarticElem(-1), QuarticElem(1), QuarticElem(0))
    res = torsion_probe(rot6, 20)
    assert res.torsion and res.order == 6


def test_torsion_p_short_horizon():
    res = torsion_probe(P, 500)
    assert not res.torsion


def test_torsion_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        torsion_probe(P, 0)


# ---------------------------------------------------------------------------
# dual smallness


def test_dual_smallness_rows_have_norm_bound():
    table = dual_smallness_scan(2, 3, 4)
    assert table.rows, "expected some rows at a generous threshold"
    for row in table.rows:
        assert row.escape_bound_ok
        assert all(v >= 1 for v in row.entry_norms)
        assert len(row.word.codes) >= 1


# sha256 of the sorted-key JSON of dual_smallness_scan(2, 3, 4)
DUAL_SCAN_GOLDEN = (
    "368614c2dda28395303a9729211dcfe940650e0bfb1d83b1907c33150d6b3bac")


def test_dual_smallness_scan_matches_golden():
    blob = json.dumps(dual_smallness_scan(2, 3, 4).to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == DUAL_SCAN_GOLDEN


# sha256 of the sorted-key JSON of `scripts/margin_experiment.py --max-N 3
# --max-L 5 --json` stdout without its timings: exact margin and escape
# endpoints as Fraction strings
MARGIN_SCRIPT_GOLDEN = (
    "b1cb89de999518ab6167d841dee65b073e4f99f908419c0f19d94e07a5010162")


def test_margin_experiment_script_golden():
    src = str(pathlib.Path(probe.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "margin_experiment.py"),
         "--max-N", "3", "--max-L", "5", "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        check=True, text=True).stdout
    rows = json.loads(out)
    for row in rows:
        del row["seconds"]
    blob = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == MARGIN_SCRIPT_GOLDEN


def test_dual_smallness_escape_visible():
    # close in the first factor forces large third-view magnitudes
    table = dual_smallness_scan(2, 3, 2)
    for row in table.rows:
        _, hi2, s2 = row.d_sigma2
        lo0, _, s0 = row.d_sigma0
        assert Fraction(hi2, s2) > Fraction(lo0, s0)


def test_dual_smallness_tiny_eps_empty():
    table = dual_smallness_scan(2, 2, Fraction(1, 1000))
    assert table.rows == []
