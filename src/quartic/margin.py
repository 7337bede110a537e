"""The discreteness margin and the int 4-tuple word kernels it runs on.

The margin is computed exactly, by branch and bound over the word tree.
The squared sup-distance of a word matrix from the identity is an element
of Q(beta), held as an int 4-tuple with integer bounds; the minimizer, all
ties and the cumulative minimum at each length are found by exact sign
comparisons.  A word is measured only when no shorter-or-equal measured
word already beats it by an integer bound, and a whole subtree is skipped
when the Frobenius norm of its root proves every word below farther than
that.  One word of each orbit of equal distances is measured: {W, W^-1},
or, when every letter has g21 = -g12, {W, W^-1, flip W, reverse W}
(``_scan_subtree``).  Enclosures, int triples (lo, hi, scale) from
``intervals``, appear only in the report.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import NotUnimodular
from .intervals import (DEFAULT_BITS, Enclosure, dyadic_bounds, enc_sqrt,
                        sqrt2_bounds)
from .linalg import paper_generators
from .probe import (ReducedWord, _generator_powers, _inverse_codes,
                    _word_matrix, check_depth, int_matrices, walk_words)
from .record import Record
from .report import interval_json
from .ring import ONE, QuarticElem, _elem, mul4, quad_sign, sign4


# ---------------------------------------------------------------------------
# the int 4-tuple word kernels
#
# A word scan takes the letters' int 4-tuple matrices over their common
# denominator d (``int_matrices``), so a word of length k stands for its
# tuples over d^k.  A view distance is an exact int 4-tuple t together with
# integer bounds lo <= t * 2^FILTER_BITS <= hi ("enclosed"); comparisons
# read the bounds first and take an exact sign only where they overlap, so
# no float ever decides.


FILTER_BITS = 48


def filter_bounds(c0: int, cs) -> tuple[int, int]:
    """Integer bounds for (c0 + cs[0] beta + cs[1] beta^2 + cs[2] beta^3)
    * 2^FILTER_BITS.

    The enclosure is taken at the coefficients' bit length plus FILTER_BITS
    and rounded outward, so its width is a few units at scale
    2^-FILTER_BITS however large the coefficients are.  Two values whose
    bounds are disjoint are ordered exactly; only overlapping bounds need
    an exact sign (the filter of Bronnimann, Burnikel and Pion).
    """
    m = abs(c0)
    for c in cs:
        m |= abs(c)
    bits = m.bit_length() + FILTER_BITS
    lo, hi = dyadic_bounds(c0, cs, bits)
    shift = bits - FILTER_BITS
    return lo >> shift, -(-hi >> shift)


def minus_identity4(mat, one: int, scale: int) -> list:
    """The entries of mat - one * I as int 4-tuples, each times scale."""
    e11, e12, e21, e22 = mat
    xs = [(e11[0] - one, e11[1], e11[2], e11[3]), e12, e21,
          (e22[0] - one, e22[1], e22[2], e22[3])]
    if scale != 1:
        xs = [(c0 * scale, c1 * scale, c2 * scale, c3 * scale)
              for c0, c1, c2, c3 in xs]
    return xs


def enclosed(t) -> tuple[int, int, tuple]:
    """(lo, hi, t) for an int 4-tuple t, with lo <= t * 2^FILTER_BITS <= hi."""
    lo, hi = filter_bounds(t[0], t[1:])
    return lo, hi, t


def compare_enclosed(a, b) -> int:
    """Exact sign of a - b for two enclosed values over one denominator:
    disjoint bounds decide, and ring.sign4 of the difference decides the
    rest (ties included)."""
    if a[1] < b[0]:
        return -1
    if a[0] > b[1]:
        return 1
    x, y = a[2], b[2]
    return sign4((x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]))


def eps_thresholds(d: int, eps: Fraction, depth: int) -> list:
    """Enclosed thresholds for words over the denominator d: a word of
    length k is closer than eps when its view distance, taken on the
    entries of W - I times eps's denominator, is below entry k."""
    a = eps.numerator
    return [enclosed((a * a * d ** (2 * k), 0, 0, 0))
            for k in range(depth + 1)]


def view_dist4(xs, k: int) -> tuple[int, int, tuple]:
    """Enclosed max_ij |sigma_k(x_ij)|^2 over the four int 4-tuples xs,
    exact, in closed form.

    The complex views 1 and 3 give the same modulus:
    |sigma_1(x)|^2 = (c0^2 + 2c2^2 - 4c1c3) + (c1^2 + 2c3^2 - 2c0c2) sqrt2,
    and the largest is picked by quad_sign.  In the real views 0 and 2
    (x and its conjugate) the entries are ordered by |x|, from enclosures at
    one precision, and only the winner is squared."""
    if k & 1:
        bu = bv = None
        for c0, c1, c2, c3 in xs:
            u = c0 * c0 + 2 * c2 * c2 - 4 * c1 * c3
            v = c1 * c1 + 2 * c3 * c3 - 2 * c0 * c2
            if bu is None or quad_sign(u - bu, v - bv) > 0:
                bu, bv = u, v
        return enclosed((bu, 0, bv, 0))
    if k:
        xs = [(c0, -c1, c2, -c3) for c0, c1, c2, c3 in xs]
    m = 0
    for c0, c1, c2, c3 in xs:
        m |= abs(c0) | abs(c1) | abs(c2) | abs(c3)
    bits = m.bit_length() + FILTER_BITS
    win = None
    for x in xs:
        lo, hi = dyadic_bounds(x[0], x[1:], bits)
        if hi < 0:
            lo, hi = -hi, -lo
        elif lo < 0:
            lo, hi = 0, max(-lo, hi)
        if win is not None and hi < win[0]:
            continue
        if win is None or lo > win[1] or _abs_sign(x, win[2]) > 0:
            win = (lo, hi, x)
    lo, hi, x = win
    # |x| * 2^bits lies in [lo, hi] with lo >= 0, so x^2 * 2^(2 bits) in
    # [lo^2, hi^2]; rounded outward to scale 2^FILTER_BITS
    shift = 2 * bits - FILTER_BITS
    return lo * lo >> shift, -(-(hi * hi) >> shift), mul4(x, x)


def view_norm4(xs, k: int) -> tuple[int, int, tuple]:
    """Enclosed squared Frobenius norm sum_ij |sigma_k(x_ij)|^2 over the four
    int 4-tuples xs, exact, in closed form: the sum of the squares in the
    real views, of view_dist4's (u, v) forms in the complex ones."""
    if k & 1:
        u = v = 0
        for c0, c1, c2, c3 in xs:
            u += c0 * c0 + 2 * c2 * c2 - 4 * c1 * c3
            v += c1 * c1 + 2 * c3 * c3 - 2 * c0 * c2
        return enclosed((u, 0, v, 0))
    s0 = s1 = s2 = s3 = 0
    for c0, c1, c2, c3 in xs:
        s0 += c0 * c0 + 2 * c2 * c2 + 4 * c1 * c3
        s1 += c0 * c1 + 2 * c2 * c3
        s2 += c1 * c1 + 2 * c3 * c3 + 2 * c0 * c2
        s3 += c0 * c3 + c1 * c2
    # view 2 is view 0 after beta -> -beta
    if k:
        s1, s3 = -s1, -s3
    return enclosed((s0, 2 * s1, s2, 2 * s3))


def entry_exceeds(xs, k: int, bound: int) -> bool:
    """Whether integer bounds prove |sigma_k(x)|^2 * 2^FILTER_BITS > bound
    for some x of the int 4-tuples xs, entry by entry: then
    ``view_dist4(xs, k)`` exceeds every value enclosed below bound.  False
    proves nothing."""
    for c0, c1, c2, c3 in xs:
        if k & 1:
            lo = filter_bounds(c0 * c0 + 2 * c2 * c2 - 4 * c1 * c3,
                               (0, c1 * c1 + 2 * c3 * c3 - 2 * c0 * c2, 0))[0]
        else:
            if k:
                c1, c3 = -c1, -c3
            lo, hi = filter_bounds(c0, (c1, c2, c3))
            # |x| * 2^FILTER_BITS >= lo >= 0, so
            # x^2 * 2^FILTER_BITS >= lo^2 >> FILTER_BITS
            lo = lo if lo > 0 else -hi if hi < 0 else 0
            lo = lo * lo >> FILTER_BITS
        if lo > bound:
            return True
    return False


def _abs_sign(x, y) -> int:
    """Exact sign of |x| - |y| for int 4-tuples."""
    if sign4(x) < 0:
        x = (-x[0], -x[1], -x[2], -x[3])
    if sign4(y) < 0:
        y = (-y[0], -y[1], -y[2], -y[3])
    return sign4((x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]))


def nonneg_interval(x: QuarticElem, bits: int = DEFAULT_BITS) -> Enclosure:
    """Enclosure of a provably nonnegative value; refines, up to 2^14 bits,
    past the cancellation that can push a coarse lower end below zero."""
    b = bits
    while True:
        lo, hi, s = x.interval(b)
        if lo >= 0:
            return lo, hi, s
        if b >= 1 << 14:
            return 0, max(0, hi), s
        b *= 2


def sqrt_of_square_interval(x: QuarticElem, bits: int = DEFAULT_BITS) -> Enclosure:
    return enc_sqrt(nonneg_interval(x, bits), bits)


class MarginReport(Record):
    n: int
    depth: int
    margin_sq: QuarticElem
    margin: Enclosure
    witness: ReducedWord
    ties: list[ReducedWord]
    factors: dict[str, Enclosure]
    per_depth: list[tuple[int, Enclosure]]
    views: tuple[int, int] = (0, 1)

    def to_json(self) -> dict:
        return {
            "N": self.n,
            "L": self.depth,
            "margin": interval_json(self.margin),
            "witness": str(self.witness),
            "ties": [str(w) for w in self.ties],
            "factors": {k: interval_json(v) for k, v in self.factors.items()},
            "per_depth": [
                {"L": d, "margin": interval_json(iv)} for d, iv in self.per_depth
            ],
            "views": list(self.views),
        }


def _prune_limit(fhi: int, j: int, den: int, depth: int, bound_hi: int) -> int:
    """The int a node U of length depth - j is pruned above, in one view: if
    the ``view_norm4`` lower end of U's matrix exceeds it, every word
    below U lies farther than the squared distance B whose enclosure over
    den^(2 depth) has upper end bound_hi.

    In the Frobenius norm, ||U|| <= ||W|| F^|V| <= ||W|| F^j for W = UV
    with 1 <= |V| <= j, where F^2 bounds every letter's squared norm (fhi is
    an upper end over den^2) and F >= sqrt2 > 1 because each letter has
    determinant one.  The largest entry of W - I is at least
    (||W|| - sqrt2) / 2.  So ||U||^2 > F^(2j) (sqrt2 + 2 sqrt B)^2 puts every
    such W farther than B.  The returned floor is that right side over U's
    denominator den^(2(depth - j)), times 2^FILTER_BITS, built from upper
    bounds only, so an int lower end above it proves the inequality."""
    half = FILTER_BITS // 2
    # sqrt2 + 2 sqrt B <= a / (2^FILTER_BITS den^depth)
    a = (sqrt2_bounds(FILTER_BITS)[1] * den ** depth
         + ((isqrt(bound_hi) + 1) << (half + 1)))
    return fhi ** j * a * a // (den ** (4 * j) << (FILTER_BITS * (j + 1)))


def _letter_minimum(gens, den: int, depth: int, views: tuple[int, int]):
    """The least squared product-metric distance over the one-letter words,
    taken over den^(2 depth) and enclosed as in ``_scan_subtree``."""
    best = None
    for g in gens:
        xs = minus_identity4(g, den, den ** (depth - 1))
        d = view_dist4(xs, views[0])
        d1 = view_dist4(xs, views[1])
        if compare_enclosed(d1, d) > 0:
            d = d1
        if best is None or compare_enclosed(d, best) < 0:
            best = d
    return best


def _scan_subtree(gens, den: int, first: int, depth: int,
                  views: tuple[int, int], seed, swap: bool):
    """Exact minimum of the squared product-metric distance over all reduced
    words of length <= depth starting with the given letter and their
    orbits, on int 4-tuple matrices over the letters' denominator den,
    and the exact cumulative minima by length of these words and of the
    one-letter word at distance seed (``_letter_minimum``).

    A det-1 W and its inverse lie at the same distance in every view (the
    entries of W^-1 - I are those of W - I, moved and sign-changed), so only
    the word of each pair whose codes sort first is measured, and a tie
    records both.  With swap, every letter g has g21 = -g12, so
    M g M = g^-1 for M = [[0, 1], [1, 0]]: the word flip W with each letter
    inverted is M W M, whose entries minus I are those of W - I permuted,
    and so flip W and reverse W = flip W^-1 lie at W's distance too.  Then
    a word is measured only when it also sorts no later than its reversal,
    and a tie records its whole orbit {W, W^-1, flip W, reverse W} (two
    words for a palindrome, whose flip is its inverse).  Every distance is
    taken over the one denominator den^(2 depth) and enclosed
    (``view_dist4``).

    A word strictly farther than some measured word no longer than itself
    is neither a cumulative minimum nor a tie, so each word is held against
    B, the least distance measured so far over lengths up to its own, seed
    included.  A word with one entry whose bounds exceed B
    (``entry_exceeds``) is skipped before any distance is taken.  A
    node of length k < depth whose Frobenius norm in either view proves
    every descendant farther than the B of length k + 1 (``_prune_limit``)
    has no child built.  B is never the subtree's overall minimum: the walk
    measures deeper words before shallower siblings.  Every decision
    compares ints or takes an exact sign.

    Returns (min, tie words, cumulative minima for lengths 1..depth), the
    values enclosed int 4-tuples; min is None, with no ties, when no word
    here comes within seed."""
    ones = [den ** k for k in range(depth + 1)]
    scales = ones[::-1]
    va, vb = views
    best = None
    ties: list[tuple[int, ...]] = []
    # cum[k]: least distance measured so far over lengths <= k
    cum = [None] + [seed] * depth
    fhi = [max(view_norm4(g, v)[1] for g in gens) for v in views]
    # limits[k]: (the B they were built from, view a's, view b's)
    limits: list = [(None,)] * depth

    def prune(codes, mat):
        k = len(codes)
        # ||U||^2 <= F^(2k), so the test needs 2k > depth to ever hold
        if 2 * k <= depth:
            return False
        b = cum[k + 1]
        lim = limits[k]
        if lim[0] is not b:
            lim = limits[k] = (b, *[_prune_limit(f, depth - k, den, depth, b[1])
                                    for f in fhi])
        return (view_norm4(mat, va)[0] > lim[1]
                or view_norm4(mat, vb)[0] > lim[2])

    for codes, mat in walk_words(gens, depth, (first,), paired=True,
                                 prune=prune, reversal=swap):
        length = len(codes)
        xs = minus_identity4(mat, ones[length], scales[length])
        cur = cum[length]
        # one view already beats B, and so the word changes nothing.  Most
        # words are rejected from one entry's bounds in either view; the
        # rest compare exactly.
        if entry_exceeds(xs, va, cur[1]) or entry_exceeds(xs, vb, cur[1]):
            continue
        d = view_dist4(xs, va)
        if compare_enclosed(d, cur) > 0:
            continue
        d1 = view_dist4(xs, vb)
        if compare_enclosed(d1, d) > 0:
            d = d1
        # cum is nonincreasing in k
        for k in range(length, depth + 1):
            if compare_enclosed(d, cum[k]) >= 0:
                break
            cum[k] = d
        s = -1 if best is None else compare_enclosed(d, best)
        if s < 0:
            best = d
            ties = []
        if s <= 0:
            ties += (codes, _inverse_codes(codes))
            if swap and codes[::-1] != codes:
                ties += (tuple([c ^ 1 for c in codes]), codes[::-1])
    return best, ties, cum[1:]


def discreteness_margin(n: int, depth: int, pair=None,
                        views: tuple[int, int] = (0, 1)) -> MarginReport:
    """Minimum over nonempty reduced words of length <= depth of the
    product-metric distance max(d(view0(W), I), d(view1(W), I)), exact.
    Both generators must have determinant one."""
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    if any(k not in (0, 1, 2, 3) for k in views):
        raise ValueError(f"embedding index must be 0..3, got {views}")
    check_depth(depth)
    if pair is None:
        pair = paper_generators()
    if any(g.det() != ONE for g in pair):
        raise NotUnimodular("margin generators must have determinant one")
    gens, den = int_matrices(_generator_powers(n, pair))

    # every subtree prunes against the one-letter words from the start
    seed = _letter_minimum(gens, den, depth, views)
    # with g21 = -g12 in every letter, the least word of each orbit
    # (``_scan_subtree``) starts with f or g
    swap = all(g[2] == tuple([-x for x in g[1]]) for g in gens)
    roots = (0, 2) if swap else range(4)
    results = [_scan_subtree(gens, den, r, depth, views, seed, swap)
               for r in roots]

    best = None
    ties: list[tuple[int, ...]] = []
    cum = [seed] * depth
    for b, t, sub in results:
        cum = [v if compare_enclosed(v, c) < 0 else c
               for v, c in zip(sub, cum)]
        if b is None:
            continue
        s = -1 if best is None else compare_enclosed(b, best)
        if s < 0:
            best = b
            ties = list(t)
        elif s == 0:
            ties.extend(t)

    den2 = den ** (2 * depth)
    ties.sort(key=lambda codes: (len(codes), codes))
    one = den ** len(ties[0])
    xs = minus_identity4(_word_matrix(gens, ties[0]), one, 1)
    factors = {f"s{k}": sqrt_of_square_interval(d)
               for k, d in enumerate(_view_dists(xs, one))}
    cumulative = [
        (length, sqrt_of_square_interval(_elem(v[2], den2)))
        for length, v in enumerate(cum, 1)]
    margin_sq = _elem(best[2], den2)
    return MarginReport(
        n=n, depth=depth, margin_sq=margin_sq,
        margin=sqrt_of_square_interval(margin_sq),
        witness=ReducedWord(ties[0]),
        ties=[ReducedWord(t) for t in ties],
        factors=factors,
        per_depth=cumulative,
        views=views,
    )


def _view_dists(xs, den: int) -> list[QuarticElem]:
    """max_ij |sigma_k(x_ij / den)|^2 for k = 0, 1, 2, exact, over the four
    int 4-tuples xs."""
    return [_elem(view_dist4(xs, k)[2], den * den) for k in range(3)]
