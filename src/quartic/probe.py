"""Finite experiments on the generated group: the reduced-word walker, the
discreteness margin, freeness certification, torsion probing and the
dual-smallness scan.

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

from .construction import paper_generators
from .errors import DepthTooLarge, NotUnimodular
from .intervals import FILTER_BITS, Enclosure, interval_json, sqrt2_bounds
from .linalg import (
    RingMat2,
    compare_enclosed,
    entry_exceeds,
    eps_thresholds,
    int_matrices,
    is_scalar4,
    minus_identity4,
    mul_mat4,
    sqrt_of_square_interval,
    view_dist4,
    view_norm4,
)
from .projective import (PingPongCertificate, certify_exponent,
                         free_pair_power)
from .record import Record
from .ring import ONE, QuarticElem, _elem, field_quantity_N

LETTER_NAMES = ("f", "f^-1", "g", "g^-1")
_INVERSE = (1, 0, 3, 2)
DEFAULT_DEPTH_CAP = 12


class ReducedWord:
    """Freely reduced word over {f, f^-1, g, g^-1}, held as the letter codes
    a walker yields, so reduced by construction."""

    __slots__ = ("codes",)

    def __init__(self, codes: tuple[int, ...] = ()):
        self.codes = codes

    def __str__(self) -> str:
        return " ".join(LETTER_NAMES[c] for c in self.codes) or "<empty>"


def word_count(depth: int) -> int:
    """1 + sum over k of 4 * 3^(k-1): freely reduced words of length <= depth."""
    return 1 + sum(4 * 3 ** (k - 1) for k in range(1, depth + 1))


def _generator_powers(n: int, pair=None) -> list[RingMat2]:
    p, q = pair or paper_generators()
    pn = p ** n
    qn = q ** n
    return [pn, pn.inv(), qn, qn.inv()]


def _inverse_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    # from a list, so the tuple is allocated at its final size: resizing
    # tuples built from a generator strands them on the free lists
    return tuple([_INVERSE[c] for c in reversed(codes)])


def walk_words(gens, depth: int, roots=range(4), paired: bool = False,
               mul=mul_mat4, prune=None, reversal: bool = False):
    """Every nonempty reduced word of length <= depth whose first letter is
    in roots, as (codes, matrix) in lexicographic preorder (tuple order).

    A word's matrix is mul(its prefix's matrix, its last letter).  By
    default gens are the four letters as int 4-tuple matrices over one
    denominator d (``linalg.int_matrices``), so a word of length k comes
    with its product over d^k.  With paired, only the word of each
    {W, W^-1} whose codes sort first is yielded (no reduced word is its own
    inverse); with reversal, only a word whose codes sort no later than
    their reversal.  A skipped word of full length is never multiplied.
    Each paired stack entry carries its word's inverse codes, so a child's
    are the parent's with one letter prepended.

    With prune, prune(codes, matrix) is called for every word shorter than
    depth, yielded or not, after the consumer has taken the word; when it
    returns true, no longer word with that prefix is built or yielded."""
    if depth < 1:
        return
    stack = [((c,), gens[c], not paired or _INVERSE[c] >= c,
              (_INVERSE[c],) if paired else None)
             for c in sorted(roots, reverse=True)]
    while stack:
        codes, mat, keep, inv = stack.pop()
        if keep:
            yield codes, mat
        if len(codes) < depth and (prune is None or not prune(codes, mat)):
            leaf = len(codes) + 1 == depth
            for c in range(3, -1, -1):
                if _INVERSE[codes[-1]] != c:
                    child = codes + (c,)
                    child_inv = (_INVERSE[c],) + inv if paired else None
                    keep = ((not paired or child_inv >= child)
                            and (not reversal or child[::-1] >= child))
                    if keep or not leaf:
                        stack.append((child, mul(mat, gens[c]), keep,
                                      child_inv))


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
    the ``linalg.view_norm4`` lower end of U's matrix exceeds it, every word
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
    (``linalg.view_dist4``).

    A word strictly farther than some measured word no longer than itself
    is neither a cumulative minimum nor a tie, so each word is held against
    B, the least distance measured so far over lengths up to its own, seed
    included.  A word with one entry whose bounds exceed B
    (``linalg.entry_exceeds``) is skipped before any distance is taken.  A
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


def _check_depth(depth: int) -> None:
    """Raise ``DepthTooLarge`` when a word depth L is beyond the cap."""
    if depth > DEFAULT_DEPTH_CAP:
        raise DepthTooLarge(f"L = {depth} beyond cap {DEFAULT_DEPTH_CAP}")


def discreteness_margin(n: int, depth: int, pair=None, threads: int = 1,
                        views: tuple[int, int] = (0, 1)) -> MarginReport:
    """Minimum over nonempty reduced words of length <= depth of the
    product-metric distance max(d(view0(W), I), d(view1(W), I)), exact.
    Both generators must have determinant one."""
    if n < 1 or depth < 1:
        raise ValueError("need N >= 1 and L >= 1")
    if threads < 1:
        raise ValueError("need threads >= 1")
    if any(k not in (0, 1, 2, 3) for k in views):
        raise ValueError(f"embedding index must be 0..3, got {views}")
    _check_depth(depth)
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
    k = len(roots)
    tasks = ([gens] * k, [den] * k, roots, [depth] * k, [views] * k,
             [seed] * k, [swap] * k)
    if threads > 1:
        # imported here: the pool module costs every command's start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(threads, k)) as pool:
            results = list(pool.map(_scan_subtree, *tasks))
    else:
        results = list(map(_scan_subtree, *tasks))

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


class FreenessCertificate(Record):
    n: int
    pingpong: PingPongCertificate | None    # None: no radius certifies n
    crosscheck_depth: int
    words_checked: int
    identity_hits: list[str]

    def ok(self) -> bool:
        """The cross-check's verdict: no word hit plus or minus identity."""
        return not self.identity_hits


def freeness_certificate(n: int | None,
                         crosscheck_depth: int = 8) -> FreenessCertificate:
    """Ping-pong certificate at the given exponent for the sigma2 views,
    cross-checked by an exact word search (``_crosscheck``): no nonempty
    reduced word up to the cross-check depth may evaluate to plus or minus
    identity, and every such word is decided.
    With n None the exponent is the least one ``free_pair_power`` finds,
    and the certificate its search ended on is the one cross-checked.  An
    exponent no radius certifies gets no certificate, and its words are
    still cross-checked.  The depth is capped at the margin's
    ``DEFAULT_DEPTH_CAP``."""
    if (n is not None and n < 1) or crosscheck_depth < 1:
        raise ValueError("need a positive exponent and cross-check depth")
    _check_depth(crosscheck_depth)
    p, q = paper_generators()
    if n is None:
        cert = free_pair_power(p, q).certificate
        n = cert.exponent
    else:
        cert = certify_exponent(p.real_view(2), q.real_view(2), n)
    gens, den = int_matrices(_generator_powers(n))
    count, hits = _crosscheck(gens, den, crosscheck_depth)
    hits.sort()
    return FreenessCertificate(n, cert, crosscheck_depth, count,
                               [str(ReducedWord(c)) for c in hits])


# The cross-check's filter ring F_p, p = 2^61 - 1: beta -> 2^46 maps Z[beta]
# onto it, since 2^184 = 2 (mod p).
_PRIME = (1 << 61) - 1
_BETA_IMAGE = 1 << 46


def _crosscheck(gens, den: int, depth: int) -> tuple[int, list]:
    """(words counted, hits) over every nonempty reduced word of length
    <= depth in the int 4-tuple letters gens over den: a hit is the codes of
    a word whose product is +-I exactly.

    The search meets in the middle, in F_p.  Only the words of length
    <= h = ceil(depth / 2) are multiplied, each keyed by its product over
    den^|w| times den^(h - |w|) mod p, up to sign.  A nonempty reduced word
    W of length k splits in one way as W = U X^-1 with |U| = ceil(k / 2) and
    |X| = floor(k / 2), reduced exactly when X is empty or U and X end in
    different letters; W = +-I exactly only if U = +-X, and then U and X
    share a key.  So only pairs from one key's bucket are candidates, and
    each is multiplied out exactly and decided by ``is_scalar4``."""
    p = _PRIME
    b = _BETA_IMAGE % p
    h = (depth + 1) // 2
    letters = [tuple([(t[0] + b * (t[1] + b * (t[2] + b * t[3]))) % p
                      for t in g]) for g in gens]
    scale = [pow(den, h - k, p) for k in range(h + 1)]

    def mul(x, y):
        x11, x12, x21, x22 = x
        y11, y12, y21, y22 = y
        return ((x11 * y11 + x12 * y21) % p, (x11 * y12 + x12 * y22) % p,
                (x21 * y11 + x22 * y21) % p, (x21 * y12 + x22 * y22) % p)

    buckets: dict[tuple, list] = {}
    for codes, mat in [((), (1, 0, 0, 1)), *walk_words(letters, h, mul=mul)]:
        s = scale[len(codes)]
        key = tuple([x * s % p for x in mat])
        key = min(key, tuple([-x % p for x in key]))
        buckets.setdefault(key, []).append(codes)

    hits: list[tuple[int, ...]] = []
    for words in buckets.values():
        # a lone word pairs only with itself, and U U^-1 is not reduced
        if len(words) < 2:
            continue
        for u in words:
            for x in words:
                lu, lx = len(u), len(x)
                if (not u or not 0 <= lu - lx <= 1 or lu + lx > depth
                        or (x and u[-1] == x[-1])):
                    continue
                codes = u + _inverse_codes(x)
                one = den ** len(codes)
                mat = _word_matrix(gens, codes)
                if is_scalar4(mat, one) or is_scalar4(mat, -one):
                    hits.append(codes)
    return word_count(depth) - 1, hits


def _word_matrix(gens, codes):
    """The product of the int 4-tuple letters gens along a nonempty word."""
    mat = gens[codes[0]]
    for c in codes[1:]:
        mat = mul_mat4(mat, gens[c])
    return mat


def _view_dists(xs, den: int) -> list[QuarticElem]:
    """max_ij |sigma_k(x_ij / den)|^2 for k = 0, 1, 2, exact, over the four
    int 4-tuples xs."""
    return [_elem(view_dist4(xs, k)[2], den * den) for k in range(3)]


# ---------------------------------------------------------------------------
# torsion


class TorsionResult(Record):
    torsion: bool
    n_max: int
    order: int | None = None              # least n with A^n = I
    order_mod_center: int | None = None   # least n with A^n = +-I
    sign_at_first_hit: int | None = None


def torsion_probe(a: RingMat2, n_max: int) -> TorsionResult:
    """First n <= n_max with a^n = +-I, exactly, else a non-torsion verdict.

    The trace sequence t_n = tr(a^n) obeys t_{n+1} = t_1 t_n - t_{n-1};
    candidates with t_n = +-2 are confirmed by an exact binary power.  The
    verdict holds in every embedding, since the Galois maps are injective.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    prev = QuarticElem(2)
    cur = t1 = a.trace()
    for n in range(1, n_max + 1):
        if cur == QuarticElem(2) or cur == QuarticElem(-2):
            res = _confirm_torsion(a, n, n_max)
            if res is not None:
                return res
        prev, cur = cur, t1 * cur - prev
    return TorsionResult(False, n_max)


def _confirm_torsion(a: RingMat2, n: int, n_max: int) -> TorsionResult | None:
    power = a ** n
    if power.is_identity():
        return TorsionResult(True, n_max, order=n, order_mod_center=n,
                             sign_at_first_hit=1)
    if power.is_neg_identity():
        return TorsionResult(True, n_max, order=2 * n, order_mod_center=n,
                             sign_at_first_hit=-1)
    return None


# ---------------------------------------------------------------------------
# dual smallness


class DualSmallnessRow(Record):
    word: ReducedWord
    d_sigma0: Enclosure
    d_sigma1: Enclosure
    d_sigma2: Enclosure
    entry_norms: list[Fraction]
    escape_bound_ok: bool

    def to_json(self) -> dict:
        return {
            "word": str(self.word),
            "d_sigma0": interval_json(self.d_sigma0),
            "d_sigma1": interval_json(self.d_sigma1),
            "d_sigma2": interval_json(self.d_sigma2),
            "entry_conjugate_norms": [str(v) for v in self.entry_norms],
            "escape_bound_ok": self.escape_bound_ok,
        }


class DualSmallnessTable(Record):
    n: int
    depth: int
    eps: Fraction
    rows: list[DualSmallnessRow]

    def to_json(self) -> dict:
        return {
            "N": self.n, "L": self.depth, "eps": str(self.eps),
            "rows": [r.to_json() for r in self.rows],
        }


def dual_smallness_scan(n: int, depth: int, eps) -> DualSmallnessTable:
    """Words whose first-factor view is eps-close to the identity, with the
    conjugate-norm escape bound checked exactly on every nonzero entry
    difference from the identity."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    gens, den = int_matrices(_generator_powers(n))
    below = eps_thresholds(den, eps, depth)
    rows: list[DualSmallnessRow] = []
    for codes, mat in walk_words(gens, depth):
        one = den ** len(codes)
        d0 = view_dist4(minus_identity4(mat, one, eps.denominator), 0)
        if compare_enclosed(d0, below[len(codes)]) >= 0:
            continue
        xs = minus_identity4(mat, one, 1)
        norms = [field_quantity_N(_elem(x, one)) for x in xs if any(x)]
        d_sigma0, d_sigma1, d_sigma2 = (sqrt_of_square_interval(d)
                                        for d in _view_dists(xs, one))
        rows.append(DualSmallnessRow(
            word=ReducedWord(codes),
            d_sigma0=d_sigma0,
            d_sigma1=d_sigma1,
            d_sigma2=d_sigma2,
            entry_norms=norms,
            escape_bound_ok=all(v >= 1 for v in norms),
        ))
    rows.sort(key=lambda row: (len(row.word.codes), row.word.codes))
    return DualSmallnessTable(n, depth, eps, rows)
