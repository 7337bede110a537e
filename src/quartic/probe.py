"""The reduced-word walker and the freeness certificate.

``walk_words`` yields the freely reduced words over {f, f^-1, g, g^-1}
with their matrices, in int 4-tuple form over one denominator
(``int_matrices``).  ``freeness_certificate`` pairs a ping-pong
certificate with an exact search for words equal to plus or minus the
identity (``_crosscheck``).  The discreteness margin and its int word
kernels are in ``margin``.
"""

from __future__ import annotations

from math import lcm

from .errors import DepthTooLarge
from .linalg import RingMat2, is_scalar4, mul_mat4, paper_generators
from .pingpong import PingPongCertificate
from .projective import certify_exponent, free_pair_power
from .record import Record

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
    denominator d (``int_matrices``), so a word of length k comes
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


def int_matrices(mats) -> tuple[list, int]:
    """The int 4-tuple matrices of mats over their least common denominator
    d: returns (out, d) with mats[i] = out[i] / d."""
    d = lcm(*[m._d for m in mats])
    return [m._m if m._d == d
            else tuple([tuple([c * (d // m._d) for c in e]) for e in m._m])
            for m in mats], d


def check_depth(depth: int) -> None:
    """Raise ``ValueError`` for a word depth L below 1 and ``DepthTooLarge``
    for one beyond the cap."""
    if depth < 1:
        raise ValueError(f"need L >= 1, got {depth}")
    if depth > DEFAULT_DEPTH_CAP:
        raise DepthTooLarge(f"L = {depth} beyond cap {DEFAULT_DEPTH_CAP}")


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
    still cross-checked.  The depth is capped at this module's
    ``DEFAULT_DEPTH_CAP`` (``check_depth``)."""
    if n is not None and n < 1:
        raise ValueError(f"need a positive exponent, got {n}")
    check_depth(crosscheck_depth)
    p, q = paper_generators()
    if n is None:
        cert = free_pair_power(p, q)
        n = cert.exponent
    else:
        cert = certify_exponent(p.real_view(), q.real_view(), n)
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
