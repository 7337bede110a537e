"""Candidate sequences for the two-real-factor limit construction.

A candidate is an integral 2x2 matrix over Z[beta] whose three Galois
views play fixed roles: the second view must be elliptic while the third
and the identity view are hyperbolic.  All three are decided on matrices
over the ring (see ``LimitCandidate``).  The checker scores candidates
against the paper's pair of limit targets, the companion matrices of Q's
trace 3 + 2 sqrt2 and of its conjugate; the search finds the best-ranked
bounded integral matrices of determinant one by a top-k threshold join
over per-entry rank tables.
"""

from __future__ import annotations

import itertools
from bisect import insort
from fractions import Fraction

from .construction import paper_generators
from .errors import NonIntegralInput, NotUnimodular, QuarticError
from .intervals import (DEFAULT_BITS, Enclosure, dyadic_bounds, enc_add,
                        interval_json, quartic_bounds)
from .linalg import (
    MatClass,
    RingMat2,
    _mat,
    classify,
    compare_enclosed,
    eigen2,
    eps_thresholds,
    int_matrices,
    is_scalar4,
    minus_identity4,
    share_eigenvector,
    view_dist4,
)
from .record import Record
from .ring import ONE, ZERO, QuarticElem, mul4


class LimitCandidate(Record, eq=True, frozen=True):
    """Integral candidate with its two real views, matrices over the ring.

    The views satisfy, entrywise: view1 = (p + r b^2) - (q b + s b^3),
    view3 = (p + r b^2) + (q b + s b^3) is the matrix itself; the
    constructor re-derives both from the raw coefficients and checks them
    against the Galois maps.
    The complex sigma3 view needs no matrix: sigma1 = sigma3 o sigma2 on
    Q(beta), so its commutator [sigma1(q) sigma3(m) sigma1(q)^-1, sigma3(m)]
    is the image of [q view1 q^-1, view1] under the injective sigma3 o
    sigma2, and one ring commutator decides both.
    """

    matrix: RingMat2

    def __post_init__(self):
        if not self.matrix.is_integral():
            raise NonIntegralInput("limit candidates carry integer coefficients")
        for e in self.matrix.entries():
            p, q, r, s = e.coeffs()
            rearranged = QuarticElem(p, -q, r, -s)
            if rearranged != e.conj_even():
                raise AssertionError("coefficient rearrangement broke")

    def view1(self) -> RingMat2:
        """sigma2 image: real, must be elliptic for a valid candidate."""
        return self.matrix.real_view(2)

    def coeff_grid(self) -> list[list[int]]:
        return [[int(c) for c in e.coeffs()] for e in self.matrix.entries()]

    def to_json(self) -> dict:
        return {"coefficients": self.coeff_grid(),
                "matrix": self.matrix.to_text()}


# The paper's limit targets: U = [[3 + 2 sqrt2, 1], [-1, 0]], the companion
# matrix of Q's trace, is hyperbolic, and V, the same with the conjugate
# trace 3 - 2 sqrt2, is elliptic.  Each is a row-major list of entry
# enclosures at scale 2^DEFAULT_BITS, which is the residuals' scale.
_SCALE = 1 << DEFAULT_BITS
_U, _V = ([e.interval() for e in (trace, ONE, -ONE, ZERO)]
          for trace in (QuarticElem(3, 0, 2, 0), QuarticElem(3, 0, -2, 0)))
# each position's (u, v) targets as int (lo, hi) pairs at that scale
_TARGETS = [(u[:2], v[:2]) for u, v in zip(_U, _V)]


def _interval_class(trace: Enclosure) -> str:
    lo, hi, s = trace
    lo, hi = _abs_diff(lo, hi)
    if hi < 2 * s:
        return "elliptic"
    if lo > 2 * s:
        return "hyperbolic"
    return "undecided"


class LimitCheckReport(Record):
    candidate: LimitCandidate
    residuals_i: list[list[Enclosure]]
    residuals_ii: list[list[Enclosure]]
    residuals_ii_exact_zero: bool
    residuals_iii: list[list[Enclosure]]
    cond_iv: dict[str, bool]
    cond_v: dict[str, str]
    cond_vi_probe: dict
    cond_vii: dict[str, bool]
    cond_viii: bool
    notes: list[str] = []

    def passes_iv_and_viii(self) -> bool:
        return all(self.cond_iv.values()) and self.cond_viii

    def to_json(self) -> dict:
        def grid(g):
            return [[interval_json(x) for x in row] for row in g]
        return {
            "candidate": self.candidate.to_json(),
            "residuals_even_part": grid(self.residuals_i),
            "residuals_odd_part": grid(self.residuals_ii),
            "odd_part_exactly_zero": self.residuals_ii_exact_zero,
            "residuals_second_view": grid(self.residuals_iii),
            "condition_iv": self.cond_iv,
            "condition_v": self.cond_v,
            "condition_vi": self.cond_vi_probe,
            "condition_vii": self.cond_vii,
            "condition_viii": self.cond_viii,
            "notes": self.notes,
        }


def _part_bounds(pairs):
    """Int enclosures at scale 2^DEFAULT_BITS of the even parts x + y b^2
    and of the odd parts x b + y b^3 of the coefficient pairs (x, y), as
    two dicts.

    dyadic_bounds adds one term per coefficient, so the enclosures of an
    entry's even and odd parts sum, bound for bound, to the entry's own."""
    even, odd = {}, {}
    for x, y in pairs:
        even[x, y] = dyadic_bounds(x, (0, y, 0), quartic_bounds, DEFAULT_BITS)
        odd[x, y] = dyadic_bounds(0, (x, 0, y), quartic_bounds, DEFAULT_BITS)
    return even, odd


def _abs_diff(lo: int, hi: int, t_lo: int = 0, t_hi: int = 0):
    """The enclosure |[lo, hi] - [t_lo, t_hi]|."""
    lo, hi = lo - t_hi, hi - t_lo
    return max(lo, -hi, 0), max(hi, -lo)


def _residuals(even, odd, coeffs, u, v):
    """Residual enclosures of one entry p + q b + r b^2 + s b^3 against its
    targets, read from the part enclosures: the even part p - r b^2 against
    u, the odd part q b - s b^3 against zero, and the second view
    (p + r b^2) - (q b + s b^3) against v."""
    p, q, r, s = coeffs
    (e_lo, e_hi), (o_lo, o_hi) = even[p, r], odd[q, s]
    return (_abs_diff(*even[p, -r], *u), _abs_diff(*odd[q, -s]),
            _abs_diff(e_lo - o_hi, e_hi - o_lo, *v))


# condition iv: (report key, embedding, accepted classes); the second view
# is the most selective test, so it runs first
_CONDITION_IV = (
    ("view1_elliptic", 2, (MatClass.ELLIPTIC,)),
    ("view2_hyperbolic", 3, (MatClass.HYPERBOLIC, MatClass.LOXODROMIC)),
    ("view3_hyperbolic", 0, (MatClass.HYPERBOLIC,)),
)


def check_limit_conditions(candidate: LimitCandidate,
                           vi_depth: int = 10) -> LimitCheckReport:
    """Exact verdicts for the structural conditions, interval residuals
    against the paper's limit targets, and a probe-only freeness scan."""
    from .probe import ReducedWord, walk_words
    _, q = paper_generators()
    m = candidate.matrix
    if not m.is_integral():
        raise NonIntegralInput("integer coefficients required")
    if m.det() != ONE:
        raise NotUnimodular("candidate must have determinant one")

    grid = candidate.coeff_grid()
    even, odd = _part_bounds({(x, t * y) for c0, c1, c2, c3 in grid
                              for x, y in ((c0, c2), (c1, c3))
                              for t in (1, -1)})
    ivs = [[(lo, hi, _SCALE) for lo, hi in _residuals(even, odd, e, u, v)]
           for e, (u, v) in zip(grid, _TARGETS)]
    res_i, res_ii, res_iii = ([[ivs[0][n], ivs[1][n]], [ivs[2][n], ivs[3][n]]]
                              for n in range(3))
    odd_zero = all(e.in_even_subring() for e in m.entries())
    cond_iv = {name: classify(m, k) in ok for name, k, ok in _CONDITION_IV}

    cond_v = {
        "target_elliptic": _interval_class(enc_add(_V[0], _V[3])),
        "target_hyperbolic": _interval_class(enc_add(_U[0], _U[3])),
    }

    # probe-only relation scan for the freeness condition on <view1, Q>
    r1 = candidate.view1()
    gens, den = int_matrices([r1, r1.inv(), q, q.inv()])
    hits = [str(ReducedWord(codes)) for codes, mat
            in walk_words(gens, vi_depth)
            if is_scalar4(mat, den ** len(codes))]
    cond_vi = {
        "probe_only": True,
        "relation_scan_depth": vi_depth,
        "relations_found": hits,
        "rationale": ("an elliptic generator admits no ping-pong "
                      "certificate; outside countably many subvarieties the "
                      "pair is free, and the scan found no relation"),
    }

    # the view2 (sigma3) commutator is the image of this one under the
    # injective sigma3 o sigma2 (see LimitCandidate): one verdict for both
    nontrivial = not (q * r1 * q.inv()).commutator(r1).is_identity()
    cond_vii = {"commutator_view1": nontrivial, "commutator_view2": nontrivial}

    cond_viii = not share_eigenvector(m, q, 0)

    notes = ["the second-view limit condition is applied to every entry; "
             "the displayed indexing names one entry but quantifies all"]
    return LimitCheckReport(candidate, res_i, res_ii, odd_zero, res_iii,
                            cond_iv, cond_v, cond_vi, cond_vii, cond_viii,
                            notes)


# ---------------------------------------------------------------------------
# bounded search


def _pairs_within(ka: list[int], order_a: list[int], kb: list[int],
                  order_b: list[int], limit: int):
    """Index pairs (a, b) with ka[a] + kb[b] <= limit; order_a and order_b
    list the indices of ka and kb by increasing value."""
    low_b = kb[order_b[0]]
    for a in order_a:
        if ka[a] + low_b > limit:
            return
        for b in order_b:
            if ka[a] + kb[b] > limit:
                break
            yield a, b


def _rank_tables(bound: int):
    """Per-position rank tables, row-major, over the entries with
    |coefficients| <= bound in itertools.product order: each rank is the
    sum of the entry's three residual upper ends (``_residuals``), an int
    at scale 2^DEFAULT_BITS.  Only the (2 bound + 1)^2 coefficient pairs are
    enclosed, never an entry on its own.

    Residual i of p + q b + r b^2 + s b^3 depends only on (p, r) and the
    position, residual ii only on (q, s), so each is taken once per pair.
    The second-view residual's upper end, max(e_hi - o_lo - v_lo,
    v_hi - e_lo + o_hi) for the even part e and the odd part o, is one add
    per entry on each side of the max."""
    rng = range(-bound, bound + 1)
    pairs = list(itertools.product(rng, repeat=2))
    even, odd = _part_bounds(pairs)
    by_qs = {(q, s): (_abs_diff(*odd[q, -s])[1], -odd[q, s][0], odd[q, s][1])
             for q, s in pairs}
    tables = []
    for u, (v_lo, v_hi) in _TARGETS:
        by_pr = {(p, r): (_abs_diff(*even[p, -r], *u)[1],
                          even[p, r][1] - v_lo, v_hi - even[p, r][0])
                 for p, r in pairs}
        table = []
        for p, q, r, s in itertools.product(rng, repeat=4):
            res_i, e_up, e_down = by_pr[p, r]
            res_ii, o_up, o_down = by_qs[q, s]
            table.append(res_i + res_ii + max(e_up + o_up, e_down + o_down))
        tables.append(table)
    return tables


def search_limit_candidates(bound: int,
                            count: int = 25) -> list[LimitCandidate]:
    """The count best integral matrices with per-entry coefficient bound and
    determinant one that pass conditions iv and viii against the paper Q,
    ranked exactly by the summed residual upper bounds of
    ``check_limit_conditions``, ties broken by the coefficients.

    The rank is a sum of per-entry terms, so each position gets a table of
    entry ranks as ints at one scale (``_rank_tables``) and a hit's key is
    four lookups.  The det = 1 constraint x11 x22 = 1 + x12 x21 is a join of
    diagonal products against off-diagonal ones, run in threshold rounds
    (Fagin, Lotem and Naor's threshold algorithm): each round indexes only
    the diagonal and off-diagonal entry pairs that can be half of a hit
    with key at most the round's threshold, and the threshold's slack
    doubles until the best list is full within it.  Only hits that beat
    the count-th best found so far reach the exact structural checks, and
    each hit is checked at most once.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if count < 1:
        raise ValueError("count must be positive")
    _, q = paper_generators()
    k11, k12, k21, k22 = _rank_tables(bound)
    entries = list(itertools.product(range(-bound, bound + 1), repeat=4))
    o11, o12, o21, o22 = (sorted(range(len(t)), key=t.__getitem__)
                          for t in (k11, k12, k21, k22))
    lo_diag = k11[o11[0]] + k22[o22[0]]
    lo_off = k12[o12[0]] + k21[o21[0]]
    hi = k11[o11[-1]] + k12[o12[-1]] + k21[o21[-1]] + k22[o22[-1]]
    # structural verdict per hit (entry indices), the matrix if it passes
    passed: dict[tuple[int, int, int, int], RingMat2 | None] = {}

    # threshold rounds: a hit with key <= top has its diagonal half within
    # top - lo_off and its off-diagonal half within top - lo_diag, so each
    # round finds every hit with key <= top; a full list whose worst key is
    # <= top is then final, since every hit left unfound ranks after it
    slack = _SCALE
    while True:
        top = lo_diag + lo_off + slack
        products: dict[tuple, list[tuple[int, int]]] = {}
        for i11, i22 in _pairs_within(k11, o11, k22, o22, top - lo_off):
            products.setdefault(mul4(entries[i11], entries[i22]),
                                []).append((i11, i22))
        # best holds the count smallest (key, coeffs, matrix) so far,
        # sorted; a key above cutoff cannot enter it
        best: list[tuple[int, tuple, RingMat2]] = []
        cutoff = hi
        for i12, i21 in _pairs_within(k12, o12, k21, o21, top - lo_diag):
            off = k12[i12] + k21[i21]
            if off + lo_diag > cutoff:
                continue
            e12, e21 = entries[i12], entries[i21]
            m = mul4(e12, e21)
            for i11, i22 in products.get((1 + m[0], m[1], m[2], m[3]), ()):
                key = off + k11[i11] + k22[i22]
                if key > cutoff:
                    continue
                coeffs = entries[i11] + e12 + e21 + entries[i22]
                if len(best) == count and (key, coeffs) > best[-1][:2]:
                    continue
                idx = (i11, i12, i21, i22)
                if idx not in passed:
                    mat = RingMat2(*(QuarticElem(*entries[i]) for i in idx))
                    # scalar +-I (trace +-2) fails condition iv, so it never
                    # reaches share_eigenvector, which rejects scalars
                    ok = (all(classify(mat, k) in cls
                              for _, k, cls in _CONDITION_IV)
                          and not share_eigenvector(mat, q, 0))
                    passed[idx] = mat if ok else None
                mat = passed[idx]
                if mat is None:
                    continue
                insort(best, (key, coeffs, mat))
                del best[count:]
                if len(best) == count:
                    cutoff = best[-1][0]
        if (len(best) == count and best[-1][0] <= top) or top >= hi:
            break
        slack *= 2
    return [LimitCandidate(mat) for _, _, mat in best]


# ---------------------------------------------------------------------------
# uniformity probe


class UniformityRow(Record):
    candidate: LimitCandidate
    margin: Enclosure
    witness: str
    near_identity_words: list[dict]

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate.to_json(),
            "margin": interval_json(self.margin),
            "witness": self.witness,
            "near_identity_words": self.near_identity_words,
        }


def margin_uniformity_probe(candidates, n: int, depth: int,
                            eps) -> list[UniformityRow]:
    """Margins for the groups generated by (Q, sigma1 Q) and the candidate
    views, at a common exponent; near-identity words get the projective
    eigenvector-proximity distances attached.

    Words are evaluated once over Z[beta] with generators (Q^n, P_cand^n);
    the two product factors are the sigma2 and sigma3 views because sigma2
    fixes Q and sigma1(Q) = sigma3(Q)."""
    from .probe import discreteness_margin
    eps = Fraction(eps)
    _, q = paper_generators()
    rows = []
    for cand in candidates:
        pair = (q, cand.matrix)
        rep = discreteness_margin(n, depth, pair=pair, views=(2, 3))
        near = _near_identity_rows(pair, n, depth, eps)
        rows.append(UniformityRow(cand, rep.margin, str(rep.witness), near))
    return rows


def _near_identity_rows(pair, n: int, depth: int,
                        eps: Fraction) -> list[dict]:
    from .probe import ReducedWord, walk_words
    from .projective import ProjPoint, proj_dist
    p, cnd = pair
    pn = p ** n
    cn = cnd ** n
    gens, den = int_matrices([pn, pn.inv(), cn, cn.inv()])
    below = eps_thresholds(den, eps, depth)
    out = []
    for codes, mat in walk_words(gens, depth):
        one = den ** len(codes)
        xs = minus_identity4(mat, one, eps.denominator)
        d = view_dist4(xs, 2)
        d3 = view_dist4(xs, 3)
        if compare_enclosed(d3, d) > 0:
            d = d3
        if compare_enclosed(d, below[len(codes)]) >= 0:
            continue
        mat = _mat(mat, one)
        entry = {"word": str(ReducedWord(codes))}
        try:
            eig = eigen2(mat, 0)
            if eig.vec_dominant is not None:
                e11, _, e21, e22 = mat.entries()
                pt_col = ProjPoint((e11, e21))
                pt_row = ProjPoint((e21, e22))
                for tag, vec in (("dominant", eig.vec_dominant),
                                 ("recessive", eig.vec_recessive)):
                    target = ProjPoint(vec)
                    entry[f"dist_col_{tag}"] = interval_json(
                        proj_dist(pt_col, target))
                    entry[f"dist_row_{tag}"] = interval_json(
                        proj_dist(pt_row, target))
            else:
                entry["eigen"] = "not hyperbolic in the identity view"
        except QuarticError as exc:
            entry["eigen"] = f"unavailable: {type(exc).__name__}"
        out.append((codes, entry))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return [entry for _, entry in out]
