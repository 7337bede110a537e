"""Candidate sequences for the two-real-factor limit construction.

A candidate is an integral 2x2 matrix over Z[beta] whose three Galois
views play fixed roles: the second view must be elliptic while the third
and the identity view are hyperbolic.  The checker scores candidates
against user-supplied limit targets; the search enumerates bounded
integral matrices of determinant one by hashing entry products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .construction import paper_generators
from .errors import NonIntegralInput, NotUnimodular, QuarticError
from .intervals import DEFAULT_BITS, Interval, interval_json
from .linalg import (
    EmbeddedMat2,
    MatClass,
    RingMat2,
    classify,
    eigen2,
    entry_dist_sq,
    share_eigenvector,
)
from .probe import ReducedWord, discreteness_margin, walk_words
from .projective import ProjPoint, proj_dist
from .ring import ONE, QuarticElem, Sign, mul4, quad_sign, sign4


@dataclass(frozen=True)
class LimitCandidate:
    """Integral candidate with its three embedding views.

    The views satisfy, entrywise: view1 = (p + r b^2) - (q b + s b^3),
    view3 = (p + r b^2) + (q b + s b^3); the constructor re-derives both
    from the raw coefficients and checks them against the Galois maps.
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

    def view2(self) -> EmbeddedMat2:
        """sigma3 image in SL(2, C)."""
        return self.matrix.embed(3)

    def view3(self) -> RingMat2:
        """The identity embedding; entries can escape to infinity along a
        convergent candidate sequence."""
        return self.matrix

    def coeff_grid(self) -> list[list[int]]:
        return [[int(c) for c in e.coeffs()] for e in self.matrix.entries()]

    def to_json(self) -> dict:
        return {"coefficients": self.coeff_grid(),
                "matrix": self.matrix.to_text()}

    @classmethod
    def from_json(cls, obj: dict) -> "LimitCandidate":
        return cls(RingMat2.parse(obj["matrix"]))


@dataclass
class LimitTargets:
    """Interval targets for the two limit matrices: v entries for the
    elliptic limit of the second view, u entries for the hyperbolic limit.
    The tolerance schedule says how tight the residuals must be at the
    n-th member of a candidate sequence; default is geometric."""

    u: list[list[Interval]]
    v: list[list[Interval]]
    tolerances: list[Fraction] | None = None

    def tolerance_at(self, seq_index: int) -> Fraction:
        if self.tolerances:
            idx = min(seq_index, len(self.tolerances) - 1)
            return self.tolerances[idx]
        return Fraction(1, 2 ** seq_index) if seq_index >= 0 else Fraction(1)

    @classmethod
    def from_matrices(cls, u_mat: RingMat2, v_mat: RingMat2,
                      bits: int = DEFAULT_BITS) -> "LimitTargets":
        u = [[u_mat.e11.interval(bits), u_mat.e12.interval(bits)],
             [u_mat.e21.interval(bits), u_mat.e22.interval(bits)]]
        v = [[v_mat.e11.interval(bits), v_mat.e12.interval(bits)],
             [v_mat.e21.interval(bits), v_mat.e22.interval(bits)]]
        return cls(u, v)


def default_targets(bits: int = DEFAULT_BITS) -> LimitTargets:
    """Companion-shaped targets built from the hyperbolic generator trace:
    u from trace 3 + 2 sqrt2 (hyperbolic), v from its conjugate 3 - 2 sqrt2
    (elliptic)."""
    u_mat = RingMat2(QuarticElem(3, 0, 2, 0), ONE, -ONE, QuarticElem(0))
    v_mat = RingMat2(QuarticElem(3, 0, -2, 0), ONE, -ONE, QuarticElem(0))
    return LimitTargets.from_matrices(u_mat, v_mat, bits)


def _interval_class(trace_iv: Interval) -> str:
    a = abs(trace_iv)
    if a.hi < 2:
        return "elliptic"
    if a.lo > 2:
        return "hyperbolic"
    return "undecided"


@dataclass
class LimitCheckReport:
    candidate: LimitCandidate
    residuals_i: list[list[Interval]]
    residuals_ii: list[list[Interval]]
    residuals_ii_exact_zero: bool
    residuals_iii: list[list[Interval]]
    cond_iv: dict[str, bool]
    cond_v: dict[str, str]
    cond_vi_probe: dict
    cond_vii: dict[str, bool]
    cond_viii: bool
    notes: list[str] = field(default_factory=list)

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


def _entry_grid(m: RingMat2):
    return [[m.e11, m.e12], [m.e21, m.e22]]


def check_limit_conditions(candidate: LimitCandidate,
                           targets: LimitTargets | None = None,
                           q: RingMat2 | None = None,
                           vi_depth: int = 10,
                           seq_index: int | None = None,
                           bits: int = DEFAULT_BITS) -> LimitCheckReport:
    """Exact verdicts for the structural conditions, interval residuals
    against the limit targets, and a probe-only freeness scan.  With a
    sequence index the residuals are also compared against the targets'
    tolerance schedule."""
    targets = targets or default_targets(bits)
    if q is None:
        _, q = paper_generators()
    m = candidate.matrix
    if not m.is_integral():
        raise NonIntegralInput("integer coefficients required")
    if m.det() != ONE:
        raise NotUnimodular("candidate must have determinant one")

    res_i = []
    res_ii = []
    res_iii = []
    odd_zero = True
    for i, row in enumerate(_entry_grid(m)):
        r_i = []
        r_ii = []
        r_iii = []
        for j, e in enumerate(row):
            p, qq, r, s = e.coeffs()
            even_conj = QuarticElem(p, 0, -r, 0)
            odd = QuarticElem(0, qq, 0, -s)
            if not odd.is_zero():
                odd_zero = False
            r_i.append(abs(even_conj.interval(bits) - targets.u[i][j]))
            r_ii.append(abs(odd.interval(bits)))
            r_iii.append(abs(e.conj_even().interval(bits) - targets.v[i][j]))
        res_i.append(r_i)
        res_ii.append(r_ii)
        res_iii.append(r_iii)

    cond_iv = {
        "view1_elliptic": classify(m, 2) == MatClass.ELLIPTIC,
        "view2_hyperbolic": classify(m, 3) in (MatClass.HYPERBOLIC,
                                               MatClass.LOXODROMIC),
        "view3_hyperbolic": classify(m, 0) == MatClass.HYPERBOLIC,
    }

    u_trace = targets.u[0][0] + targets.u[1][1]
    v_trace = targets.v[0][0] + targets.v[1][1]
    cond_v = {
        "target_elliptic": _interval_class(v_trace),
        "target_hyperbolic": _interval_class(u_trace),
    }

    # probe-only relation scan for the freeness condition on <view1, Q>
    r1 = candidate.view1()
    hits = [str(ReducedWord(codes)) for codes, mat
            in walk_words([r1, r1.inv(), q, q.inv()], vi_depth)
            if mat.is_identity()]
    cond_vi = {
        "probe_only": True,
        "relation_scan_depth": vi_depth,
        "relations_found": hits,
        "rationale": ("an elliptic generator admits no ping-pong "
                      "certificate; outside countably many subvarieties the "
                      "pair is free, and the scan found no relation"),
    }

    s1q = q.embed(1)
    r2 = candidate.view2()
    comm1 = (q * r1 * q.inv()).commutator(r1)
    comm2 = (s1q * r2 * s1q.adjugate_inv()).commutator(r2)
    cond_vii = {
        "commutator_view1": not comm1.is_identity(),
        "commutator_view2": not comm2.is_identity(),
    }

    cond_viii = not share_eigenvector(m, q, 0)

    notes = ["the second-view limit condition is applied to every entry; "
             "the displayed indexing names one entry but quantifies all"]
    report = LimitCheckReport(candidate, res_i, res_ii, odd_zero, res_iii,
                              cond_iv, cond_v, cond_vi, cond_vii, cond_viii,
                              notes)
    if seq_index is not None:
        tol = targets.tolerance_at(seq_index)
        worst = max(iv.hi for grid in (res_i, res_ii, res_iii)
                    for row in grid for iv in row)
        report.notes.append(
            f"sequence index {seq_index}: worst residual {float(worst):.6g} "
            f"{'within' if worst <= tol else 'exceeds'} tolerance {tol}")
    return report


# ---------------------------------------------------------------------------
# bounded search


_B1 = 1.189207115002721
_B2 = 1.4142135623730951
_B3 = 1.6817928305074290


def _approx(t) -> float:
    return t[0] + t[1] * _B1 + t[2] * _B2 + t[3] * _B3


def _approx2(t) -> float:
    return t[0] - t[1] * _B1 + t[2] * _B2 - t[3] * _B3


_Q_FORM = ((-1, 0, 0, 0), (-3, 0, -2, 0), (-1, 0, 0, 0))


def _tuple_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _resultant_nonzero_vs_q(e11, e12, e21, e22) -> bool:
    """Resultant of the fixed-slope forms of the candidate and of Q."""
    f2, f1, f0 = e21, _tuple_sub(e22, e11), tuple(-x for x in e12)
    g2, g1, g0 = _Q_FORM
    m = _tuple_sub(mul4(f2, g0), mul4(g2, f0))
    res = _tuple_sub(mul4(m, m),
                     mul4(_tuple_sub(mul4(f2, g1), mul4(g2, f1)),
                          _tuple_sub(mul4(f1, g0), mul4(g1, f0))))
    return res != (0, 0, 0, 0)


def _structural_pass(e11, e12, e21, e22) -> bool:
    """Exact per-candidate filters on raw integer coefficient tuples."""
    tr = (e11[0] + e22[0], e11[1] + e22[1], e11[2] + e22[2], e11[3] + e22[3])
    # second view elliptic: (sigma2 trace)^2 < 4
    s2 = (tr[0], -tr[1], tr[2], -tr[3])
    sq = mul4(s2, s2)
    if sign4((sq[0] - 4, sq[1], sq[2], sq[3])) != -1:
        return False
    # identity view hyperbolic: trace^2 > 4
    sq0 = mul4(tr, tr)
    if sign4((sq0[0] - 4, sq0[1], sq0[2], sq0[3])) != 1:
        return False
    # third complex view hyperbolic: non-real trace is loxodromic, a real
    # trace t0 - t2 sqrt2 needs modulus above 2
    if tr[1] == 0 and tr[3] == 0:
        u, v = tr[0], -tr[2]
        if quad_sign(u * u + 2 * v * v - 4, 2 * u * v) != 1:
            return False
    if e12 == (0, 0, 0, 0) and e21 == (0, 0, 0, 0) and e11 == e22:
        return False
    return _resultant_nonzero_vs_q(e11, e12, e21, e22)


def _float_rank(coeffs, tu, tv) -> float:
    """Cheap residual estimate used only to shortlist before exact ranking."""
    total = 0.0
    for idx in range(4):
        p, q, r, s = coeffs[4 * idx: 4 * idx + 4]
        even = p - r * _B2
        odd = q * _B1 - s * _B3
        second = _approx2((p, q, r, s))
        total += abs(even - tu[idx]) + abs(odd) + abs(second - tv[idx])
    return total


def search_limit_candidates(bound: int, targets: LimitTargets | None = None,
                            count: int = 25,
                            bits: int = DEFAULT_BITS) -> list[LimitCandidate]:
    """Exhaustive scan over integral matrices with per-entry coefficient
    bound, determinant one, passing the structural conditions exactly;
    deterministic order, ranked by target residuals.

    The det = 1 constraint is resolved by indexing all diagonal products:
    x11 x22 = 1 + x12 x21 becomes a hash join instead of a quartic scan.
    Filters run on raw coefficient tuples; ring elements are built only
    for the shortlisted candidates, whose final ranking is exact.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    targets = targets or default_targets(bits)
    rng = range(-bound, bound + 1)
    entries = [t for t in itertools.product(rng, repeat=4)]
    products: dict[tuple, list[tuple[int, int]]] = {}
    for i, a in enumerate(entries):
        for j, c in enumerate(entries):
            key = mul4(a, c)
            products.setdefault(key, []).append((i, j))

    tu = [float(iv.midpoint()) for row in targets.u for iv in row]
    tv = [float(iv.midpoint()) for row in targets.v for iv in row]
    shortlist: list[tuple[float, tuple]] = []
    pool = max(4 * count, 200)
    worst = float("inf")
    for e12 in entries:
        for e21 in entries:
            m = mul4(e12, e21)
            key = (1 + m[0], m[1], m[2], m[3])
            hits = products.get(key)
            if not hits:
                continue
            for i11, i22 in hits:
                e11 = entries[i11]
                e22 = entries[i22]
                tr = (e11[0] + e22[0], e11[1] + e22[1],
                      e11[2] + e22[2], e11[3] + e22[3])
                # float prefilters with a safety margin, then exact checks
                if abs(_approx2(tr)) > 2.02:
                    continue
                if abs(_approx(tr)) < 1.98:
                    continue
                coeffs = e11 + e12 + e21 + e22
                frank = _float_rank(coeffs, tu, tv)
                if len(shortlist) >= pool and frank > worst + 1e-6:
                    continue
                if not _structural_pass(e11, e12, e21, e22):
                    continue
                shortlist.append((frank, coeffs))
                if len(shortlist) >= 4 * pool:
                    shortlist.sort()
                    shortlist = shortlist[:pool]
                    worst = shortlist[-1][0]
    shortlist.sort()
    shortlist = shortlist[:pool]

    ranked: list[tuple[Fraction, tuple, LimitCandidate]] = []
    for _, coeffs in shortlist:
        mat = RingMat2(QuarticElem(*coeffs[0:4]), QuarticElem(*coeffs[4:8]),
                       QuarticElem(*coeffs[8:12]), QuarticElem(*coeffs[12:16]))
        cand = LimitCandidate(mat)
        ranked.append((_residual_rank(cand, targets, bits), coeffs, cand))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return [cand for _, _, cand in ranked[:count]]


def _residual_rank(cand: LimitCandidate, targets: LimitTargets,
                   bits: int) -> Fraction:
    total = Fraction(0)
    for i, row in enumerate(_entry_grid(cand.matrix)):
        for j, e in enumerate(row):
            p, qq, r, s = e.coeffs()
            total += abs(QuarticElem(p, 0, -r, 0).interval(bits)
                         - targets.u[i][j]).hi
            total += abs(QuarticElem(0, qq, 0, -s).interval(bits)).hi
            total += abs(e.conj_even().interval(bits) - targets.v[i][j]).hi
    return total


# ---------------------------------------------------------------------------
# uniformity probe


@dataclass
class UniformityRow:
    candidate: LimitCandidate
    margin: Interval
    witness: str
    near_identity_words: list[dict]

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate.to_json(),
            "margin": interval_json(self.margin),
            "witness": self.witness,
            "near_identity_words": self.near_identity_words,
        }


def margin_uniformity_probe(candidates, n: int, depth: int, eps,
                            bits: int = DEFAULT_BITS) -> list[UniformityRow]:
    """Margins for the groups generated by (Q, sigma1 Q) and the candidate
    views, at a common exponent; near-identity words get the projective
    eigenvector-proximity distances attached.

    Words are evaluated once over Z[beta] with generators (Q^n, P_cand^n);
    the two product factors are the sigma2 and sigma3 views because sigma2
    fixes Q and sigma1(Q) = sigma3(Q)."""
    eps = Fraction(eps)
    _, q = paper_generators()
    rows = []
    for cand in candidates:
        if isinstance(cand, dict):
            cand = LimitCandidate.from_json(cand)
        pair = (q, cand.matrix)
        rep = discreteness_margin(n, depth, pair=pair, views=(2, 3), bits=bits)
        near = _near_identity_rows(pair, n, depth, eps, bits)
        rows.append(UniformityRow(cand, rep.margin, str(rep.witness), near))
    return rows


def _near_identity_rows(pair, n: int, depth: int, eps: Fraction,
                        bits: int) -> list[dict]:
    p, cnd = pair
    pn = p ** n
    cn = cnd ** n
    gens = [pn, pn.inv(), cn, cn.inv()]
    ident = RingMat2.identity()
    eps_sq = QuarticElem(eps * eps)
    out = []
    for codes, mat in walk_words(gens, depth):
        d2 = entry_dist_sq(mat, ident, 2)
        d3 = entry_dist_sq(mat, ident, 3)
        dprod = d3 if (d3 - d2).sign() == Sign.POSITIVE else d2
        if (dprod - eps_sq).sign() != Sign.NEGATIVE:
            continue
        entry = {"word": str(ReducedWord(codes))}
        try:
            eig = eigen2(mat, 0)
            if eig.vec_dominant is not None:
                pt_col = ProjPoint((mat.e11, mat.e21))
                pt_row = ProjPoint((mat.e21, mat.e22))
                for tag, vec in (("dominant", eig.vec_dominant),
                                 ("recessive", eig.vec_recessive)):
                    target = ProjPoint(vec)
                    entry[f"dist_col_{tag}"] = interval_json(
                        proj_dist(pt_col, target, bits))
                    entry[f"dist_row_{tag}"] = interval_json(
                        proj_dist(pt_row, target, bits))
            else:
                entry["eigen"] = "not hyperbolic in the identity view"
        except QuarticError as exc:
            entry["eigen"] = f"unavailable: {type(exc).__name__}"
        out.append((codes, entry))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return [entry for _, entry in out]
