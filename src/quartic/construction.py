"""The concrete generator pair and the scalar identities attached to it.

P and Q are the fixed 2x2 matrices over Z[beta] whose Galois views drive
everything else.  This module houses the conjugation closed forms for
Q^n sigma2(A) Q^-n, the trace recursion lambda^n + lambda^-n = A_n + B_n
sqrt2, the Pell-gap table, and the standalone inequality probes.  All
verdicts are exact; enclosures, int triples (lo, hi, scale) from
``intervals``, appear only as reported values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import QuarticError, UnsignedElement
from .extension import QuadExt
from .intervals import DEFAULT_BITS, Enclosure, enc_div, enc_sqrt, interval_json
from .linalg import RingMat2, eigen2, share_eigenvector
from .record import Record
from .ring import (
    ONE,
    ZERO,
    QuarticElem,
    Sign,
    Signedness,
    delta,
    delta1,
    delta2,
    galois,
    gamma,
    signedness,
    sqrt2_text,
)


def paper_generators() -> tuple[RingMat2, RingMat2]:
    """The generator pair: P has trace 5 - 3b + b^2 - 2b^3, Q has trace
    3 + 2b^2; both are companion-shaped with determinant one."""
    p = RingMat2(QuarticElem(5, -3, 1, -2), ONE, -ONE, ZERO)
    q = RingMat2(QuarticElem(3, 0, 2, 0), ONE, -ONE, ZERO)
    return p, q


# ---------------------------------------------------------------------------
# trace recursion and Pell quantities


class ChebyshevPair(Record):
    """Integers with lambda^n + lambda^-n = A_n + B_n sqrt2."""

    n: int
    a: int
    b: int


_CHEB_CACHE: list[QuarticElem] = [QuarticElem(2), QuarticElem(3, 0, 2)]
_CHEB2_CACHE: list[QuarticElem] = [ZERO, ONE]
_TRACE_Q = QuarticElem(3, 0, 2)


def _cheb_first(n: int) -> QuarticElem:
    """lambda^n + lambda^-n as an element of Z[sqrt2], n >= 0."""
    while len(_CHEB_CACHE) <= n:
        _CHEB_CACHE.append(_TRACE_Q * _CHEB_CACHE[-1] - _CHEB_CACHE[-2])
    return _CHEB_CACHE[n]


def _cheb_second(n: int) -> QuarticElem:
    """(lambda^n - lambda^-n) / (lambda - lambda^-1) in Z[sqrt2], any n."""
    if n < 0:
        return -_cheb_second(-n)
    while len(_CHEB2_CACHE) <= n:
        _CHEB2_CACHE.append(_TRACE_Q * _CHEB2_CACHE[-1] - _CHEB2_CACHE[-2])
    return _CHEB2_CACHE[n]


def cheb_value(n: int) -> QuarticElem:
    return _cheb_first(abs(n))


def chebyshev(n: int) -> ChebyshevPair:
    if n < 0:
        raise ValueError("nonnegative index expected")
    v = _cheb_first(n)
    return ChebyshevPair(n, int(v.q0), int(v.q2))


def trace_matches_chebyshev(n: int) -> bool:
    """trace(Q^n) = A_n + B_n sqrt2, checked exactly."""
    _, q = paper_generators()
    t = (q ** n).trace()
    return t == cheb_value(n)


class PellRow(Record):
    n: int
    a: int
    b: int
    pell_norm: int                     # |A_n^2 - 2 B_n^2|
    gap: Enclosure                     # |A_n - sqrt2 B_n|
    ratio_gap: Enclosure               # |A_n / B_n - sqrt2|
    norm_increased: bool | None        # vs the previous row


class PellTable(Record):
    rows: list[PellRow]
    first_norm_decrease: int | None
    monotone_gap_verdict: bool         # did |A - sqrt2 B| grow at every step

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "n": r.n, "A": r.a, "B": r.b,
                    "pell_norm": r.pell_norm,
                    "gap": interval_json(r.gap),
                    "ratio_gap": interval_json(r.ratio_gap),
                    "norm_increased": r.norm_increased,
                } for r in self.rows
            ],
            "first_norm_decrease": self.first_norm_decrease,
            "monotone_gap_verdict": self.monotone_gap_verdict,
        }


def pell_divergence(n_max: int) -> PellTable:
    """Exact Pell-gap table for lambda^n + lambda^-n = A_n + B_n sqrt2.

    gap = |A - sqrt2 B| is evaluated through the exact identity
    gap = |A^2 - 2B^2| / (A + sqrt2 B), which is stable, with A + sqrt2 B
    enclosed at 128 bits; the monotonicity of |A^2 - 2B^2| is an exact
    integer verdict per step.
    """
    if n_max < 2:
        raise ValueError("n_max >= 2 expected")
    rows: list[PellRow] = []
    prev_norm = None
    first_dec = None
    for n in range(1, n_max + 1):
        pair = chebyshev(n)
        a, b = pair.a, pair.b
        norm = abs(a * a - 2 * b * b)
        den = QuarticElem(a, 0, b).interval(128)
        gap = enc_div((norm, norm, 1), den)
        ratio = (gap[0], gap[1], gap[2] * b)
        inc = None if prev_norm is None else norm > prev_norm
        if inc is False and first_dec is None:
            first_dec = n
        rows.append(PellRow(n, a, b, norm, gap, ratio, inc))
        prev_norm = norm
    monotone = first_dec is None
    return PellTable(rows, first_dec, monotone)


# ---------------------------------------------------------------------------
# conditions (1) - (3)


class ConditionReport(Record):
    condition1: bool
    condition2: bool
    condition3_first: bool
    condition3_second: bool
    via_noncommuting: bool
    notes: str

    def to_json(self) -> dict:
        return {
            "condition1_fixed_points_disjoint": self.condition1,
            "condition2_cross_disjoint": self.condition2,
            "condition3_commutator_qpq": self.condition3_first,
            "condition3_commutator_pqp": self.condition3_second,
            "condition3_via_noncommuting": self.via_noncommuting,
            "notes": self.notes,
        }


def check_conditions(p: RingMat2, q: RingMat2, m: int, n: int) -> ConditionReport:
    """Fixed-point disjointness and commutator non-vanishing, evaluated on
    the sigma2 views where both generators act hyperbolically.

    In dimension two the cross conditions coincide with fixed-point
    disjointness, so conditions one and two carry the same verdict.
    """
    from .projective import noncommuting_check
    if m < 1 or n < 1:
        raise ValueError("powers must be at least 1")
    try:
        disjoint = not share_eigenvector(p, q, 2)
    except QuarticError:
        disjoint = False
    c3a = not (((q ** m) * (p ** n) * (q ** -m)).commutator(p ** n)).is_identity()
    c3b = not (((p ** m) * (q ** n) * (p ** -m)).commutator(q ** n)).is_identity()
    via = False
    if disjoint:
        via = bool(noncommuting_check(p.real_view(2), q.real_view(2)))
    notes = ("size-two crosses equal the fixed-point pairs, so conditions "
             "one and two are a single verdict")
    return ConditionReport(disjoint, disjoint, c3a, c3b, via, notes)


# ---------------------------------------------------------------------------
# conjugation closed forms


def _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn, map_entry):
    """The bilinear expansion of Q^n M Q^-n with map_entry applied to the
    shifted entries; map_entry = identity gives the conjugate itself."""
    z1 = map_entry(zeta - ONE)
    n1 = map_entry(nu - ONE)
    e = map_entry(eta)
    u = map_entry(mu)
    e11 = an * dn * z1 - bn * cn * n1 + bn * dn * u - an * cn * e
    e12 = an * an * e - bn * bn * u - an * bn * (z1 - n1)
    e21 = dn * dn * u - cn * cn * e + cn * dn * (z1 - n1)
    e22 = an * dn * n1 - bn * cn * z1 + an * cn * e - bn * dn * u
    return e11, e12, e21, e22


class ConjugationRecord(Record):
    n: int
    a_n: QuarticElem
    b_n: QuarticElem
    c_n: QuarticElem
    d_n: QuarticElem
    direct: RingMat2
    direct_primed: RingMat2
    closed_forms_match: bool
    delta_available: bool
    gamma_matrix: RingMat2 | None = None
    delta_matrix: RingMat2 | None = None
    s1: QuarticElem | None = None
    s2: QuarticElem | None = None
    r1: QuarticElem | None = None
    r2: QuarticElem | None = None
    s1_primed: QuarticElem | None = None
    s2_primed: QuarticElem | None = None
    identity_checks: dict = {}
    ent21_displayed_sign_matches: bool | None = None

    def to_json(self) -> dict:
        def q(x):
            return None if x is None else x.to_text()
        return {
            "n": self.n,
            "a_n": sqrt2_text(self.a_n), "b_n": sqrt2_text(self.b_n),
            "c_n": sqrt2_text(self.c_n), "d_n": sqrt2_text(self.d_n),
            "direct": self.direct.to_text(),
            "direct_primed": self.direct_primed.to_text(),
            "closed_forms_match": self.closed_forms_match,
            "delta_available": self.delta_available,
            "S1": q(self.s1), "S2": q(self.s2),
            "R1": q(self.r1), "R2": q(self.r2),
            "S1_primed": q(self.s1_primed), "S2_primed": q(self.s2_primed),
            "identity_checks": self.identity_checks,
        }


def lambda_plus_inverse() -> QuarticElem:
    """lambda + 1/lambda for the hyperbolic generator: 3 + 2 sqrt2."""
    return QuarticElem(3, 0, 2)


def l_squared() -> QuarticElem:
    """(lambda - 1/lambda)^2 = 13 + 12 sqrt2."""
    return (lambda_plus_inverse() * lambda_plus_inverse()) - 4


def l_squared_inverse() -> QuarticElem:
    return l_squared().inv()


def conjugation_record(a: RingMat2, n: int) -> ConjugationRecord:
    """Closed forms for Q^n sigma2(a) Q^-n, verified against the direct
    matrix product.  The gamma/delta split and the S/R quantities are
    populated when the shifted sigma2 entries are signed (zero allowed)."""
    _, q = paper_generators()
    s2a = a.real_view(2)
    qn = q ** n
    an, bn, cn, dn = qn.entries()
    checks: dict[str, bool] = {}

    # closed forms in the hyperbolic eigenvalue: a_n = psi_{n+1}, etc.
    checks["a_n"] = an == _cheb_second(n + 1)
    checks["b_n"] = bn == _cheb_second(n)
    checks["c_n"] = cn == -_cheb_second(n)
    checks["d_n"] = dn == -_cheb_second(n - 1)

    direct = qn * s2a * (q ** -n)
    zeta, eta, mu, nu = s2a.entries()
    e11, e12, e21, e22 = _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn,
                                             lambda x: x)
    bilinear = RingMat2(e11 + ONE, e12, e21, e22 + ONE)
    checks["conjugate_bilinear_form"] = bilinear == direct

    s2a_inv = s2a.inv()
    direct_primed = (q ** -n) * s2a_inv * qn
    record = ConjugationRecord(
        n=n, a_n=an, b_n=bn, c_n=cn, d_n=dn,
        direct=direct, direct_primed=direct_primed,
        closed_forms_match=all(checks.values()),
        delta_available=False, identity_checks=checks)

    entries = (zeta - ONE, eta, mu, nu - ONE)
    if any(signedness(x) == Signedness.UNSIGNED and not x.is_zero()
           for x in entries):
        return record

    record.delta_available = True
    g11, g12, g21, g22 = _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn,
                                             gamma)
    d11, d12, d21, d22 = _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn,
                                             delta)
    record.gamma_matrix = RingMat2(g11, g12, g21, g22)
    record.delta_matrix = RingMat2(d11 + ONE, d12, d21, d22 + ONE)
    checks["gamma_plus_delta"] = (
        RingMat2(g11 + d11 + ONE, g12 + d12, g21 + d21, g22 + d22 + ONE)
        == direct)

    dz = delta(zeta - ONE)
    dn1 = delta(nu - ONE)
    de = delta(eta)
    du = delta(mu)
    c2n = cheb_value(2 * n)
    c2nm1 = cheb_value(2 * n - 1)
    c2np1 = cheb_value(2 * n + 1)
    lam1 = lambda_plus_inverse()
    lam2 = cheb_value(2)
    lsq = l_squared()

    record.s1 = c2n * (dn1 - dz) - c2nm1 * du + c2np1 * de
    record.s2 = c2n * (dz - dn1) + c2nm1 * du - c2np1 * de
    record.r1 = lam2 * dz - 2 * dn1 + lam1 * (du - de)
    record.r2 = lam2 * dn1 - 2 * dz + lam1 * (de - du)
    record.s1_primed = c2n * (dz - dn1) - c2nm1 * de + c2np1 * du
    record.s2_primed = c2n * (dn1 - dz) + c2nm1 * de - c2np1 * du

    m11, m12, m21, m22 = record.delta_matrix.entries()
    checks["ent11_decomposition"] = (
        lsq * m11 == lsq + record.s1 + record.r1)
    checks["ent22_decomposition"] = (
        lsq * m22 == lsq + record.s2 + record.r2)
    checks["ent12_closed_form"] = (
        lsq * m12
        == (cheb_value(2 * n + 2) - 2) * de
        - (c2n - 2) * du - (c2np1 - lam1) * (dz - dn1))
    # the (2,1) closed form needs "+" on its third term to agree with the
    # bilinear expansion; the sign printed in the reference display fails
    # for n >= 2 whenever delta(zeta-1) != delta(nu-1)
    checks["ent21_closed_form"] = (
        lsq * m21
        == (cheb_value(2 * n - 2) - 2) * du
        - (c2n - 2) * de + (c2nm1 - lam1) * (dz - dn1))
    record.ent21_displayed_sign_matches = (
        lsq * m21
        == (cheb_value(2 * n - 2) - 2) * du
        - (c2n - 2) * de - (c2nm1 - lam1) * (dz - dn1))
    checks["s1_minus_s1_primed"] = (
        record.s1 - record.s1_primed
        == c2n * (lam1 * (de - du) + 2 * (dn1 - dz)))
    record.closed_forms_match = all(checks.values())
    return record


def make_signed_sigma2_matrix(x: QuarticElem, y: QuarticElem,
                              z: QuarticElem) -> RingMat2:
    """A matrix A whose sigma2 view has signed shifted entries.

    For positive-coefficient x, y, z the product of elementary matrices
    [[1,x],[0,1]] [[1,0],[y,1]] [[1,z],[0,1]] has entries whose shifts
    zeta-1, eta, mu, nu-1 are all nonnegative; pulling back through sigma2
    gives the abstract matrix."""
    b = (RingMat2(ONE, x, ZERO, ONE) * RingMat2(ONE, ZERO, y, ONE)
         * RingMat2(ONE, z, ZERO, ONE))
    return b.real_view(2)


# ---------------------------------------------------------------------------
# inequality probes


class InequalityRecord(Record):
    which: int
    available: bool
    items: list = []
    note: str = ""

    def to_json(self) -> dict:
        return {"which": self.which, "available": self.available,
                "items": self.items, "note": self.note}


def _entries_for_probe(a: RingMat2):
    e11, e12, e21, e22 = a.real_view(2).entries()
    return e11 - ONE, e12, e21, e22 - ONE


def _require_signed(entries) -> None:
    for x in entries:
        if not x.is_zero() and signedness(x) == Signedness.UNSIGNED:
            raise UnsignedElement(
                f"sigma2 entry shift {x.to_text()} is not signed")


def _sigma2_p_slopes():
    p, _ = paper_generators()
    e = eigen2(p, 2)
    return e.vec_dominant, e.vec_recessive


def _sigma2_p_max_ratio() -> QuadExt:
    """max(|lambda1|, 1/|lambda1|) for the slope lambda1 of the sigma2 view
    of P; the two slopes are reciprocal up to sign."""
    v_dom, _ = _sigma2_p_slopes()
    slope = None
    # slope of the dominant eigenvector [v1 : v2] as v2 / v1
    v1, v2 = v_dom
    slope = v2 * v1.inv()
    s_abs = slope.abs()
    inv_abs = s_abs.inv()
    return s_abs if (s_abs - inv_abs).sign() == Sign.POSITIVE else inv_abs


def _iv(x) -> list[str]:
    return interval_json(x.interval(DEFAULT_BITS))


def _ratio_json(num: QuarticElem, den: QuarticElem) -> list[str] | None:
    """Enclosure of |num| / |den|, or None when |den| is not enclosed away
    from zero."""
    div = den.abs().interval(DEFAULT_BITS)
    if div[0] <= 0:
        return None
    return interval_json(enc_div(num.abs().interval(DEFAULT_BITS), div))


def inequality_probe(a: RingMat2, which: int) -> InequalityRecord:
    """Diagnostic evaluation of one displayed inequality on the sigma2
    entries of `a`.  Sign-quantified inequalities are evaluated for all
    sixteen sign choices with exact verdicts.  Distances print as
    enclosures at DEFAULT_BITS; probe 4 flags distances below 1 and
    probe 8 takes eps = 1/100."""
    from .projective import ProjPoint, proj_dist
    if which not in (4, 6, 7, 8, 9, 10, 11, 13, 14):
        raise ValueError(f"inequality {which} is not probeable")
    zeta1, eta, mu, nu1 = _entries_for_probe(a)
    rec = InequalityRecord(which=which, available=True)

    if which == 4:
        e3 = a.e11.q3
        g3 = a.e21.q3
        f3 = a.e12.q3
        h3 = a.e22.q3
        v_dom, v_rec = _sigma2_p_slopes()
        targets = [("dominant", ProjPoint(v_dom)), ("recessive", ProjPoint(v_rec))]
        for label, coords in (("[e:g]", (e3, g3)), ("[f:h]", (f3, h3))):
            if coords[0] == 0 and coords[1] == 0:
                rec.items.append({"point": label, "defined": False})
                continue
            pt = ProjPoint((QuarticElem(coords[0]), QuarticElem(coords[1])))
            for tname, tpt in targets:
                dist = proj_dist(pt, tpt)
                rec.items.append({
                    "point": label, "target": tname,
                    "dist": interval_json(dist),
                    "below_cap": dist[1] < dist[2],
                })
        rec.note = "distances to the sigma2 eigenvector points of P"
        return rec

    if which == 7:
        pairs = [("(zeta''-1)/mu''", a.e11 - ONE, a.e21),
                 ("eta''/(nu''-1)", a.e12, a.e22 - ONE)]
        lo_cap = Fraction(1, 1000)
        hi_cap = Fraction(1000)
        for name, num, den in pairs:
            if den.is_zero():
                rec.items.append({"ratio": name, "defined": False})
                continue
            nn = num.abs()
            dd = den.abs()
            above = ((nn - dd * QuarticElem(lo_cap)).sign() == Sign.POSITIVE)
            below = ((nn - dd * QuarticElem(hi_cap)).sign() == Sign.NEGATIVE)
            rec.items.append({
                "ratio": name,
                "interval": _ratio_json(num, den),
                "above_lower_cap": above,
                "below_upper_cap": below,
            })
        return rec

    if which == 8:
        names = ("zeta''-1", "eta''", "mu''", "nu''-1")
        shifted = (a.e11 - ONE, a.e12, a.e21, a.e22 - ONE)
        any_chain = False
        for name, x in zip(names, shifted):
            m0, m1, m2 = (enc_sqrt(galois(x, k).abs2().interval(DEFAULT_BITS))
                          for k in range(3))
            # all three at the square root's scale 2^DEFAULT_BITS
            s = m0[2]
            chain = (100 * m0[1] < s and s < 1000 * m1[0]
                     and m1[1] < 10 * s and m2[0] > 10 * s)
            any_chain = any_chain or chain
            rec.items.append({
                "entry": name,
                "sigma0": interval_json(m0),
                "sigma1": interval_json(m1),
                "sigma2": interval_json(m2),
                "chain_holds": chain,
            })
        rec.items.append({"exists_entry_with_chain": any_chain})
        rec.note = "thresholds: eps=1/100, 1/1000, 10"
        return rec

    if which == 13:
        coeff = QuarticElem(3, 0, -2, 0)
        count = 0
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    for s4 in (1, -1):
                        lhs = coeff * (s1 * eta - s2 * mu) \
                            + 2 * (s3 * zeta1 - s4 * nu1)
                        holds = ((lhs * lhs - ONE).sign() == Sign.POSITIVE)
                        count += holds
                        rec.items.append({
                            "signs": [s1, s2, s3, s4],
                            "lhs_abs": _iv(lhs.abs()),
                            "exceeds_one": bool(holds),
                        })
        rec.note = f"{count} of 16 sign choices exceed 1"
        return rec

    # the remaining probes need the gamma/delta split of the entries
    _require_signed((zeta1, eta, mu, nu1))

    if which == 6:
        def minmax(xs):
            vals = []
            for x in xs:
                d1 = delta1(x)
                d2 = delta2(x)
                m = d1 if (d1 - d2).sign() == Sign.NEGATIVE else d2
                vals.append(m)
            best = vals[0]
            for v in vals[1:]:
                if (v - best).sign() == Sign.POSITIVE:
                    best = v
            return best
        first = minmax([zeta1, mu])
        second = minmax([eta, nu1])
        overall = first if (first - second).sign() == Sign.NEGATIVE else second
        holds = ((overall - QuarticElem(Fraction(1, 1000))).sign()
                 == Sign.POSITIVE)
        rec.items.append({
            "first_set": _iv(first),
            "second_set": _iv(second),
            "overall_min": _iv(overall),
            "exceeds_threshold": bool(holds),
        })
        rec.note = "threshold 1/1000"
        return rec

    if which in (9, 10):
        mratio = _sigma2_p_max_ratio()
        power = 6 if which == 9 else 12
        cap = Fraction(10) ** power
        if which == 9:
            pairs = [("delta(zeta-1)/delta(mu)", delta(zeta1), delta(mu)),
                     ("delta(eta)/delta(nu-1)", delta(eta), delta(nu1))]
        else:
            pairs = []
            for i, (dl, tag) in enumerate(((delta1, "delta1"), (delta2, "delta2"))):
                pairs.append((f"{tag}(zeta-1)/{tag}(mu)", dl(zeta1), dl(mu)))
                pairs.append((f"{tag}(eta)/{tag}(nu-1)", dl(eta), dl(nu1)))
        any_holds = False
        for name, num, den in pairs:
            if den.is_zero():
                rec.items.append({"ratio": name, "defined": False})
                continue
            nn = QuadExt.of_base(num.abs(), mratio.d)
            dd = QuadExt.of_base(den.abs(), mratio.d)
            lower_ok = ((nn * mratio * QuarticElem(cap) - dd).sign()
                        == Sign.POSITIVE)
            upper_ok = ((dd * mratio * QuarticElem(cap) - nn).sign()
                        == Sign.POSITIVE)
            holds = lower_ok and upper_ok
            any_holds = any_holds or holds
            rec.items.append({
                "ratio": name,
                "interval": _ratio_json(num, den),
                "within_window": bool(holds),
            })
        rec.items.append({"some_ratio_within_window": bool(any_holds)})
        rec.note = f"window 10^-{power}/M .. 10^{power} M for M = max slope ratio"
        return rec

    if which == 11:
        mratio = _sigma2_p_max_ratio()
        coeff = QuarticElem(3, 0, 2, 0)
        d_eta = delta1(eta)
        d_mu = delta1(mu)
        d_nu = delta1(nu1)
        d_zeta = delta1(zeta1)
        threshold = Fraction(1, 10 ** 20)
        count = 0
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    for s4 in (1, -1):
                        lhs = coeff * (s1 * d_eta - s2 * d_mu) \
                            + 2 * (s3 * d_nu - s4 * d_zeta)
                        val = QuadExt.of_base(lhs.abs(), mratio.d) * mratio
                        holds = ((val - QuadExt.of_base(
                            QuarticElem(threshold), mratio.d)).sign()
                            == Sign.POSITIVE)
                        count += holds
                        rec.items.append({
                            "signs": [s1, s2, s3, s4],
                            "lhs_abs": _iv(lhs.abs()),
                            "exceeds_threshold": bool(holds),
                        })
        rec.note = f"{count} of 16 sign choices exceed 10^-20 / M"
        return rec

    # which == 14
    expr = (QuarticElem(3, 0, 2, 0) * (delta1(eta) - delta1(mu))
            + 2 * (delta1(nu1) - delta1(zeta1)))
    plus = expr.abs()
    minus = QuarticElem(expr.q0, 0, -expr.q2, 0).abs()
    smaller = plus if (plus - minus).sign() != Sign.POSITIVE else minus
    rec.items.append({
        "C": str(expr.q0), "D": str(expr.q2),
        "abs_c_plus_d_sqrt2": _iv(plus),
        "abs_c_minus_d_sqrt2": _iv(minus),
        "min_of_pair": _iv(smaller),
    })
    rec.note = "diagnostic only: the floor constant is context dependent"
    return rec
