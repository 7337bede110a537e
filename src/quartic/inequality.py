"""The standalone inequality probes: exact verdicts on the sigma2 entries
of one matrix, with distances and ratios reported as enclosures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .construction import Signedness, delta, delta1, delta2, signedness
from .eigen import eigen2, proj_dist
from .errors import UnsignedElement
from .extension import QuadExt
from .intervals import DEFAULT_BITS, enc_div, enc_sqrt
from .linalg import RingMat2, paper_generators
from .record import Record
from .report import interval_json
from .ring import ONE, SQRT2, QuarticElem, Sign, galois


class InequalityRecord(Record):
    which: int
    available: bool
    items: list = []
    note: str = ""

    def to_json(self) -> dict:
        return {"which": self.which, "available": self.available,
                "items": self.items, "note": self.note}


def _entries_for_probe(a: RingMat2):
    e11, e12, e21, e22 = a.real_view().entries()
    return e11 - ONE, e12, e21, e22 - ONE


def _require_signed(entries) -> None:
    for x in entries:
        if not x.is_zero() and signedness(x) == Signedness.UNSIGNED:
            raise UnsignedElement(
                f"sigma2 entry shift {x.to_text()} is not signed")


def _sigma2_p_slopes():
    p, _ = paper_generators()
    e = eigen2(p.real_view())
    return e.vec_dominant, e.vec_recessive


def _sigma2_p_max_ratio() -> QuadExt:
    """max(|lambda1|, 1/|lambda1|) for the slope lambda1 of the sigma2 view
    of P; the two slopes are reciprocal up to sign."""
    v_dom, _ = _sigma2_p_slopes()
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
    if which not in (4, 6, 7, 8, 9, 10, 11, 13, 14):
        raise ValueError(f"inequality {which} is not probeable")
    zeta1, eta, mu, nu1 = _entries_for_probe(a)
    rec = InequalityRecord(which=which, available=True)

    if which == 4:
        e3, f3, g3, h3 = (x.q3 for x in a.entries())
        v_dom, v_rec = _sigma2_p_slopes()
        targets = [("dominant", v_dom), ("recessive", v_rec)]
        for label, coords in (("[e:g]", (e3, g3)), ("[f:h]", (f3, h3))):
            if coords[0] == 0 and coords[1] == 0:
                rec.items.append({"point": label, "defined": False})
                continue
            pt = (QuarticElem(coords[0]), QuarticElem(coords[1]))
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
            m0, m1, m2 = (enc_sqrt((re * re + SQRT2 * im * im)
                                   .interval(DEFAULT_BITS))
                          for re, im in (galois(x, k) for k in range(3)))
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
        for s1, s2, s3, s4 in product((1, -1), repeat=4):
            lhs = coeff * (s1 * eta - s2 * mu) + 2 * (s3 * zeta1 - s4 * nu1)
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
        # exact comparisons: QuarticElem orders by the sign of a difference
        first, second = (max(min(delta1(x), delta2(x)) for x in xs)
                         for xs in ((zeta1, mu), (eta, nu1)))
        overall = min(first, second)
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
        for s1, s2, s3, s4 in product((1, -1), repeat=4):
            lhs = (coeff * (s1 * d_eta - s2 * d_mu)
                   + 2 * (s3 * d_nu - s4 * d_zeta))
            val = QuadExt.of_base(lhs.abs(), mratio.d) * mratio
            holds = ((val - QuadExt.of_base(QuarticElem(threshold),
                                            mratio.d)).sign() == Sign.POSITIVE)
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
