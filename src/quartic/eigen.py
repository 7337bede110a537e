"""Eigen data of the real 2x2 views.

Eigenvalues of a real hyperbolic view are exact elements of a quadratic
extension of Q(beta) (``extension.QuadExt``).  Chordal distances between
eigenvector points (``proj_dist``) are validated enclosures.  Regular
representations are in ``regular``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (DimensionMismatch, InternalMismatch,
                     ParabolicNotSupported, UndecidedComparison)
from .extension import QuadExt
from .intervals import DEFAULT_BITS, Enclosure, enc_add, enc_div, enc_mul, enc_sqrt
from .linalg import MatClass, RingMat2, classify
from .record import Record
from .ring import ONE, QuarticElem, Sign


class Eigen2(Record):
    """User-facing eigen data for one real 2x2 view."""

    lam_dominant: QuadExt | None = None
    lam_recessive: QuadExt | None = None
    vec_dominant: tuple[QuadExt, QuadExt] | None = None
    vec_recessive: tuple[QuadExt, QuadExt] | None = None


def _eigvec_pair(a: RingMat2, lam: QuadExt) -> tuple[QuadExt, QuadExt]:
    """Eigenvector (v1, v2) of the real matrix a for eigenvalue lam."""
    d = lam.d
    e11, e12, e21, e22 = a.entries()
    b = QuadExt.of_base(e12, d)
    top = lam - QuadExt.of_base(e11, d)
    if not (b.is_zero() and top.is_zero()):
        return (b, top)
    # first row degenerate: use the second one
    return (lam - QuadExt.of_base(e22, d), QuadExt.of_base(e21, d))


def eigen2(a: RingMat2) -> Eigen2:
    """Eigen data of a in view 0 (pass ``a.real_view()`` for sigma2): exact
    quadratic-extension data for the hyperbolic case, none for the elliptic
    one, whose pair lies on the unit circle; a parabolic matrix is
    rejected."""
    cls = classify(a, 0)
    if cls == MatClass.PARABOLIC:
        raise ParabolicNotSupported("double eigenvalue")
    rec = Eigen2()
    if cls == MatClass.HYPERBOLIC:
        t = a.trace()
        disc = t * t - QuarticElem(4)
        half = Fraction(1, 2)
        sgn = 1 if t.sign() == Sign.POSITIVE else -1
        lam_dom = QuadExt(t * half, QuarticElem(sgn) * half, disc)
        lam_rec = lam_dom.conj_sqrt()
        if not (lam_dom * lam_rec == QuadExt.of_base(ONE, disc)):
            raise ParabolicNotSupported("eigenvalue product is not 1")
        rec.lam_dominant = lam_dom
        rec.lam_recessive = lam_rec
        rec.vec_dominant = _eigvec_pair(a, lam_dom)
        rec.vec_recessive = _eigvec_pair(a, lam_rec)
    return rec


# the most bits a chordal distance enclosure is refined to
_MAX_BITS = 4096


def proj_dist(p: tuple, q: tuple, bits: int = DEFAULT_BITS) -> Enclosure:
    """Chordal distance |p ^ q| / (|p| |q|) as a validated enclosure.

    The squared distance is computed exactly whenever the coordinates live
    in a common extension, so equality gives an exact zero; otherwise the
    enclosure is refined until it is informative.
    """
    if len(p) != len(q):
        raise DimensionMismatch(f"{len(p)} vs {len(q)}")
    try:
        dot = None
        p2 = None
        q2 = None
        for x, y in zip(p, q):
            dot = x * y if dot is None else dot + x * y
            p2 = x * x if p2 is None else p2 + x * x
            q2 = y * y if q2 is None else q2 + y * y
        num = p2 * q2 - dot * dot       # |p|^2 |q|^2 - (p.q)^2, exact
        if num.sign() == Sign.ZERO:
            return 0, 0, 1
        b = bits
        while True:
            iv_num = num.interval(b)
            iv_den = (p2 * q2).interval(b)
            if iv_num[0] >= 0 and iv_den[0] > 0:
                lo, hi, s = enc_div(iv_num, iv_den)
                return enc_sqrt((lo, min(s, hi), s), b)
            if b >= _MAX_BITS:
                raise UndecidedComparison("chordal distance enclosure stalled")
            b *= 2
    except InternalMismatch:
        # coordinates live in two different extensions: enclosures only
        return _proj_dist_intervals(p, q, bits)


def _proj_dist_intervals(p: tuple, q: tuple, bits: int) -> Enclosure:
    b = bits
    while True:
        pc = [c.interval(b) for c in p]
        qc = [c.interval(b) for c in q]
        dot = enc_mul(pc[0], qc[0])
        p2 = enc_mul(pc[0], pc[0])
        q2 = enc_mul(qc[0], qc[0])
        for i in range(1, len(p)):
            dot = enc_add(dot, enc_mul(pc[i], qc[i]))
            p2 = enc_add(p2, enc_mul(pc[i], pc[i]))
            q2 = enc_add(q2, enc_mul(qc[i], qc[i]))
        den = enc_mul(p2, q2)
        dot_lo, dot_hi, t = enc_mul(dot, dot)
        num = enc_add(den, (-dot_hi, -dot_lo, t))
        if den[0] > 0:
            lo, hi, s = enc_div(num, den)
            return enc_sqrt((max(0, lo), min(s, max(0, hi)), s), b)
        if b >= _MAX_BITS:
            raise UndecidedComparison("coordinate intervals too coarse")
        b *= 2
