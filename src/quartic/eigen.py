"""Eigen data of the embedded 2x2 views.

Eigenvalues of a real hyperbolic view are exact elements of a quadratic
extension of Q(beta) (``extension.QuadExt``).  Regular representations are
in ``regular``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParabolicNotSupported
from .extension import QuadExt
from .linalg import MatClass, RingMat2, classify
from .record import Record
from .ring import ONE, QuarticElem, Sign, galois


class Eigen2(Record):
    """User-facing eigen data for one embedded 2x2 view."""

    k: int
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


def eigen2(a: RingMat2, k: int) -> Eigen2:
    """Eigenvalues of the k-th view: exact quadratic-extension data for the
    real hyperbolic case, none for the elliptic one, whose pair lies on the
    unit circle; parabolic and loxodromic views are rejected."""
    cls = classify(a, k)
    if cls == MatClass.PARABOLIC:
        raise ParabolicNotSupported("double eigenvalue")
    rec = Eigen2(k=k)
    if cls == MatClass.HYPERBOLIC:
        t = galois(a.trace(), k).re
        disc = t * t - QuarticElem(4)
        half = Fraction(1, 2)
        sgn = 1 if t.sign() == Sign.POSITIVE else -1
        lam_dom = QuadExt(t * half, QuarticElem(sgn) * half, disc)
        lam_rec = lam_dom.conj_sqrt()
        if not (lam_dom * lam_rec == QuadExt.of_base(ONE, disc)):
            raise ParabolicNotSupported("eigenvalue product is not 1")
        view = a.real_view(k) if k in (0, 2) else None
        rec.lam_dominant = lam_dom
        rec.lam_recessive = lam_rec
        if view is not None:
            rec.vec_dominant = _eigvec_pair(view, lam_dom)
            rec.vec_recessive = _eigvec_pair(view, lam_rec)
    elif cls != MatClass.ELLIPTIC:
        raise ValueError("eigen data of a loxodromic view is not supported")
    return rec
