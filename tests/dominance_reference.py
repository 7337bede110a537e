"""The rank-8 dominance analysis, for the acceptance gate and the tests of
the north-south criterion.

``analyze_dominance`` works per 2x2 embedded block: equal extreme moduli
are detected exactly through the invariant u = |lambda|^2 + |lambda|^-2, so
a double maximal eigenvalue is a symbolic verdict, not a numerical one.  It
takes a ``RingMat2`` (its identity view) or the rank-8 ``RegularRep`` of
one (all four views).  ``hyperbolic_like`` lifts the dominant block's
eigenvectors and covectors to the rank-8 north-south data that the paper
displays for psi(P).

``noncommuting_check`` is the north-south criterion as it was written on
``hyperbolic_like``, with the reason each verdict fails.  It is held
against ``quartic.construction.north_south``, which decides the same
verdict by one resultant.
"""

from __future__ import annotations

from fractions import Fraction

from quartic.eigen import Eigen2, _eigvec_pair, eigen2
from quartic.errors import SingularMatrix
from quartic.extension import QuadExt
from quartic.linalg import MatClass, RingMat2, classify, share_eigenvector
from quartic.record import Record
from quartic.regular import RegularRep
from quartic.ring import ONE, SQRT2, QuarticElem, Sign, galois

from certificate_reference import proj_equal


class BlockEig(Record):
    """Per-embedding eigen summary used by the dominance analysis.

    u is |lambda|^2 + |lambda|^-2 for the block's eigenvalue pair, encoded
    exactly: either an element of Q(beta) or (a + sqrt(w)) / 2 with a, w in
    Q(beta).  Equal u means equal extreme moduli.
    """

    k: int
    mat_class: MatClass
    u_base: QuarticElem | None = None
    u_rad: tuple[QuarticElem, QuarticElem] | None = None


def block_eig(a: RingMat2, k: int) -> BlockEig:
    cls = classify(a, k)
    re, im = galois(a.trace(), k)
    if not im.is_zero():
        im2 = SQRT2 * im * im                   # (Im tau)^2 as a quartic value
        abs2 = re * re + im2
        w4 = abs2 - QuarticElem(4)
        w = w4 * w4 + 16 * im2
        return BlockEig(k, cls, u_rad=(abs2, w))
    if cls == MatClass.HYPERBOLIC:
        return BlockEig(k, cls, u_base=re * re - QuarticElem(2))
    # elliptic and parabolic blocks have both moduli equal to 1
    return BlockEig(k, cls, u_base=QuarticElem(2))


def compare_u(x: BlockEig, y: BlockEig) -> Sign:
    """Exact sign of u(x) - u(y)."""
    if x.u_base is not None and y.u_base is not None:
        return (x.u_base - y.u_base).sign()
    if x.u_base is not None:
        return Sign(-_cmp_rad_base(y.u_rad, x.u_base))
    if y.u_base is not None:
        return _cmp_rad_base(x.u_rad, y.u_base)
    return _cmp_rad_rad(x.u_rad, y.u_rad)


def _cmp_rad_base(rad, base: QuarticElem) -> Sign:
    """sign of (a + sqrt w)/2 - base, w >= 0."""
    a, w = rad
    return QuadExt(a - 2 * base, ONE, w).sign()


def _cmp_rad_rad(r1, r2) -> Sign:
    """sign of (a1 + sqrt w1)/2 - (a2 + sqrt w2)/2, all w >= 0."""
    a1, w1 = r1
    a2, w2 = r2
    tp = a1 - a2
    s_root = (w1 - w2).sign()             # sign of sqrt(w1) - sqrt(w2)
    st = tp.sign()
    if st == Sign.ZERO:
        return s_root
    if s_root == Sign.ZERO:
        return st
    if st == s_root:
        return st
    # opposite signs: compare |tp| against |sqrt w1 - sqrt w2|
    g = w1 + w2 - tp * tp
    if g.sign() == Sign.NEGATIVE:
        return st
    q = (g * g - 4 * w1 * w2).sign()
    if q == Sign.ZERO:
        return Sign.ZERO
    return s_root if q == Sign.POSITIVE else st


class DominanceAnalysis(Record):
    """The verdict, and when it is "dominant" the dominant block's eigen
    data: its real, simple, strictly extreme eigenvalue is
    ``eigen.lam_dominant`` and its block is ``k``."""

    reason: str
    eigen: Eigen2 | None = None
    k: int | None = None


def _matrix_of(rep: RegularRep) -> RingMat2:
    """The 2x2 matrix whose rank-8 representation rep is: block (r, s) has
    entry rs's coefficients in its first column, over ``den``."""
    return RingMat2(*(QuarticElem(*(Fraction(rep.rows[4 * r + i][4 * s],
                                             rep.den) for i in range(4)))
                      for r in range(2) for s in range(2)))


def _blocks_of(m) -> tuple[list[BlockEig], RingMat2]:
    """The eigen blocks of a RingMat2 (its identity view) or of the rank-8
    representation of one (all four views)."""
    if isinstance(m, RegularRep):
        src = _matrix_of(m)
        return [block_eig(src, k) for k in range(4)], src
    return [block_eig(m, 0)], m


def analyze_dominance(m) -> DominanceAnalysis:
    blocks, src = _blocks_of(m)
    best = [blocks[0]]
    for blk in blocks[1:]:
        s = compare_u(blk, best[0])
        if s == Sign.POSITIVE:
            best = [blk]
        elif s == Sign.ZERO:
            best.append(blk)
    if len(best) > 1:
        return DominanceAnalysis("double maximal eigenvalue")
    top = best[0]
    if top.mat_class in (MatClass.ELLIPTIC, MatClass.PARABOLIC):
        return DominanceAnalysis("maximal modulus is 1")
    if top.mat_class == MatClass.LOXODROMIC:
        return DominanceAnalysis("maximal eigenvalue is not real")
    # a hyperbolic block is real, so k is 0 or 2: the sigma1 and sigma3
    # blocks are complex conjugates and tie
    view = src if top.k == 0 else src.real_view()
    return DominanceAnalysis("dominant", eigen2(view), top.k)


_BETA_POWERS = (ONE, QuarticElem(0, 1), QuarticElem(0, 0, 1), QuarticElem(0, 0, 0, 1))


def _beta_at(k: int, j: int) -> QuarticElem:
    """sigma_k(beta)^j for the real embeddings k = 0, 2."""
    v = _BETA_POWERS[j]
    return v if k == 0 or j % 2 == 0 else -v


def _lift_vec(w: tuple[QuadExt, QuadExt], k: int) -> tuple:
    """Right eigenvector of the block structure: (w1 * u, w2 * u) with
    u = (1, b^3/2, b^2/2, b/2) evaluated at sigma_k(beta)."""
    half = Fraction(1, 2)
    u = (ONE, _beta_at(k, 3) * half, _beta_at(k, 2) * half, _beta_at(k, 1) * half)
    return tuple(w[i] * QuadExt.of_base(c, w[0].d) for i in range(2) for c in u)


def _lift_covec(w: tuple[QuadExt, QuadExt], k: int) -> tuple:
    """Left eigenvector lift with u = (1, b, b^2, b^3) at sigma_k(beta)."""
    u = (ONE, _beta_at(k, 1), _beta_at(k, 2), _beta_at(k, 3))
    return tuple(w[i] * QuadExt.of_base(c, w[0].d) for i in range(2) for c in u)


class HyperbolicLikeData(Record):
    """Attracting/repelling points and characteristic crosses.

    For dimension 2 the crosses degenerate to the opposite fixed points.
    For the 8x8 case the crosses are stored as left-eigenvector covectors;
    a point lies on the cross iff the covector annihilates it.
    """

    attracting: tuple
    repelling: tuple
    cross_plus: tuple      # P(V_a): complement of the max eigenline
    cross_minus: tuple


def hyperbolic_like(m) -> HyperbolicLikeData | None:
    """Full north-south data when both m and its inverse are dominant."""
    if isinstance(m, RingMat2) and m.det().is_zero():
        raise SingularMatrix("input must be invertible")
    ana = analyze_dominance(m)
    eig, k = ana.eigen, ana.k
    if eig is None:
        return None
    # determinant-one blocks: the same block carries both extreme moduli,
    # so dominance of the inverse comes along for free
    att2 = eig.vec_dominant
    rep2 = eig.vec_recessive
    if isinstance(m, RingMat2):
        return HyperbolicLikeData(att2, rep2, rep2, att2)
    view = _matrix_of(m)
    if k == 2:
        view = view.real_view()
    lam_dom, lam_rec = eig.lam_dominant, eig.lam_recessive
    att8 = _lift_vec(att2, k)
    rep8 = _lift_vec(rep2, k)
    # a left eigenvector of the view is an eigenvector of its transpose
    e11, e12, e21, e22 = view.entries()
    view_t = RingMat2(e11, e21, e12, e22)
    cov_plus = _lift_covec(_eigvec_pair(view_t, lam_dom), k)
    cov_minus = _lift_covec(_eigvec_pair(view_t, lam_rec), k)
    return HyperbolicLikeData(att8, rep8, cov_plus, cov_minus)


class NoncommutingResult(Record):
    holds: bool
    reason: str
    commutator_nontrivial: bool | None = None

    def __bool__(self) -> bool:
        return self.holds


def noncommuting_check(a: RingMat2, b: RingMat2) -> NoncommutingResult:
    """North-south dynamics criterion for AB != BA on the projective line."""
    da = hyperbolic_like(a)
    db = hyperbolic_like(b)
    if da is None or db is None:
        return NoncommutingResult(False, "inputs are not hyperbolic-like")
    if share_eigenvector(a, b):
        return NoncommutingResult(False, "shared fixed point")
    e11, e12, e21, e22 = a.entries()
    for x, y in (db.attracting, db.repelling):
        image = (QuadExt.of_base(e11, x.d) * x + QuadExt.of_base(e12, x.d) * y,
                 QuadExt.of_base(e21, x.d) * x + QuadExt.of_base(e22, x.d) * y)
        if proj_equal(image, db.attracting) or proj_equal(image, db.repelling):
            return NoncommutingResult(
                False, "first matrix preserves the fixed pair of the second")
    nontrivial = not a.commutator(b).is_identity()
    if not nontrivial:
        return NoncommutingResult(
            False, "hypotheses held but the commutator is trivial", False)
    return NoncommutingResult(True, "north-south dynamics forces AB != BA", True)
