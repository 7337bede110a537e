"""Regular representations into GL(2k, Q) for k = 2, 3, 4, and the eigen
data of the embedded 2x2 views.

The block form of the regular representation is the matrix of left
multiplication on the coefficient module, so multiplicativity is a theorem
the tests re-check rather than an approximation.  Eigenvalues of a real
hyperbolic view are exact elements of a quadratic extension of Q(beta)
(``extension.QuadExt``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import NotUnimodular, ParabolicNotSupported, WrongSubring
from .extension import QuadExt
from .linalg import MatClass, RingMat2, classify
from .record import Record
from .ring import ONE, ZERO, EmbeddedComplex, QuarticElem, Sign, galois, _elem


class RegularRep:
    """2k x 2k rational matrix, the image of a 2x2 matrix over Z[2^(1/k)].

    Stored as int rows over one positive denominator ``den``, reduced (the
    entries and ``den`` share no factor), so equal matrices have equal
    storage, an integral matrix has ``den`` 1, and a product is one int
    matrix product."""

    __slots__ = ("kappa", "rows", "den", "source")

    def __init__(self, kappa: int, rows, den: int = 1, source=None):
        if den != 1:
            g = gcd(den, *(c for row in rows for c in row))
            if g != 1:
                rows = tuple(tuple(c // g for c in row) for row in rows)
                den //= g
        self.kappa, self.rows, self.den, self.source = kappa, rows, den, source

    def __repr__(self) -> str:
        return f"RegularRep({self.kappa}, {self.rows!r}, den={self.den})"

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions."""
        return tuple(tuple(Fraction(c, self.den) for c in row)
                     for row in self.rows)

    def __mul__(self, other: "RegularRep") -> "RegularRep":
        if self.kappa != other.kappa:
            raise ValueError("mixed block sizes")
        cols = tuple(zip(*other.rows))
        rows = tuple(tuple([sum(map(mul, row, col)) for col in cols])
                     for row in self.rows)
        return RegularRep(self.kappa, rows, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegularRep):
            return NotImplemented
        return (self.kappa == other.kappa and self.den == other.den
                and self.rows == other.rows)

    def det(self) -> Fraction:
        return Fraction(_bareiss_det(self.rows), self.den ** len(self.rows))

    def to_int_grid(self) -> list[list]:
        """The entries, each an int when integral and a Fraction otherwise."""
        d = self.den
        return [[c // d if c % d == 0 else Fraction(c, d) for c in row]
                for row in self.rows]


def _block(coeffs, kappa: int):
    """Matrix of multiplication by sum(coeffs[i] * r^i) on the basis
    {1, r, .., r^(kappa-1)} with r^kappa = 2."""
    return [[coeffs[(i - j) % kappa] * (2 if i < j else 1)
             for j in range(kappa)] for i in range(kappa)]


def regular_rep(a, kappa: int) -> RegularRep:
    """The 2k x 2k rational image of a; kappa selects the ground ring.

    kappa = 4 takes a RingMat2 over Q(beta); kappa = 2 requires the entries
    to lie in Q(sqrt2); kappa = 3 takes a CubicMat2 over Q(2^(1/3)).  The
    image is built on the matrix's int coefficients over one denominator.
    """
    if kappa == 3:
        from .cubic import CubicMat2
        if not isinstance(a, CubicMat2):
            raise WrongSubring("kappa = 3 needs a matrix over Q(2^(1/3))")
        coeff_lists = [e.int_coeffs() for e in a.entries()]
        den = lcm(*(d for _, d in coeff_lists))
        ints = [[x * (den // d) for x in c] for c, d in coeff_lists]
    elif kappa in (2, 4):
        if not isinstance(a, RingMat2):
            raise WrongSubring(f"kappa = {kappa} needs a matrix over Q(beta)")
        ints, den = a._m, a._d
        if kappa == 2:
            for c in ints:
                if c[1] or c[3]:
                    raise WrongSubring(
                        f"entry {_elem(c, den).to_text()} is not in Q(sqrt2)")
            ints = [(c[0], c[2]) for c in ints]
    else:
        raise ValueError(f"kappa must be 2, 3 or 4, not {kappa}")

    b11, b12, b21, b22 = (_block(c, kappa) for c in ints)
    rows = [tuple(b11[i] + b12[i]) for i in range(kappa)]
    rows += [tuple(b21[i] + b22[i]) for i in range(kappa)]
    return RegularRep(kappa, tuple(rows), den, source=a)


# ---------------------------------------------------------------------------
# exact rational matrix helpers


def _bareiss_det(rows) -> int:
    """Determinant of a square int matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def charpoly_fraction(rows) -> list[Fraction]:
    """Coefficients [1, c1, .., cn] of det(tI - M) via Faddeev-LeVerrier."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [[sum(m[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
    return coeffs


def _poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def embedded_charpoly_product(a: RingMat2) -> list[Fraction]:
    """Product of the char polys of the four embedded 2x2 views of a.

    The sigma0/sigma2 pair and the sigma1/sigma3 pair each multiply to a
    quartic with real coefficients in Q(beta); the full product must have
    rational coefficients, which is checked.  Requires det(a) = 1.
    """
    if a.det() != ONE:
        raise NotUnimodular("spectrum decomposition stated for SL2 input")
    tau = a.trace()
    # coefficient lists by increasing degree; both factors are palindromic
    p02 = _poly_mul([ONE, -tau, ONE], [ONE, -tau.conj_even(), ONE])
    s13 = galois(tau, 1)
    tr_sum = s13.re + s13.re            # sigma1 + sigma3 of the trace
    tr_prod = s13.abs2()                # sigma1 * sigma3 of the trace
    p13 = [ONE, -tr_sum, tr_prod + QuarticElem(2), -tr_sum, ONE]
    full = _poly_mul(p02, p13)
    out = []
    for c in reversed(full):            # leading coefficient first
        if not c.is_rational():
            raise WrongSubring("embedded char poly product must be rational")
        out.append(c.q0)
    return out


# ---------------------------------------------------------------------------
# eigen data for 2x2 views


class BlockEig(Record):
    """Per-embedding eigen summary used by the dominance analysis.

    u is |lambda|^2 + |lambda|^-2 for the block's eigenvalue pair, encoded
    exactly: either an element of Q(beta) or (a + sqrt(w)) / 2 with a, w in
    Q(beta).  Equal u means equal extreme moduli.
    """

    k: int
    mat_class: MatClass
    trace: EmbeddedComplex
    u_base: QuarticElem | None = None
    u_rad: tuple[QuarticElem, QuarticElem] | None = None   # (a, w): u = (a + sqrt w)/2
    real_trace: QuarticElem | None = None


def block_eig(a: RingMat2, k: int) -> BlockEig:
    cls = classify(a, k)
    t = galois(a.trace(), k)
    if not t.is_real():
        abs2 = t.abs2()
        im2 = t.abs2() - t.re * t.re            # (Im tau)^2 as a quartic value
        w4 = abs2 - QuarticElem(4)
        w = w4 * w4 + 16 * im2
        return BlockEig(k, cls, t, u_rad=(abs2, w))
    r = t.re
    if cls == MatClass.HYPERBOLIC:
        return BlockEig(k, cls, t, u_base=r * r - QuarticElem(2), real_trace=r)
    # elliptic and parabolic blocks have both moduli equal to 1
    return BlockEig(k, cls, t, u_base=QuarticElem(2), real_trace=r)


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


class Eigen2(Record):
    """User-facing eigen data for one embedded 2x2 view."""

    k: int
    mat_class: MatClass
    trace: EmbeddedComplex
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
    real hyperbolic case, the class and trace alone for the elliptic one,
    whose pair lies on the unit circle; parabolic and loxodromic views are
    rejected."""
    blk = block_eig(a, k)
    cls = blk.mat_class
    if cls == MatClass.PARABOLIC:
        raise ParabolicNotSupported("double eigenvalue")
    rec = Eigen2(k=k, mat_class=cls, trace=blk.trace)
    if cls == MatClass.HYPERBOLIC:
        t = blk.real_trace
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
