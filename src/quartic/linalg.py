"""2x2 matrices over Q(beta), trace classification, and the regular
representations into GL(2k, Q) for k = 2, 3, 4.

Everything is exact.  A 2x2 matrix over Q(beta) has one representation,
``RingMat2``: four int 4-tuples on the basis 1, beta, beta^2, beta^3 over
one reduced denominator.  Products, determinants, traces and the scalar
tests work on those ints (``mul_mat4``, ``is_scalar4``); the word scans
take the same int matrices over a common denominator (``int_matrices``)
and measure view distances on them (``view_dist4``).  Embedded views reuse
the scalar Galois machinery; classification is a trace test; the block
form of the regular representation is the matrix of left multiplication
on the coefficient module, so multiplicativity is a theorem the tests
re-check rather than an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
import enum

from .errors import (
    NotUnimodular,
    ParabolicNotSupported,
    ScalarMatrix,
    SingularMatrix,
    WrongSubring,
)
from .extension import QuadExt
from .intervals import (
    DEFAULT_BITS,
    FILTER_BITS,
    Enclosure,
    dyadic_bounds,
    enc_add,
    enc_mul,
    enc_sqrt,
    filter_bounds,
    quartic_bounds,
)
from .record import Record
from .ring import (
    ONE,
    ZERO,
    EmbeddedComplex,
    QuarticElem,
    Sign,
    common_over,
    galois,
    mul4,
    power,
    quad_sign,
    sign4,
    _elem,
)


class MatClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    LOXODROMIC = "loxodromic"


def as_paper_hyperbolic(cls: MatClass) -> bool:
    """Loxodromic elements of SL(2,C) count as hyperbolic in the source
    terminology; report both under one predicate."""
    return cls in (MatClass.HYPERBOLIC, MatClass.LOXODROMIC)


class RingMat2:
    """2x2 matrix over Q(beta), row major.

    Stored as the int 4-tuple matrix ``_m`` = (e11, e12, e21, e22), each
    entry on the basis 1, beta, beta^2, beta^3, over one positive
    denominator ``_d``, kept reduced (the sixteen ints and ``_d`` share no
    factor), so equal matrices have equal storage and a product is one
    ``mul_mat4``.  ``e11``..``e22`` and ``entries()`` build each entry as its
    own reduced ``QuarticElem`` on every read.
    """

    __slots__ = ("_m", "_d")

    def __init__(self, e11, e12, e21, e22):
        # each entry is reduced, so over the lcm of their denominators the
        # entry carrying a prime's highest power keeps a coefficient prime
        # to it: the matrix is reduced too
        self._m, self._d = common_over([
            e if type(e) is QuarticElem else QuarticElem(e)
            for e in (e11, e12, e21, e22)])

    e11 = property(lambda self: _elem(self._m[0], self._d))
    e12 = property(lambda self: _elem(self._m[1], self._d))
    e21 = property(lambda self: _elem(self._m[2], self._d))
    e22 = property(lambda self: _elem(self._m[3], self._d))

    @classmethod
    def identity(cls) -> "RingMat2":
        return cls(ONE, ZERO, ZERO, ONE)

    @classmethod
    def parse(cls, text: str) -> "RingMat2":
        """Wire format: 'q0 q1 q2 q3; q0 q1 q2 q3; ...' four entries."""
        parts = [p.strip() for p in text.split(";")]
        if len(parts) != 4:
            raise ValueError(f"expected 4 entries separated by ';' in {text!r}")
        return cls(*(QuarticElem.parse(p) for p in parts))

    def entries(self):
        d = self._d
        return tuple([_elem(e, d) for e in self._m])

    def to_text(self) -> str:
        return "; ".join(e.to_text() for e in self.entries())

    def __repr__(self) -> str:
        return f"RingMat2({self.to_text()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMat2):
            return NotImplemented
        return self._m == other._m and self._d == other._d

    def __hash__(self):
        return hash((self._m, self._d))

    def __mul__(self, other: "RingMat2") -> "RingMat2":
        return _mat(mul_mat4(self._m, other._m), self._d * other._d)

    def det(self) -> QuarticElem:
        e11, e12, e21, e22 = self._m
        x0, x1, x2, x3 = mul4(e11, e22)
        y0, y1, y2, y3 = mul4(e12, e21)
        return _elem((x0 - y0, x1 - y1, x2 - y2, x3 - y3), self._d * self._d)

    def trace(self) -> QuarticElem:
        (a0, a1, a2, a3), _, _, (b0, b1, b2, b3) = self._m
        return _elem((a0 + b0, a1 + b1, a2 + b2, a3 + b3), self._d)

    def inv(self) -> "RingMat2":
        """The adjugate times the inverse of the determinant."""
        d = self.det()
        if d.is_zero():
            raise SingularMatrix("matrix is singular")
        c, c_d = d.inv().int_coeffs()
        neg = (-c[0], -c[1], -c[2], -c[3])
        e11, e12, e21, e22 = self._m
        return _mat((mul4(e22, c), mul4(e12, neg), mul4(e21, neg),
                     mul4(e11, c)), self._d * c_d)

    def __pow__(self, n: int) -> "RingMat2":
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n) if n else RingMat2.identity()

    def is_identity(self) -> bool:
        return is_scalar4(self._m, self._d)

    def is_neg_identity(self) -> bool:
        return is_scalar4(self._m, -self._d)

    def is_scalar(self) -> bool:
        return is_scalar4(self._m)

    def is_integral(self) -> bool:
        return self._d == 1

    def real_view(self, k: int) -> "RingMat2":
        """The matrix with the real embedding k (0 or 2) applied entrywise."""
        if k not in (0, 2):
            raise ValueError("real views exist only for k = 0 and k = 2")
        if k == 0:
            return self
        return _mat(tuple([(c0, -c1, c2, -c3) for c0, c1, c2, c3 in self._m]),
                    self._d)

    def commutator(self, other: "RingMat2") -> "RingMat2":
        return self * other * self.inv() * other.inv()


_new = object.__new__


def _mat(m, d: int) -> RingMat2:
    """The matrix m / d of an int 4-tuple matrix m (a tuple of four int
    4-tuples) over d > 0, reduced by gcd unless d is 1."""
    if d != 1:
        g = gcd(d, *m[0], *m[1], *m[2], *m[3])
        if g != 1:
            m = tuple([(c0 // g, c1 // g, c2 // g, c3 // g)
                       for c0, c1, c2, c3 in m])
            d //= g
    x = _new(RingMat2)
    x._m = m
    x._d = d
    return x


def classify(a: RingMat2, k: int) -> MatClass:
    """Trace classification of the k-th embedded view; requires det = 1."""
    if a.det() != ONE:
        raise NotUnimodular(f"det is {a.det().to_text()}, expected 1")
    t = galois(a.trace(), k)
    if not t.is_real():
        return MatClass.LOXODROMIC
    s = (t.re * t.re - QuarticElem(4)).sign()
    if s == Sign.NEGATIVE:
        return MatClass.ELLIPTIC
    if s == Sign.ZERO:
        return MatClass.PARABOLIC
    return MatClass.HYPERBOLIC


# ---------------------------------------------------------------------------
# regular representations


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

    def __hash__(self):
        return hash((self.kappa, self.den, self.rows))

    def is_identity(self) -> bool:
        return self.den == 1 and all(c == (i == j)
                                     for i, row in enumerate(self.rows)
                                     for j, c in enumerate(row))

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
        w = (abs2 - QuarticElem(4)) ** 2 + 16 * im2
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
    lam_dominant_interval: Enclosure | None = None
    lam_recessive_interval: Enclosure | None = None
    vec_dominant: tuple[QuadExt, QuadExt] | None = None
    vec_recessive: tuple[QuadExt, QuadExt] | None = None
    modulus_sq_interval: Enclosure | None = None
    note: str = ""


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
    real hyperbolic case, interval data otherwise; parabolic is rejected."""
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
        rec.lam_dominant_interval = lam_dom.interval()
        rec.lam_recessive_interval = lam_rec.interval()
        if view is not None:
            rec.vec_dominant = _eigvec_pair(view, lam_dom)
            rec.vec_recessive = _eigvec_pair(view, lam_rec)
        rec.note = "real hyperbolic pair lambda, 1/lambda"
    elif cls == MatClass.ELLIPTIC:
        rec.note = "complex conjugate pair on the unit circle"
        rec.modulus_sq_interval = (1, 1, 1)
    else:
        # |lambda|^2 = (u + sqrt(u^2 - 4)) / 2 with u = (a + sqrt w) / 2
        a_u, w_u = blk.u_rad
        lo, hi, s = enc_add(a_u.interval(), enc_sqrt(w_u.interval()))
        u = (lo, hi, 2 * s)
        root = enc_sqrt(enc_add(enc_mul(u, u), (-4, -4, 1)))
        lo, hi, s = enc_add(u, root)
        rec.modulus_sq_interval = (lo, hi, 2 * s)
        rec.note = "non-real eigenvalue pair lambda, 1/lambda"
    return rec


def fixed_slope_form(a: RingMat2) -> tuple[QuarticElem, QuarticElem, QuarticElem]:
    """Binary form c z^2 + (d - a) z - b whose roots are fixed slopes."""
    e11, e12, e21, e22 = a.entries()
    return (e21, e22 - e11, -e12)


def resultant_quadratics(f, g) -> QuarticElem:
    f2, f1, f0 = f
    g2, g1, g0 = g
    m = f2 * g0 - g2 * f0
    return m * m - (f2 * g1 - g2 * f1) * (f1 * g0 - g1 * f0)


def share_eigenvector(a: RingMat2, b: RingMat2, k: int) -> bool:
    """True iff the k-th views share a projective fixed point, decided by an
    exact resultant.  Galois embeddings are injective, so the verdict does
    not depend on k; the index is validated and kept for the caller."""
    if k not in (0, 1, 2, 3):
        raise ValueError("embedding index must be 0..3")
    if a.is_scalar() or b.is_scalar():
        raise ScalarMatrix("fixed slopes undefined for scalar matrices")
    return resultant_quadratics(fixed_slope_form(a), fixed_slope_form(b)).is_zero()


# ---------------------------------------------------------------------------
# the int 4-tuple matrix kernel
#
# A RingMat2 is four int 4-tuples (e11, e12, e21, e22) over one denominator;
# a word scan takes the letters' tuples over their common denominator d
# (``int_matrices``), so a word of length k stands for its tuples over d^k.
# A view distance is an exact int 4-tuple t together with integer bounds
# lo <= t * 2^FILTER_BITS <= hi ("enclosed"); comparisons read the bounds
# first and take an exact sign only where they overlap, so no float ever
# decides.


def int_matrices(mats) -> tuple[list, int]:
    """The int 4-tuple matrices of mats over their least common denominator
    d: returns (out, d) with mats[i] = out[i] / d."""
    d = lcm(*[m._d for m in mats])
    return [m._m if m._d == d
            else tuple([tuple([c * (d // m._d) for c in e]) for e in m._m])
            for m in mats], d


def mul_mat4(a, b):
    """Product of two int 4-tuple matrices: each entry is x*y + z*w for
    pairs of 4-tuples, the two ``ring.mul4`` bodies written out as one."""
    out = []
    for (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3), \
            (w0, w1, w2, w3) in ((a[0], b[0], a[1], b[2]),
                                 (a[0], b[1], a[1], b[3]),
                                 (a[2], b[0], a[3], b[2]),
                                 (a[2], b[1], a[3], b[3])):
        # beta^4 = 2 folds degrees 4..6 back down
        out.append((
            x0 * y0 + z0 * w0 + 2 * (x1 * y3 + x2 * y2 + x3 * y1
                                     + z1 * w3 + z2 * w2 + z3 * w1),
            x0 * y1 + x1 * y0 + z0 * w1 + z1 * w0
            + 2 * (x2 * y3 + x3 * y2 + z2 * w3 + z3 * w2),
            x0 * y2 + x1 * y1 + x2 * y0 + z0 * w2 + z1 * w1 + z2 * w0
            + 2 * (x3 * y3 + z3 * w3),
            x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0
            + z0 * w3 + z1 * w2 + z2 * w1 + z3 * w0))
    return tuple(out)


def is_scalar4(m, s: int | None = None) -> bool:
    """Whether the int 4-tuple matrix m is scalar, and, when s is given,
    equal to s times the identity."""
    e11, e12, e21, e22 = m
    return (e11 == e22 and (s is None or e11 == (s, 0, 0, 0))
            and not any(e12) and not any(e21))


def minus_identity4(mat, one: int, scale: int) -> list:
    """The entries of mat - one * I as int 4-tuples, each times scale."""
    e11, e12, e21, e22 = mat
    xs = [(e11[0] - one, e11[1], e11[2], e11[3]), e12, e21,
          (e22[0] - one, e22[1], e22[2], e22[3])]
    if scale != 1:
        xs = [(c0 * scale, c1 * scale, c2 * scale, c3 * scale)
              for c0, c1, c2, c3 in xs]
    return xs


def enclosed(t) -> tuple[int, int, tuple]:
    """(lo, hi, t) for an int 4-tuple t, with lo <= t * 2^FILTER_BITS <= hi."""
    lo, hi = filter_bounds(t[0], t[1:], quartic_bounds)
    return lo, hi, t


def compare_enclosed(a, b) -> int:
    """Exact sign of a - b for two enclosed values over one denominator:
    disjoint bounds decide, and ring.sign4 of the difference decides the
    rest (ties included)."""
    if a[1] < b[0]:
        return -1
    if a[0] > b[1]:
        return 1
    x, y = a[2], b[2]
    return sign4((x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]))


def eps_thresholds(d: int, eps: Fraction, depth: int) -> list:
    """Enclosed thresholds for words over the denominator d: a word of
    length k is closer than eps when its view distance, taken on the
    entries of W - I times eps's denominator, is below entry k."""
    a = eps.numerator
    return [enclosed((a * a * d ** (2 * k), 0, 0, 0))
            for k in range(depth + 1)]


def view_dist4(xs, k: int) -> tuple[int, int, tuple]:
    """Enclosed max_ij |sigma_k(x_ij)|^2 over the four int 4-tuples xs,
    exact, in closed form.

    The complex views 1 and 3 give the same modulus:
    |sigma_1(x)|^2 = (c0^2 + 2c2^2 - 4c1c3) + (c1^2 + 2c3^2 - 2c0c2) sqrt2,
    and the largest is picked by quad_sign.  In the real views 0 and 2
    (x and its conjugate) the entries are ordered by |x|, from enclosures at
    one precision, and only the winner is squared."""
    if k & 1:
        bu = bv = None
        for c0, c1, c2, c3 in xs:
            u = c0 * c0 + 2 * c2 * c2 - 4 * c1 * c3
            v = c1 * c1 + 2 * c3 * c3 - 2 * c0 * c2
            if bu is None or quad_sign(u - bu, v - bv) > 0:
                bu, bv = u, v
        return enclosed((bu, 0, bv, 0))
    if k:
        xs = [(c0, -c1, c2, -c3) for c0, c1, c2, c3 in xs]
    m = 0
    for c0, c1, c2, c3 in xs:
        m |= abs(c0) | abs(c1) | abs(c2) | abs(c3)
    bits = m.bit_length() + FILTER_BITS
    win = None
    for x in xs:
        lo, hi = dyadic_bounds(x[0], x[1:], quartic_bounds, bits)
        if hi < 0:
            lo, hi = -hi, -lo
        elif lo < 0:
            lo, hi = 0, max(-lo, hi)
        if win is not None and hi < win[0]:
            continue
        if win is None or lo > win[1] or _abs_sign(x, win[2]) > 0:
            win = (lo, hi, x)
    lo, hi, x = win
    # |x| * 2^bits lies in [lo, hi] with lo >= 0, so x^2 * 2^(2 bits) in
    # [lo^2, hi^2]; rounded outward to scale 2^FILTER_BITS
    shift = 2 * bits - FILTER_BITS
    return lo * lo >> shift, -(-(hi * hi) >> shift), mul4(x, x)


def view_norm4(xs, k: int) -> tuple[int, int, tuple]:
    """Enclosed squared Frobenius norm sum_ij |sigma_k(x_ij)|^2 over the four
    int 4-tuples xs, exact, in closed form: the sum of the squares in the
    real views, of view_dist4's (u, v) forms in the complex ones."""
    if k & 1:
        u = v = 0
        for c0, c1, c2, c3 in xs:
            u += c0 * c0 + 2 * c2 * c2 - 4 * c1 * c3
            v += c1 * c1 + 2 * c3 * c3 - 2 * c0 * c2
        return enclosed((u, 0, v, 0))
    s0 = s1 = s2 = s3 = 0
    for c0, c1, c2, c3 in xs:
        s0 += c0 * c0 + 2 * c2 * c2 + 4 * c1 * c3
        s1 += c0 * c1 + 2 * c2 * c3
        s2 += c1 * c1 + 2 * c3 * c3 + 2 * c0 * c2
        s3 += c0 * c3 + c1 * c2
    # view 2 is view 0 after beta -> -beta
    if k:
        s1, s3 = -s1, -s3
    return enclosed((s0, 2 * s1, s2, 2 * s3))


def entry_exceeds(xs, k: int, bound: int) -> bool:
    """Whether integer bounds prove |sigma_k(x)|^2 * 2^FILTER_BITS > bound
    for some x of the int 4-tuples xs, entry by entry: then
    ``view_dist4(xs, k)`` exceeds every value enclosed below bound.  False
    proves nothing."""
    for c0, c1, c2, c3 in xs:
        if k & 1:
            lo = filter_bounds(c0 * c0 + 2 * c2 * c2 - 4 * c1 * c3,
                               (0, c1 * c1 + 2 * c3 * c3 - 2 * c0 * c2, 0),
                               quartic_bounds)[0]
        else:
            if k:
                c1, c3 = -c1, -c3
            lo, hi = filter_bounds(c0, (c1, c2, c3), quartic_bounds)
            # |x| * 2^FILTER_BITS >= lo >= 0, so
            # x^2 * 2^FILTER_BITS >= lo^2 >> FILTER_BITS
            lo = lo if lo > 0 else -hi if hi < 0 else 0
            lo = lo * lo >> FILTER_BITS
        if lo > bound:
            return True
    return False


def _abs_sign(x, y) -> int:
    """Exact sign of |x| - |y| for int 4-tuples."""
    if sign4(x) < 0:
        x = (-x[0], -x[1], -x[2], -x[3])
    if sign4(y) < 0:
        y = (-y[0], -y[1], -y[2], -y[3])
    return sign4((x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]))


def nonneg_interval(x: QuarticElem, bits: int = DEFAULT_BITS) -> Enclosure:
    """Enclosure of a provably nonnegative value; refines, up to 2^14 bits,
    past the cancellation that can push a coarse lower end below zero."""
    b = bits
    while True:
        lo, hi, s = x.interval(b)
        if lo >= 0:
            return lo, hi, s
        if b >= 1 << 14:
            return 0, max(0, hi), s
        b *= 2


def sqrt_of_square_interval(x: QuarticElem, bits: int = DEFAULT_BITS) -> Enclosure:
    return enc_sqrt(nonneg_interval(x, bits), bits)
