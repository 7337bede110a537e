"""2x2 matrices over Q(beta), trace classification, the generator pair
and the int 4-tuple matrix product.

Everything is exact.  A 2x2 matrix over Q(beta) has one representation,
``RingMat2``: four int 4-tuples on the basis 1, beta, beta^2, beta^3 over
one reduced denominator.  Products, determinants, traces and the scalar
tests work on those ints (``mul_mat4``, ``is_scalar4``).  Embedded views
reuse the scalar Galois machinery; classification is a trace test.  The
regular representations are in ``regular``, the eigen data of the views in
``eigen`` and the word scans' int kernels in ``margin``.
"""

from __future__ import annotations

from math import gcd
import enum

from .errors import NotUnimodular, ScalarMatrix, SingularMatrix
from .ring import (
    ONE,
    ZERO,
    QuarticElem,
    Sign,
    common_over,
    galois,
    mul4,
    power,
    _elem,
)


class MatClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    LOXODROMIC = "loxodromic"


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

    def is_scalar(self) -> bool:
        return is_scalar4(self._m)

    def is_integral(self) -> bool:
        return self._d == 1

    def real_view(self) -> "RingMat2":
        """The sigma2 view: the real embedding beta -> -beta applied
        entrywise."""
        return _mat(tuple([(c0, -c1, c2, -c3) for c0, c1, c2, c3 in self._m]),
                    self._d)

    def commutator(self, other: "RingMat2") -> "RingMat2":
        return self * other * self.inv() * other.inv()


def parse_matrix(text: str, elem=QuarticElem, mat=RingMat2):
    """The 2x2 matrix of the text format 'e11; e12; e21; e22', each entry
    in ``elem.parse``'s format; a malformed text raises ValueError naming
    the entry."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 4:
        raise ValueError(
            f"matrix needs 4 ';'-separated entries, got {len(parts)}")
    entries = []
    for pos, part in enumerate(parts, 1):
        try:
            entries.append(elem.parse(part))
        except ValueError as exc:
            raise ValueError(f"matrix entry {pos} ({part!r}): {exc}") from exc
    return mat(*entries)


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
    re, im = galois(a.trace(), k)
    if not im.is_zero():
        return MatClass.LOXODROMIC
    s = (re * re - QuarticElem(4)).sign()
    if s == Sign.NEGATIVE:
        return MatClass.ELLIPTIC
    if s == Sign.ZERO:
        return MatClass.PARABOLIC
    return MatClass.HYPERBOLIC


def fixed_slope_form(a: RingMat2) -> tuple[QuarticElem, QuarticElem, QuarticElem]:
    """Binary form c z^2 + (d - a) z - b whose roots are fixed slopes."""
    e11, e12, e21, e22 = a.entries()
    return (e21, e22 - e11, -e12)


def resultant_quadratics(f, g) -> QuarticElem:
    f2, f1, f0 = f
    g2, g1, g0 = g
    m = f2 * g0 - g2 * f0
    return m * m - (f2 * g1 - g2 * f1) * (f1 * g0 - g1 * f0)


def share_eigenvector(a: RingMat2, b: RingMat2) -> bool:
    """True iff a and b share a projective fixed point, decided by an exact
    resultant.  Galois embeddings are injective, so the verdict holds for
    every view."""
    if a.is_scalar() or b.is_scalar():
        raise ScalarMatrix("fixed slopes undefined for scalar matrices")
    return resultant_quadratics(fixed_slope_form(a), fixed_slope_form(b)).is_zero()


def paper_generators() -> tuple[RingMat2, RingMat2]:
    """The generator pair: P has trace 5 - 3b + b^2 - 2b^3, Q has trace
    3 + 2b^2; both are companion-shaped with determinant one."""
    p = RingMat2(QuarticElem(5, -3, 1, -2), ONE, -ONE, ZERO)
    q = RingMat2(QuarticElem(3, 0, 2, 0), ONE, -ONE, ZERO)
    return p, q


# ---------------------------------------------------------------------------
# the int 4-tuple matrix product
#
# A RingMat2 is four int 4-tuples (e11, e12, e21, e22) over one denominator;
# a word scan multiplies such tuples directly (``probe.int_matrices``).


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
