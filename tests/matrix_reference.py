"""Reference 2x2 matrices over Q(beta) for differential tests.

``RefMat2`` holds four ``QuarticElem`` entries and multiplies, inverts and
compares entry by entry with the schoolbook formulas.  ``entry_dist_sq`` is
the squared sup-distance of two matrices' views taken through
``ring.galois``.  ``linalg.RingMat2`` (an int 4-tuple matrix over one
denominator) and ``margin.view_dist4`` must agree with them.
``sigma3_commutator_nontrivial`` decides the limit checker's complex-view
commutator condition on the complex views themselves, entries as
(re, im) pairs, the way the checker did before it read the verdict
off one ring commutator.
"""

from quartic.errors import NotUnimodular, SingularMatrix
from quartic.ring import ONE, SQRT2, ZERO, QuarticElem, Sign, galois


class RefMat2:
    """2x2 matrix over Q(beta) as four QuarticElem fields, row major."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        self.e11, self.e12, self.e21, self.e22 = (
            e if isinstance(e, QuarticElem) else QuarticElem(e)
            for e in (e11, e12, e21, e22))

    @classmethod
    def identity(cls) -> "RefMat2":
        return cls(ONE, ZERO, ZERO, ONE)

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RefMat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __mul__(self, other: "RefMat2") -> "RefMat2":
        return RefMat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self) -> QuarticElem:
        return self.e11 * self.e22 - self.e12 * self.e21

    def trace(self) -> QuarticElem:
        return self.e11 + self.e22

    def inv(self) -> "RefMat2":
        d = self.det()
        if d.is_zero():
            raise SingularMatrix("matrix is singular")
        dinv = d.inv()
        return RefMat2(self.e22 * dinv, -self.e12 * dinv,
                       -self.e21 * dinv, self.e11 * dinv)

    def __pow__(self, n: int) -> "RefMat2":
        if n < 0:
            return self.inv() ** (-n)
        result = RefMat2.identity()
        for _ in range(n):
            result = result * self
        return result

    def is_identity(self) -> bool:
        return self == RefMat2.identity()

    def is_scalar(self) -> bool:
        return self.e12.is_zero() and self.e21.is_zero() and self.e11 == self.e22

    def real_view(self) -> "RefMat2":
        """The sigma2 view."""
        return RefMat2(*(galois(e, 2)[0] for e in self.entries()))


def entry_dist_sq(a, b, k: int) -> QuarticElem:
    """Exact squared sup-distance max_ij |sigma_k(a_ij - b_ij)|^2 of two
    matrices with ``entries()``."""
    best = None
    for x, y in zip(a.entries(), b.entries()):
        re, im = galois(x - y, k)
        v = re * re + SQRT2 * im * im
        if best is None or (v - best).sign() == Sign.POSITIVE:
            best = v
    return best


# ---------------------------------------------------------------------------
# complex views on (re, im) pairs: x = re + beta * im * i


def _cmul(x, y):
    """(r1 + b s1 i)(r2 + b s2 i)
    = r1 r2 - sqrt2 s1 s2 + b (r1 s2 + r2 s1) i, as (b i)^2 = -sqrt2."""
    (r1, s1), (r2, s2) = x, y
    return (r1 * r2 - SQRT2 * s1 * s2, r1 * s2 + r2 * s1)


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def complex_view(m, k: int) -> tuple:
    """The entries of the k-th view of m as (re, im) pairs."""
    return tuple(galois(e, k) for e in m.entries())


def cmat_mul(a, b) -> tuple:
    return (_cadd(_cmul(a[0], b[0]), _cmul(a[1], b[2])),
            _cadd(_cmul(a[0], b[1]), _cmul(a[1], b[3])),
            _cadd(_cmul(a[2], b[0]), _cmul(a[3], b[2])),
            _cadd(_cmul(a[2], b[1]), _cmul(a[3], b[3])))


def cmat_inv(a) -> tuple:
    """The adjugate, the inverse for determinant one only."""
    det = _cadd(_cmul(a[0], a[3]), tuple(-c for c in _cmul(a[1], a[2])))
    if det != (ONE, ZERO):
        raise NotUnimodular("complex-view inverse needs determinant one")
    return (a[3], (-a[1][0], -a[1][1]), (-a[2][0], -a[2][1]), a[0])


def sigma3_commutator_nontrivial(q, m) -> bool:
    """Whether [sigma1(q) sigma3(m) sigma1(q)^-1, sigma3(m)] is not the
    identity, computed in the complex views."""
    s1q, r2 = complex_view(q, 1), complex_view(m, 3)
    c = cmat_mul(cmat_mul(s1q, r2), cmat_inv(s1q))
    comm = cmat_mul(cmat_mul(cmat_mul(c, r2), cmat_inv(c)), cmat_inv(r2))
    return comm != ((ONE, ZERO), (ZERO, ZERO), (ZERO, ZERO), (ONE, ZERO))
