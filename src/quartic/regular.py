"""Regular representations into GL(2k, Q) for k = 2, 3, 4.

The block form of the regular representation is the matrix of left
multiplication on the coefficient module, so multiplicativity is a theorem
the tests re-check rather than an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import WrongSubring
from .linalg import RingMat2
from .ring import _elem


class RegularRep:
    """2k x 2k rational matrix, the image of a 2x2 matrix over Z[2^(1/k)].

    Stored as int rows over one positive denominator ``den``, reduced (the
    entries and ``den`` share no factor), so equal matrices have equal
    storage, an integral matrix has ``den`` 1, and a product is one int
    matrix product."""

    __slots__ = ("kappa", "rows", "den")

    def __init__(self, kappa: int, rows, den: int = 1):
        if den != 1:
            g = gcd(den, *(c for row in rows for c in row))
            if g != 1:
                rows = tuple(tuple(c // g for c in row) for row in rows)
                den //= g
        self.kappa, self.rows, self.den = kappa, rows, den

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
    return RegularRep(kappa, tuple(rows), den)


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
