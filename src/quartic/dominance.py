"""The north-south noncommuting criterion on a determinant-one 2x2 view.

Both matrices must be hyperbolic in the view (``linalg.classify``); the
second one's attracting and repelling points are its exact eigenvectors
(``eigen.eigen2``).
"""

from __future__ import annotations

from .eigen import eigen2
from .errors import DimensionMismatch
from .extension import QuadExt
from .linalg import MatClass, RingMat2, classify, share_eigenvector
from .record import Record


class NoncommutingResult(Record):
    holds: bool
    reason: str
    commutator_nontrivial: bool | None = None

    def __bool__(self) -> bool:
        return self.holds


def proj_equal(p: tuple, q: tuple) -> bool:
    """Exact proportionality test of two points whose coordinates lie in
    one quadratic extension of the base field; coordinates in two
    different extensions raise ``InternalMismatch``."""
    if len(p) != len(q):
        raise DimensionMismatch(f"{len(p)} vs {len(q)}")
    return all((p[i] * q[j] - p[j] * q[i]).is_zero()
               for i in range(len(p)) for j in range(i + 1, len(p)))


def noncommuting_check(a: RingMat2, b: RingMat2) -> NoncommutingResult:
    """North-south dynamics criterion for AB != BA on the projective line."""
    if any(classify(m, 0) != MatClass.HYPERBOLIC for m in (a, b)):
        return NoncommutingResult(False, "inputs are not hyperbolic-like")
    if share_eigenvector(a, b):
        return NoncommutingResult(False, "shared fixed point")
    eb = eigen2(b, 0)
    fixed = (eb.vec_dominant, eb.vec_recessive)
    e11, e12, e21, e22 = a.entries()
    for x, y in fixed:
        image = (QuadExt.of_base(e11, x.d) * x + QuadExt.of_base(e12, x.d) * y,
                 QuadExt.of_base(e21, x.d) * x + QuadExt.of_base(e22, x.d) * y)
        if proj_equal(image, fixed[0]) or proj_equal(image, fixed[1]):
            return NoncommutingResult(
                False, "first matrix preserves the fixed pair of the second")
    nontrivial = not a.commutator(b).is_identity()
    if not nontrivial:
        return NoncommutingResult(
            False, "hypotheses held but the commutator is trivial", False)
    return NoncommutingResult(True, "north-south dynamics forces AB != BA", True)
