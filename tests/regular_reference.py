"""The exact characteristic polynomials the acceptance gate checks the
rank-8 regular representation (``quartic.regular``) against.

``charpoly_fraction`` is Faddeev-LeVerrier over the rationals;
``embedded_charpoly_product`` multiplies the characteristic polynomials of
the four embedded 2x2 views, whose product must be rational.
"""

from __future__ import annotations

from fractions import Fraction

from quartic.errors import NotUnimodular, WrongSubring
from quartic.linalg import RingMat2
from quartic.ring import ONE, SQRT2, ZERO, QuarticElem, galois


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
    re, im = galois(tau, 1)
    tr_sum = re + re                    # sigma1 + sigma3 of the trace
    tr_prod = re * re + SQRT2 * im * im  # sigma1 * sigma3 of the trace
    p13 = [ONE, -tr_sum, tr_prod + QuarticElem(2), -tr_sum, ONE]
    full = _poly_mul(p02, p13)
    out = []
    for c in reversed(full):            # leading coefficient first
        if not c.is_rational():
            raise WrongSubring("embedded char poly product must be rational")
        out.append(c.q0)
    return out
