"""The scalar identities attached to the generator pair.

P and Q (``linalg.paper_generators``) are the fixed 2x2 matrices over
Z[beta] whose Galois views drive everything else.  This module houses the
conjugation closed forms for Q^n sigma2(A) Q^-n, the trace recursion
lambda^n + lambda^-n = A_n + B_n sqrt2 and the conditions on the pair,
the north-south test for AB != BA among them (``north_south``).  All
verdicts are exact.  The standalone inequality probes are in
``inequality``.
"""

from __future__ import annotations

import enum
import sys
from itertools import chain

from .errors import QuarticError, UnsignedElement
from .linalg import (MatClass, RingMat2, classify, paper_generators,
                     share_eigenvector)
from .record import Record
from .ring import ONE, ZERO, QuarticElem, _elem


# ---------------------------------------------------------------------------
# Q(sqrt2) text, signedness and the gamma/delta split


def sqrt2_text(x: QuarticElem) -> str:
    """An element of Q(sqrt2) as 'u + v*sqrt2'."""
    return f"{x.q0} + {x.q2}*sqrt2"


class Signedness(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNSIGNED = "unsigned"


def signedness(x: QuarticElem) -> Signedness:
    # over a positive denominator the numerators carry the signs
    lo, hi = min(x._c), max(x._c)
    if lo >= 0 and hi > 0:
        return Signedness.POSITIVE
    if hi <= 0 and lo < 0:
        return Signedness.NEGATIVE
    return Signedness.UNSIGNED


def _gamma(x: QuarticElem, name: str, degrees, scale: int) -> QuarticElem:
    """scale * the least of x's monomial terms q_i beta^i for i in degrees,
    each one int of its vector over its denominator, extended oddly to
    negative x.  Zero input yields zero (continuity); mixed signs raise."""
    if x.is_zero():
        return ZERO
    s = signedness(x)
    if s == Signedness.UNSIGNED:
        raise UnsignedElement(f"{name} of mixed-sign element {x.to_text()}")
    if s == Signedness.NEGATIVE:
        return -_gamma(-x, name, degrees, scale)
    c, d = x._c, x._d
    return scale * min(_elem(tuple(c[i] if j == i else 0 for j in range(4)), d)
                       for i in degrees)


def gamma(x: QuarticElem) -> QuarticElem:
    """4 * min of the four monomial terms, extended oddly to negative x."""
    return _gamma(x, "gamma", range(4), 4)


def delta(x: QuarticElem) -> QuarticElem:
    return x - gamma(x)


def gamma1(x: QuarticElem) -> QuarticElem:
    """2 * min of the even-part terms {a, p*beta^2}, oddly extended."""
    return _gamma(x, "gamma1", (0, 2), 2)


def gamma2(x: QuarticElem) -> QuarticElem:
    """2 * min of the odd-part terms {m*beta, e*beta^3}, oddly extended."""
    return _gamma(x, "gamma2", (1, 3), 2)


def delta1(x: QuarticElem) -> QuarticElem:
    return x.even_part() - gamma1(x)


def delta2(x: QuarticElem) -> QuarticElem:
    return x.odd_part() - gamma2(x)


# ---------------------------------------------------------------------------
# trace recursion


_CHEB_CACHE: list[QuarticElem] = [QuarticElem(2), QuarticElem(3, 0, 2)]
_CHEB2_CACHE: list[QuarticElem] = [ZERO, ONE]
_TRACE_Q = QuarticElem(3, 0, 2)


def cheb_value(n: int) -> QuarticElem:
    """lambda^n + lambda^-n as an element of Z[sqrt2], any n."""
    n = abs(n)
    while len(_CHEB_CACHE) <= n:
        _CHEB_CACHE.append(_TRACE_Q * _CHEB_CACHE[-1] - _CHEB_CACHE[-2])
    return _CHEB_CACHE[n]


def _cheb_second(n: int) -> QuarticElem:
    """(lambda^n - lambda^-n) / (lambda - lambda^-1) in Z[sqrt2], any n."""
    if n < 0:
        return -_cheb_second(-n)
    while len(_CHEB2_CACHE) <= n:
        _CHEB2_CACHE.append(_TRACE_Q * _CHEB2_CACHE[-1] - _CHEB2_CACHE[-2])
    return _CHEB2_CACHE[n]


def trace_matches_chebyshev(n: int) -> bool:
    """trace(Q^n) = A_n + B_n sqrt2, checked exactly."""
    _, q = paper_generators()
    t = (q ** n).trace()
    return t == cheb_value(n)


# ---------------------------------------------------------------------------
# conditions (1) - (3)


class ConditionReport(Record):
    condition1: bool
    condition2: bool
    condition3_first: bool
    condition3_second: bool
    via_noncommuting: bool
    notes: str

    def to_json(self) -> dict:
        return {
            "condition1_fixed_points_disjoint": self.condition1,
            "condition2_cross_disjoint": self.condition2,
            "condition3_commutator_qpq": self.condition3_first,
            "condition3_commutator_pqp": self.condition3_second,
            "condition3_via_noncommuting": self.via_noncommuting,
            "notes": self.notes,
        }


def north_south(a: RingMat2, b: RingMat2) -> bool:
    """The north-south criterion for ab != ba on the projective line: a and
    b are hyperbolic in view 0, a maps no fixed point of b onto one, and
    the commutator is not the identity.  Fix(a b a^-1) = a Fix(b), so one
    resultant decides the second test; a shared fixed point fails it."""
    return (all(classify(m, 0) == MatClass.HYPERBOLIC for m in (a, b))
            and not share_eigenvector(a * b * a.inv(), b)
            and not a.commutator(b).is_identity())


def check_conditions(p: RingMat2, q: RingMat2, m: int, n: int) -> ConditionReport:
    """Fixed-point disjointness and commutator non-vanishing, evaluated on
    the sigma2 views where both generators act hyperbolically.

    In dimension two the cross conditions coincide with fixed-point
    disjointness, so conditions one and two carry the same verdict.
    """
    if m < 1 or n < 1:
        raise ValueError("powers must be at least 1")
    try:
        disjoint = not share_eigenvector(p, q)
    except QuarticError:
        disjoint = False
    c3a = not (((q ** m) * (p ** n) * (q ** -m)).commutator(p ** n)).is_identity()
    c3b = not (((p ** m) * (q ** n) * (p ** -m)).commutator(q ** n)).is_identity()
    via = disjoint and north_south(p.real_view(), q.real_view())
    notes = ("size-two crosses equal the fixed-point pairs, so conditions "
             "one and two are a single verdict")
    return ConditionReport(disjoint, disjoint, c3a, c3b, via, notes)


# ---------------------------------------------------------------------------
# conjugation closed forms


def _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn, map_entry):
    """The bilinear expansion of Q^n M Q^-n with map_entry applied to the
    shifted entries; map_entry = identity gives the conjugate itself."""
    z1 = map_entry(zeta - ONE)
    n1 = map_entry(nu - ONE)
    e = map_entry(eta)
    u = map_entry(mu)
    e11 = an * dn * z1 - bn * cn * n1 + bn * dn * u - an * cn * e
    e12 = an * an * e - bn * bn * u - an * bn * (z1 - n1)
    e21 = dn * dn * u - cn * cn * e + cn * dn * (z1 - n1)
    e22 = an * dn * n1 - bn * cn * z1 + an * cn * e - bn * dn * u
    return e11, e12, e21, e22


class ConjugationRecord(Record):
    n: int
    a_n: QuarticElem
    b_n: QuarticElem
    c_n: QuarticElem
    d_n: QuarticElem
    direct: RingMat2
    direct_primed: RingMat2
    closed_forms_match: bool
    delta_available: bool
    delta_matrix: RingMat2 | None = None
    s1: QuarticElem | None = None
    s2: QuarticElem | None = None
    r1: QuarticElem | None = None
    r2: QuarticElem | None = None
    s1_primed: QuarticElem | None = None
    s2_primed: QuarticElem | None = None
    identity_checks: dict = {}
    ent21_displayed_sign_matches: bool | None = None

    def to_json(self) -> dict:
        def q(x):
            return None if x is None else x.to_text()
        return {
            "n": self.n,
            "a_n": sqrt2_text(self.a_n), "b_n": sqrt2_text(self.b_n),
            "c_n": sqrt2_text(self.c_n), "d_n": sqrt2_text(self.d_n),
            "direct": self.direct.to_text(),
            "direct_primed": self.direct_primed.to_text(),
            "closed_forms_match": self.closed_forms_match,
            "delta_available": self.delta_available,
            "S1": q(self.s1), "S2": q(self.s2),
            "R1": q(self.r1), "R2": q(self.r2),
            "S1_primed": q(self.s1_primed), "S2_primed": q(self.s2_primed),
            "identity_checks": self.identity_checks,
        }


def lambda_plus_inverse() -> QuarticElem:
    """lambda + 1/lambda for the hyperbolic generator: 3 + 2 sqrt2."""
    return QuarticElem(3, 0, 2)


def l_squared() -> QuarticElem:
    """(lambda - 1/lambda)^2 = 13 + 12 sqrt2."""
    return (lambda_plus_inverse() * lambda_plus_inverse()) - 4


# |n| beyond this fails in a conjugation record: the entries of Q^n have
# about 0.75 |n| digits, past CPython's 4,300-digit limit on int-to-text
# conversion near |n| = 5,800, and the Chebyshev caches grow as n^2
CONJUGATION_N_CAP = 5000


def _check_text_size(a: RingMat2, n: int, ints) -> None:
    """Raise ``ValueError`` when one of ints has more digits than CPython
    converts to text (``sys.get_int_max_str_digits``).  ints are the ints a
    record stores for what it prints, which bound the reduced ones it
    prints.  The conjugate grows with a's entries as well as with |n|."""
    limit = sys.get_int_max_str_digits()
    big = max(map(abs, ints))
    # fewer than 3.32 limit bits is fewer than limit digits
    if limit and big.bit_length() > 3.32 * limit and big >= 10 ** limit:
        digits = max(len(str(abs(c))) for c in (a._d, *chain(*a._m)))
        raise ValueError(
            f"|n| = {abs(n)} on entries below 10^{digits}: the record's "
            f"entries pass the {limit}-digit limit on int-to-text conversion")


def conjugation_record(a: RingMat2, n: int) -> ConjugationRecord:
    """Closed forms for Q^n sigma2(a) Q^-n, verified against the direct
    matrix product.  The gamma/delta split and the S/R quantities are
    populated when the shifted sigma2 entries are signed (zero allowed).
    |n| is capped at ``CONJUGATION_N_CAP``.  A record with an int too long
    to print is refused (``_check_text_size``): the conjugates are checked
    before the record is built, the S and R values after."""
    if abs(n) > CONJUGATION_N_CAP:
        raise ValueError(f"|n| = {abs(n)} beyond cap {CONJUGATION_N_CAP}")
    _, q = paper_generators()
    s2a = a.real_view()
    qn = q ** n
    an, bn, cn, dn = qn.entries()
    checks: dict[str, bool] = {}

    # closed forms in the hyperbolic eigenvalue: a_n = psi_{n+1}, etc.
    checks["a_n"] = an == _cheb_second(n + 1)
    checks["b_n"] = bn == _cheb_second(n)
    checks["c_n"] = cn == -_cheb_second(n)
    checks["d_n"] = dn == -_cheb_second(n - 1)

    direct = qn * s2a * (q ** -n)
    zeta, eta, mu, nu = s2a.entries()
    e11, e12, e21, e22 = _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn,
                                             lambda x: x)
    bilinear = RingMat2(e11 + ONE, e12, e21, e22 + ONE)
    checks["conjugate_bilinear_form"] = bilinear == direct

    s2a_inv = s2a.inv()
    direct_primed = (q ** -n) * s2a_inv * qn
    _check_text_size(a, n, chain(*[(m._d, *chain(*m._m))
                                   for m in (qn, direct, direct_primed)]))
    record = ConjugationRecord(
        n=n, a_n=an, b_n=bn, c_n=cn, d_n=dn,
        direct=direct, direct_primed=direct_primed,
        closed_forms_match=all(checks.values()),
        delta_available=False, identity_checks=checks)

    entries = (zeta - ONE, eta, mu, nu - ONE)
    if any(signedness(x) == Signedness.UNSIGNED and not x.is_zero()
           for x in entries):
        return record

    record.delta_available = True
    g11, g12, g21, g22 = _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn,
                                             gamma)
    d11, d12, d21, d22 = _conj_decomposition(zeta, eta, mu, nu, an, bn, cn, dn,
                                             delta)
    record.delta_matrix = RingMat2(d11 + ONE, d12, d21, d22 + ONE)
    checks["gamma_plus_delta"] = (
        RingMat2(g11 + d11 + ONE, g12 + d12, g21 + d21, g22 + d22 + ONE)
        == direct)

    dz = delta(zeta - ONE)
    dn1 = delta(nu - ONE)
    de = delta(eta)
    du = delta(mu)
    c2n = cheb_value(2 * n)
    c2nm1 = cheb_value(2 * n - 1)
    c2np1 = cheb_value(2 * n + 1)
    lam1 = lambda_plus_inverse()
    lam2 = cheb_value(2)
    lsq = l_squared()

    record.s1 = c2n * (dn1 - dz) - c2nm1 * du + c2np1 * de
    record.s2 = c2n * (dz - dn1) + c2nm1 * du - c2np1 * de
    record.r1 = lam2 * dz - 2 * dn1 + lam1 * (du - de)
    record.r2 = lam2 * dn1 - 2 * dz + lam1 * (de - du)
    record.s1_primed = c2n * (dz - dn1) - c2nm1 * de + c2np1 * du
    record.s2_primed = c2n * (dn1 - dz) + c2nm1 * de - c2np1 * du

    m11, m12, m21, m22 = record.delta_matrix.entries()
    checks["ent11_decomposition"] = (
        lsq * m11 == lsq + record.s1 + record.r1)
    checks["ent22_decomposition"] = (
        lsq * m22 == lsq + record.s2 + record.r2)
    checks["ent12_closed_form"] = (
        lsq * m12
        == (cheb_value(2 * n + 2) - 2) * de
        - (c2n - 2) * du - (c2np1 - lam1) * (dz - dn1))
    # the (2,1) closed form needs "+" on its third term to agree with the
    # bilinear expansion; the sign printed in the reference display fails
    # for n >= 2 whenever delta(zeta-1) != delta(nu-1)
    checks["ent21_closed_form"] = (
        lsq * m21
        == (cheb_value(2 * n - 2) - 2) * du
        - (c2n - 2) * de + (c2nm1 - lam1) * (dz - dn1))
    record.ent21_displayed_sign_matches = (
        lsq * m21
        == (cheb_value(2 * n - 2) - 2) * du
        - (c2n - 2) * de - (c2nm1 - lam1) * (dz - dn1))
    checks["s1_minus_s1_primed"] = (
        record.s1 - record.s1_primed
        == c2n * (lam1 * (de - du) + 2 * (dn1 - dz)))
    record.closed_forms_match = all(checks.values())
    _check_text_size(a, n, chain(*[(x._d, *x._c) for x in (
        record.s1, record.s2, record.r1, record.r2, record.s1_primed,
        record.s2_primed)]))
    return record


def make_signed_sigma2_matrix(x: QuarticElem, y: QuarticElem,
                              z: QuarticElem) -> RingMat2:
    """A matrix A whose sigma2 view has signed shifted entries.

    For positive-coefficient x, y, z the product of elementary matrices
    [[1,x],[0,1]] [[1,0],[y,1]] [[1,z],[0,1]] has entries whose shifts
    zeta-1, eta, mu, nu-1 are all nonnegative; pulling back through sigma2
    gives the abstract matrix."""
    b = (RingMat2(ONE, x, ZERO, ONE) * RingMat2(ONE, ZERO, y, ONE)
         * RingMat2(ONE, z, ZERO, ONE))
    return b.real_view()
