"""The ping-pong certificate search.

``pingpong_exponent`` finds the least exponent at which a hyperbolic pair
has a ping-pong certificate (``pingpong.PingPongCertificate``), and
``free_pair_power`` runs it on the pair's sigma2 views.  The search places
the balls around the exact fixed points, takes for each condition the
first dyadic region that passes the checker's region test, covers each
root with one cell, in the first chart where the ball is convex and the
root has no pole, and accepts the cover by the checker's own test
(``pingpong._recheck_condition``).  No cell is bisected: a root with a
pole in every chart where the ball is convex maps one parameter onto that
chart's point at infinity, which lies outside the ball, so every leaf that
contains it would have an end outside the ball.

The radii of the ladder are tried largest first.  When a complement
condition fails at radius rho, the search looks for one witness
(``_witness``): a dyadic slope t strictly outside the source ball whose
image under the generator power is not strictly inside the target ball.
A witness refutes the exponent at rho and at every smaller radius rho' of
the ladder.  The balls at rho' have the same centers, so they lie inside
those at rho.  The condition's removed interval at rho' lies inside the
source ball at rho' (``_region_ok``), so t lies outside it, in some cell
of the cover.  A passing cell maps t strictly inside the target ball at
rho', hence inside the one at rho, and t's image is not there.  The
candidates come from an integer enclosure of the source ball's ends;
every decision is a sign of the ball form (``Ball.membership_sign``).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from .errors import (HypothesisViolated, NotHyperbolicLike, SearchOverflow,
                     UndecidedComparison)
from .intervals import enc_add, enc_mul, enc_sqrt
from .linalg import MatClass, RingMat2, classify, share_eigenvector
from .pingpong import (_CONDITIONS, EXPONENT_CAP, Ball, Cell,
                       MappingCondition, PingPongCertificate, _cell_pole_free,
                       _condition_spec, _fixed_points, _image_pair,
                       _point_outside_all, _recheck_condition, _region_ok,
                       _roots, proj_dist)
from .ring import Sign


# ---------------------------------------------------------------------------
# the certificate search


def _root_cell(m: RingMat2, root: Cell, ball: Ball) -> Cell | None:
    """The root as one cell, mapped into the first chart where the ball is
    convex and the root has no pole, or None if there is no such chart."""
    for chart in ("s", "u"):
        if ball.excludes_chart_infinity(chart) and _cell_pole_free(m, root, chart):
            return Cell(root.chart, root.lo, root.hi, chart)
    return None


# dyadic precisions of the search's region ends and of its slope window
_DYADIC_BITS = 24
_SLOPE_BITS = 96


def _dyadic_near(x: Fraction) -> Fraction:
    return Fraction(round(x * (1 << _DYADIC_BITS)), 1 << _DYADIC_BITS)


def _ball_slope_window(ball: Ball) -> tuple[Fraction, Fraction] | None:
    """Dyadic estimates (lo, hi) of the ball's extent in the slope chart."""
    c1, c2 = ball.center
    if not ball.excludes_chart_infinity("s"):
        return None
    x_lo, x_hi, s1 = c1.interval(_SLOPE_BITS)
    y_lo, y_hi, s2 = c2.interval(_SLOPE_BITS)
    if x_lo <= 0 <= x_hi:
        return None
    slopes = [Fraction(y * s1, x * s2) for x in (x_lo, x_hi)
              for y in (y_lo, y_hi)]
    lo, hi = min(slopes), max(slopes)
    # chordal radius r around slope s0 spans roughly r * (1 + s0^2) in slope
    spread = ball.radius * (1 + max(abs(lo), abs(hi)) ** 2) * 2
    return (lo - spread, hi + spread)


def _edge_slopes(ball: Ball) -> list[Fraction]:
    """Dyadic slopes just outside the ball's two ends in chart s, or none
    when the ball is not an interval there.  For center c and radius r the
    ends are the roots of the ball form at (1, t),
    (c1 c2 -+ r |c|^2 sqrt(1 - r^2)) / (c1^2 - r^2 |c|^2); each is enclosed
    from the center's enclosures at ``_SLOPE_BITS`` and rounded outward to
    a dyadic.  The slopes are candidates only: the ball form decides."""
    x, y = (c.interval(_SLOPE_BITS) for c in ball.center)
    r2 = ball.radius * ball.radius
    p, q = r2.numerator, r2.denominator
    xx, xy = enc_mul(x, x), enc_mul(x, y)
    norm = enc_add(xx, enc_mul(y, y))
    d_lo, d_hi, d_s = enc_add(xx, (-norm[1] * p, -norm[0] * p, norm[2] * q))
    if d_lo <= 0:
        return []
    w = p * (q - p)
    o_lo, o_hi, o_s = enc_mul(enc_sqrt((w, w, q * q), _SLOPE_BITS), norm)
    n_lo, _, n_s = enc_add(xy, (-o_hi, -o_lo, o_s))
    _, n_hi, _ = enc_add(xy, (o_lo, o_hi, o_s))
    left = min(Fraction(n_lo * d_s, n_s * d) for d in (d_lo, d_hi))
    right = max(Fraction(n_hi * d_s, n_s * d) for d in (d_lo, d_hi))
    unit = 1 << _DYADIC_BITS
    return [Fraction(floor(left * unit), unit),
            Fraction(ceil(right * unit), unit)]


def _witness(m: RingMat2, source: Ball, target: Ball) -> Fraction | None:
    """A dyadic slope strictly outside the source ball whose image under m
    is not strictly inside the target ball, or None: one exact point that
    no cover of a complement condition from source to target can map."""
    return next((t for t in _edge_slopes(source)
                 if _point_outside_all(t, {source.name: source})
                 and target.membership_sign(_image_pair(m, "s", t))
                 != Sign.NEGATIVE), None)


def _certify_condition(m: RingMat2, cond: MappingCondition,
                       balls: dict[str, Ball]) -> bool:
    """Cover each root with one cell (``_root_cell``) and accept the cover
    by the checker's ``_recheck_condition``."""
    cond.cells = [_root_cell(m, root, balls[cond.target])
                  for root in _roots(cond)]
    return None not in cond.cells and _recheck_condition(m, cond, balls)


# basepoint candidates, in the order the search tries them
_BASEPOINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
               Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3),
               Fraction(10), Fraction(-10))


# the factors, in the order the search tries them, by which the ball's
# slope window is scaled into a region: a removed interval shrinks inside
# the ball, an enclosing interval grows around it
_REGION_SCALES = {
    "complement": (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4),
                   Fraction(1, 8), Fraction(1, 32)),
    "interval": (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)),
}


def _search_region(ball: Ball, kind: str):
    """(region, outer) of a condition of the kind on its source ball, or
    None: the first dyadic scaling of the ball's slope window that passes
    the checker's ``_region_ok``."""
    win = _ball_slope_window(ball)
    if win is None:
        return None
    mid = (win[0] + win[1]) / 2
    half = (win[1] - win[0]) / 2
    scaled = ((_dyadic_near(mid - half * f), _dyadic_near(mid + half * f))
              for f in _REGION_SCALES[kind])
    region = next((r for r in scaled if _region_ok(ball, r, kind)), None)
    if region is None:
        return None
    outer = Fraction(1)
    if kind == "complement":
        bound = max(abs(region[0]), abs(region[1]), Fraction(4))
        outer = Fraction(2 ** (bound.numerator // bound.denominator).bit_length() * 2)
    return region, outer


class _PairSearch:
    """The certificate search state of one hyperbolic pair (a, b).

    The pair is the generators' sigma2 views.  It checks the pair's
    hypotheses and computes each exact quantity once for every exponent and
    radius it is asked about: the fixed points (one ``eigen2`` per
    generator), their separation and the precision that certifies it,
    each generator power, and per radius the balls, the basepoint and each
    region.  A step condition (exponent +-1) is certified once per radius
    for every exponent.  A failed complement condition at a radius is met
    by one witness search (``refuted``), which spares the smaller radii
    when it finds a point against the condition."""

    def __init__(self, a: RingMat2, b: RingMat2):
        for m, label in ((a, "first"), (b, "second")):
            if classify(m, 0) != MatClass.HYPERBOLIC:
                raise NotHyperbolicLike(
                    f"{label} generator is not hyperbolic in the sigma2 view")
        if share_eigenvector(a, b):
            raise HypothesisViolated("sigma2 views share an eigenvector")
        self.gens = {"A": a, "B": b}
        self.centers = _fixed_points(a, b)
        self._memo: dict = {}
        self.sep, self.bits = self._separation()

    def _once(self, key, compute):
        """compute() the first time key is asked for, its value after."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _separation(self) -> tuple[Fraction, int]:
        """(sep, bits): the least lower end of the fixed points' six
        pairwise chordal distances (``proj_dist`` at bits), at the first
        precision where it is positive.  Every ladder radius rho has
        2 rho < sep, so bits certifies the balls of each rung disjoint."""
        pts = [self.centers[k] for k in sorted(self.centers)]
        for bits in (64, 128, 256, 512):
            try:
                sep = min(Fraction(lo, s) for lo, _, s in (
                    proj_dist(p, q, bits)
                    for i, p in enumerate(pts) for q in pts[i + 1:]))
            except UndecidedComparison:
                continue
            if sep > 0:
                return sep, bits
        raise HypothesisViolated("fixed points too close to separate")

    def radii(self) -> list[Fraction]:
        """The radius ladder: a quarter of the fixed-point separation, as a
        dyadic, then five halvings; empty when that dyadic is zero."""
        rho = _dyadic_near(self.sep / 4)
        return [rho / 2 ** k for k in range(6)] if rho > 0 else []

    def _balls(self, rho: Fraction) -> dict[str, Ball]:
        return self._once(("balls", rho), lambda: {
            name: Ball(name, c, rho) for name, c in self.centers.items()})

    def _rung(self, rho: Fraction):
        """(balls, basepoint) at radius rho, or None when no basepoint lies
        outside the balls: then rho fails at every exponent."""
        balls = self._balls(rho)
        basepoint = next(
            (t for t in _BASEPOINTS if _point_outside_all(t, balls)), None)
        return None if basepoint is None else (balls, basepoint)

    def _region(self, rho: Fraction, balls: dict[str, Ball], name: str):
        """The named condition's (region, outer) on the balls of radius
        rho, or None; it does not depend on the exponent."""
        _, _, source, _, kind = _CONDITIONS[name]
        return self._once(("region", rho, name),
                          lambda: _search_region(balls[source], kind))

    def _power(self, gen: str, expo: int) -> RingMat2:
        return self._once(("power", gen, expo),
                          lambda: self.gens[gen] ** expo)

    def _condition(self, rho: Fraction, balls: dict[str, Ball],
                   name: str, n: int) -> MappingCondition | None:
        """The named condition at exponent n on the balls of radius rho,
        certified, or None."""
        gen, expo, source, target, kind = _condition_spec(name, n)

        def compute():
            region = self._region(rho, balls, name)
            if region is None:
                return None
            cond = MappingCondition(name, gen, expo, region[0], kind,
                                    region[1], target)
            return (cond if _certify_condition(self._power(gen, expo), cond,
                                               balls) else None)
        return self._once(("condition", rho, name, expo), compute)

    def live(self) -> bool:
        """Whether some radius passes the parts of a certificate that no
        exponent changes: its rung, its eight regions and its four step
        conditions.  Radii are checked in ladder order, up to a live one."""
        for rho in self.radii():
            rung = self._once(("rung", rho), lambda: self._rung(rho))
            if rung is not None and all(
                    self._condition(rho, rung[0], name, 1) is not None
                    if kind == "interval"
                    else self._region(rho, rung[0], name) is not None
                    for name, (*_, kind) in _CONDITIONS.items()):
                return True
        return False

    def refuted(self, n: int, rho: Fraction) -> bool:
        """Whether one witness shows that exponent n fails at rho and at
        every smaller radius of the ladder, as the module docstring argues:
        some complement condition fails at rho, and ``_witness`` finds a
        point against the first that does."""
        balls = self._balls(rho)
        for name, (gen, sgn, source, target, kind) in _CONDITIONS.items():
            if (kind == "complement"
                    and self._condition(rho, balls, name, n) is None):
                return _witness(self._power(gen, sgn * n), balls[source],
                                balls[target]) is not None
        return False

    def certificate(self, n: int, rho: Fraction) -> PingPongCertificate | None:
        """The certificate at exponent n and radius rho, or None."""
        rung = self._once(("rung", rho), lambda: self._rung(rho))
        if rung is None:
            return None
        balls, basepoint = rung
        conditions = []
        for name in _CONDITIONS:
            cond = self._condition(rho, balls, name, n)
            if cond is None:
                return None
            conditions.append(cond)
        return PingPongCertificate(
            exponent=n, gen_a=self.gens["A"], gen_b=self.gens["B"],
            balls=dict(balls),
            conditions=conditions, basepoint=basepoint,
            disjointness_bits=self.bits)


def certify_exponent(a: RingMat2, b: RingMat2, n: int,
                     search: _PairSearch | None = None
                     ) -> PingPongCertificate | None:
    """Certificate at the given exponent, or None; the radius ladder starts
    at a quarter of the fixed-point separation.  The walk stops early with
    None at a radius where a complement condition fails and
    ``_PairSearch.refuted`` finds a witness: no smaller radius of the
    ladder can certify the exponent, since its balls lie inside those of
    that radius.  A caller that tries several exponents of one pair passes
    them one ``_PairSearch``."""
    if n < 1:
        raise ValueError("exponent must be at least 1")
    if n > EXPONENT_CAP:
        raise ValueError(f"exponent {n} beyond cap {EXPONENT_CAP}")
    if search is None:
        search = _PairSearch(a, b)
    for rho in search.radii():
        cert = search.certificate(n, rho)
        if cert is not None or search.refuted(n, rho):
            return cert
    return None


def pingpong_exponent(a: RingMat2, b: RingMat2) -> PingPongCertificate:
    """Smallest certified exponent via doubling-then-bisection search, all of
    it on one ``_PairSearch``.  The doubling gives up past ``EXPONENT_CAP``,
    or as soon as an exponent fails while no radius is live
    (``_PairSearch.live``)."""
    search = _PairSearch(a, b)
    n = 1
    while (cert := certify_exponent(a, b, n, search)) is None:
        if not search.live():
            raise SearchOverflow("no exponent can pass: every radius fails "
                                 "a ball, region or step condition")
        n *= 2
        if n > EXPONENT_CAP:
            raise SearchOverflow(f"no certificate up to exponent {n // 2}")
    # the doubling phase already saw n // 2 fail
    lo, hi = n // 2 + 1, n
    best = cert
    while lo < hi:
        mid = (lo + hi) // 2
        c = certify_exponent(a, b, mid, search)
        if c is not None:
            best = c
            hi = mid
        else:
            lo = mid + 1
    return best


# ---------------------------------------------------------------------------
# the freeness wrapper


def free_pair_power(a: RingMat2, b: RingMat2) -> PingPongCertificate:
    """The certificate of the least exponent N such that <a^m, b^m> is free
    for all m >= N, found through the third Galois view where both
    generators act hyperbolically."""
    return pingpong_exponent(a.real_view(2), b.real_view(2))
