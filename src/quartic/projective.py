"""The ping-pong certificate search.

``pingpong_exponent`` finds the least exponent at which a hyperbolic pair
has a ping-pong certificate (``pingpong.PingPongCertificate``), and
``free_pair_power`` runs it on the pair's sigma2 views.  The search places
the balls around the exact fixed points, takes for each condition the
first dyadic region that passes the checker's region test
(``pingpong._region_ok``), and accepts the region by the checker's own
condition test (``pingpong._condition_holds``), which checks each root as
one cell.  No finer cover can do better: that test's verdict is whether
the image lies in the target ball.

The radii of the ladder are tried largest first.  When a complement
condition fails at radius rho, the search looks for one witness
(``_witness``): a dyadic slope t strictly outside the source ball whose
image under the generator power is not strictly inside the target ball.
A witness refutes the exponent at rho and at every smaller radius rho' of
the ladder.  The balls at rho' have the same centers, so they lie inside
those at rho.  The condition's removed interval at rho' lies inside the
source ball at rho' (``_region_ok``), so t lies in the region's
complement.  A passing condition maps t strictly inside the target ball
at rho', hence inside the one at rho, and t's image is not there.  The
candidates come from an integer enclosure of the source ball's ends;
every decision is a sign of the ball form (``Ball.membership_sign``).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from .eigen import eigen2, proj_dist
from .errors import (HypothesisViolated, NotHyperbolicLike, SearchOverflow,
                     UndecidedComparison)
from .extension import QuadExt
from .intervals import enc_add, enc_mul, enc_sqrt
from .linalg import MatClass, RingMat2, classify, share_eigenvector
from .pingpong import (_CONDITIONS, _IDENTITY, EXPONENT_CAP, Ball,
                       PingPongCertificate, _condition_holds, _condition_spec,
                       _image_pair, _region_ok)
from .ring import Sign


# ---------------------------------------------------------------------------
# the certificate search


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
                 if source.membership_sign(_image_pair(_IDENTITY, "s", t))
                 == Sign.POSITIVE
                 and target.membership_sign(_image_pair(m, "s", t))
                 != Sign.NEGATIVE), None)


# the factors, in the order the search tries them, by which the ball's
# slope window is scaled into a region: a removed interval shrinks inside
# the ball, an enclosing interval grows around it
_REGION_SCALES = {
    "complement": (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4),
                   Fraction(1, 8), Fraction(1, 32)),
    "interval": (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)),
}


def _search_region(ball: Ball, kind: str):
    """The region of a condition of the kind on its source ball, or None:
    the first dyadic scaling of the ball's slope window that passes the
    checker's ``_region_ok``."""
    win = _ball_slope_window(ball)
    if win is None:
        return None
    mid = (win[0] + win[1]) / 2
    half = (win[1] - win[0]) / 2
    scaled = ((_dyadic_near(mid - half * f), _dyadic_near(mid + half * f))
              for f in _REGION_SCALES[kind])
    return next((r for r in scaled if _region_ok(ball, r, kind)), None)


def _fixed_points(a: RingMat2,
                  b: RingMat2) -> dict[str, tuple[QuadExt, QuadExt]]:
    """The four ball centers by name: the generators' attracting and
    repelling eigenvector points."""
    ea = eigen2(a)
    eb = eigen2(b)
    return {"A_att": ea.vec_dominant, "A_rep": ea.vec_recessive,
            "B_att": eb.vec_dominant, "B_rep": eb.vec_recessive}


class _PairSearch:
    """The certificate search state of one hyperbolic pair (a, b).

    The pair is the generators' sigma2 views.  It checks the pair's
    hypotheses and computes each exact quantity once for every exponent and
    radius it is asked about: the fixed points (``_fixed_points``, one
    ``eigen2`` per generator, the search's own: the checker tests each
    center by its fixed-point equation), their separation, each generator
    power, and per radius the balls and each region.  A step condition
    (exponent +-1) is certified once per radius for every exponent.  A
    failed complement condition at a radius is met by one witness search
    (``refuted``), which spares the smaller radii when it finds a point
    against the condition."""

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
        self.sep = self._separation()

    def _once(self, key, compute):
        """compute() the first time key is asked for, its value after."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _separation(self) -> Fraction:
        """The least lower end of the fixed points' six pairwise chordal
        distances (``proj_dist``), at the first precision where it is
        positive.  Every ladder radius rho has 2 rho < sep, so the balls of
        each radius are disjoint."""
        pts = [self.centers[k] for k in sorted(self.centers)]
        for bits in (64, 128, 256, 512):
            try:
                sep = min(Fraction(lo, s) for lo, _, s in (
                    proj_dist(p, q, bits)
                    for i, p in enumerate(pts) for q in pts[i + 1:]))
            except UndecidedComparison:
                continue
            if sep > 0:
                return sep
        raise HypothesisViolated("fixed points too close to separate")

    def radii(self) -> list[Fraction]:
        """The radius ladder: a quarter of the fixed-point separation, as a
        dyadic, then five halvings; empty when that dyadic is zero."""
        rho = _dyadic_near(self.sep / 4)
        return [rho / 2 ** k for k in range(6)] if rho > 0 else []

    def _balls(self, rho: Fraction) -> dict[str, Ball]:
        return self._once(("balls", rho), lambda: {
            name: Ball(name, c, rho) for name, c in self.centers.items()})

    def _region(self, rho: Fraction, name: str):
        """The named condition's region on the balls of radius rho, or
        None; it does not depend on the exponent."""
        _, _, source, _, kind = _CONDITIONS[name]
        return self._once(("region", rho, name), lambda: _search_region(
            self._balls(rho)[source], kind))

    def _power(self, gen: str, expo: int) -> RingMat2:
        return self._once(("power", gen, expo),
                          lambda: self.gens[gen] ** expo)

    def _condition(self, rho: Fraction, name: str, n: int) -> bool:
        """Whether the named condition at exponent n holds on the balls of
        radius rho, by the checker's ``_condition_holds``."""
        gen, expo, _, target, kind = _condition_spec(name, n)

        def compute():
            region = self._region(rho, name)
            return region is not None and _condition_holds(
                self._power(gen, expo), region, kind,
                self._balls(rho)[target])
        return self._once(("condition", rho, name, expo), compute)

    def live(self) -> bool:
        """Whether some radius passes the parts of a certificate that no
        exponent changes: its eight regions and its four step conditions.
        Radii are checked in ladder order, up to a live one."""
        return any(all(self._condition(rho, name, 1) if kind == "interval"
                       else self._region(rho, name) is not None
                       for name, (*_, kind) in _CONDITIONS.items())
                   for rho in self.radii())

    def refuted(self, n: int, rho: Fraction) -> bool:
        """Whether one witness shows that exponent n fails at rho and at
        every smaller radius of the ladder, as the module docstring argues:
        some complement condition fails at rho, and ``_witness`` finds a
        point against the first that does."""
        balls = self._balls(rho)
        for name, (gen, sgn, source, target, kind) in _CONDITIONS.items():
            if kind == "complement" and not self._condition(rho, name, n):
                return _witness(self._power(gen, sgn * n), balls[source],
                                balls[target]) is not None
        return False

    def certificate(self, n: int, rho: Fraction) -> PingPongCertificate | None:
        """The certificate at exponent n and radius rho, or None."""
        if not all(self._condition(rho, name, n) for name in _CONDITIONS):
            return None
        return PingPongCertificate(
            exponent=n, gen_a=self.gens["A"], gen_b=self.gens["B"],
            balls=dict(self._balls(rho)),
            regions={name: self._region(rho, name) for name in _CONDITIONS})


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
    return pingpong_exponent(a.real_view(), b.real_view())
