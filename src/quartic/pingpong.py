"""Ping-pong certificates, their wire format and the standalone checker.

A certificate holds only what the proof needs: two generators, an exponent
N, four chordal balls around the generators' fixed points and, by name,
the region of each of eight mapping conditions, an interval (lo, hi) of
the slope chart.  The name fixes the rest (``_CONDITIONS``): the
generator, the exponent (+-N for a complement condition, which maps the
complement of its removed interval, +-1 for a step condition, which maps
its enclosing interval), the source and target balls and the region kind.

The checker derives everything else.  The complement of a removed
interval is three roots, [hi, K] and [-K, lo] in the slope chart and
[-1/K, 1/K] in the inverse chart, for K = max(|lo|, |hi|); a step region
is one root.  Each root is checked as one cell, in the first chart where
the target ball is an interval: its image has no pole there and both end
images lie strictly inside the ball (``Ball.membership_sign`` signs int
4-tuple points exactly).  The test is complete.  An image inside the ball
misses that chart's point at infinity, which lies outside the ball, so it
has no pole; an image with no pole and both ends inside is the segment
between them, which the ball holds.  So the verdict is "the image lies in
the ball", whatever cover or K another checker might use.  The balls are
open and pairwise disjoint, decided exactly (``_disjoint``), so no
basepoint is named: four disjoint open arcs cannot cover the connected
projective line.

The checker computes no eigenvector: it tests each named center against
its generator by the fixed-point equation and the sign that tells an
attracting point from a repelling one, in exact ``QuadExt`` arithmetic
(``_is_center``).

``verify_certificate`` re-validates a certificate from its data alone.
This module and what it imports are the checker's whole trusted base;
nothing here imports the search in ``projective``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .extension import QuadExt, surd_form, surd_sign
from .linalg import MatClass, RingMat2, classify, parse_matrix
from .record import Record
from .ring import ONE, QuarticElem, Sign, mul4, sign4


# the largest exponent the search tries and the checker accepts: the cost of
# building A^N and B^N grows about as N^1.6
EXPONENT_CAP = 1 << 16


# ---------------------------------------------------------------------------
# the certificate and its wire format


class Ball(Record, frozen=True):
    """Chordal ball with an exact center on the projective line.

    With cross = p1 c2 - p2 c1 and |c|^2 = c1^2 + c2^2, a point p lies
    strictly inside iff cross^2 - r^2 |p|^2 |c|^2 < 0.  That value is the
    binary quadratic form A p1^2 + B p1 p2 + C p2^2 for A = c2^2 - r^2 |c|^2,
    B = -2 c1 c2 and C = c1^2 - r^2 |c|^2, built once here from the center
    and radius alone, as ints (``surd_form``).  The search and the checker
    both sign with it."""

    name: str
    center: tuple[QuadExt, QuadExt]
    radius: Fraction

    def __post_init__(self):
        c1, c2 = self.center
        c11, c22 = c1 * c1, c2 * c2
        r2c2 = (c11 + c22) * QuarticElem(self.radius * self.radius)
        form = (c22 - r2c2, c1 * c2 * QuarticElem(-2), c11 - r2c2)
        a, b, d_num, d_den = surd_form([f.a for f in form],
                                       [f.b for f in form], c1.d)
        object.__setattr__(self, "_form", (a, b, d_num, d_den))
        # the charts' points at infinity are (1, 0) for u and (0, 1) for s
        object.__setattr__(self, "_excludes", {
            chart: surd_sign(a[i], b[i], d_num, d_den) == Sign.POSITIVE
            for chart, i in (("u", 0), ("s", 2))})

    def membership_sign(self, point: tuple[tuple, tuple]) -> Sign:
        """Sign of chordal(p, c)^2 - r^2 at a base-field point p given as
        two int 4-tuples, scaled by any nonzero factor (the form is
        quadratic): NEGATIVE means strictly inside."""
        p1, p2 = point
        xyz = (mul4(p1, p1), mul4(p1, p2), mul4(p2, p2))
        a, b, d_num, d_den = self._form
        return surd_sign(_form_at(a, xyz), _form_at(b, xyz), d_num, d_den)

    def excludes_chart_infinity(self, chart: str) -> bool:
        return self._excludes[chart]

    def to_json(self) -> dict:
        c1, c2 = self.center
        return {
            "name": self.name,
            "center": {
                "v1": {"a": c1.a.to_text(), "b": c1.b.to_text()},
                "v2": {"a": c2.a.to_text(), "b": c2.b.to_text()},
                "d": c1.d.to_text(),
            },
            "radius": str(self.radius),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Ball":
        center = obj["center"]
        d = QuarticElem.parse(_text(center["d"]))
        c1, c2 = (QuadExt(QuarticElem.parse(_text(center[v]["a"])),
                          QuarticElem.parse(_text(center[v]["b"])), d)
                  for v in ("v1", "v2"))
        return cls(_text(obj["name"]), (c1, c2),
                   Fraction(_text(obj["radius"])))


def _text(leaf) -> str:
    """A leaf that ``to_json`` writes as a string; anything else raises
    ``ValueError``, not read as another value (a float radius as its
    nearest double)."""
    if not isinstance(leaf, str):
        raise ValueError(f"expected a string, got {leaf!r}")
    return leaf


def _form_at(f: tuple, xyz: tuple) -> tuple:
    """f0 x + f1 y + f2 z for int 4-tuples."""
    (u0, u1, u2, u3), (v0, v1, v2, v3), (w0, w1, w2, w3) = map(mul4, f, xyz)
    return u0 + v0 + w0, u1 + v1 + w1, u2 + v2 + w2, u3 + v3 + w3


def _image_pair(m: RingMat2, chart: str, t: Fraction) -> tuple[tuple, tuple]:
    """m applied to the chart's point at t, (1, t) in chart s and (t, 1) in
    chart u, as two int 4-tuples: the image times the positive factor of
    t's denominator and m's."""
    v1, v2 = ((t.denominator, t.numerator) if chart == "s"
              else (t.numerator, t.denominator))
    e11, e12, e21, e22 = m._m
    return (tuple([x * v1 + y * v2 for x, y in zip(e11, e12)]),
            tuple([x * v1 + y * v2 for x, y in zip(e21, e22)]))


_IDENTITY = RingMat2.identity()


class PingPongCertificate(Record):
    """Finite data certifying that <A^m, B^k> is free and discrete for all
    m, k >= exponent: each condition's region by name."""

    exponent: int
    gen_a: RingMat2
    gen_b: RingMat2
    balls: dict[str, Ball]
    regions: dict[str, tuple[Fraction, Fraction]]

    def to_json(self) -> dict:
        return {
            "N": self.exponent,
            "generator_a": self.gen_a.to_text(),
            "generator_b": self.gen_b.to_text(),
            "balls": [self.balls[k].to_json() for k in sorted(self.balls)],
            "regions": {name: [str(lo), str(hi)]
                        for name, (lo, hi) in self.regions.items()},
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=False)

    @classmethod
    def from_json(cls, obj: dict) -> "PingPongCertificate":
        """The certificate ``to_json`` wrote: N an int, every other leaf a
        string, the balls a list of objects with distinct names and each
        region a pair.  A leaf of another type, a container of another
        shape or a ball listed twice raises ``ValueError``."""
        n, balls, regions = obj["N"], obj["balls"], obj["regions"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"N must be an integer, got {n!r}")
        if not (isinstance(balls, list)
                and all(isinstance(b, dict) for b in balls)):
            raise ValueError("balls must be a list of ball objects")
        by_name = {b.name: b for b in map(Ball.from_json, balls)}
        if len(by_name) != len(balls):
            raise ValueError("a ball name is listed twice")
        if not (isinstance(regions, dict) and all(
                isinstance(r, list) and len(r) == 2 for r in regions.values())):
            raise ValueError("regions must map names to pairs [lo, hi]")
        return cls(
            exponent=n,
            gen_a=parse_matrix(_text(obj["generator_a"])),
            gen_b=parse_matrix(_text(obj["generator_b"])),
            balls=by_name,
            regions={name: (Fraction(_text(lo)), Fraction(_text(hi)))
                     for name, (lo, hi) in regions.items()},
        )


# ---------------------------------------------------------------------------
# the checks


def _pole_free(m: RingMat2, chart: str, lo: Fraction, hi: Fraction,
               target_chart: str) -> bool:
    """The image of the chart's interval [lo, hi] misses the target chart's
    point at infinity: the image coordinate that is that chart's
    denominator (the first for s, the second for u) has one nonzero sign
    at both ends.  That coordinate is linear in the parameter, and the
    scale of ``_image_pair`` is positive, so the signs are its own."""
    i = 0 if target_chart == "s" else 1
    s_lo, s_hi = (sign4(_image_pair(m, chart, t)[i]) for t in (lo, hi))
    return s_lo != 0 and s_lo == s_hi


def _roots(region: tuple[Fraction, Fraction],
           kind: str) -> list[tuple[str, Fraction, Fraction]]:
    """The intervals (chart, lo, hi) a condition maps: for a removed
    interval (lo, hi) and K = max(|lo|, |hi|), [hi, K] and [-K, lo] in
    chart s and [-1/K, 1/K] in chart u; for a step interval, [lo, hi] in
    chart s."""
    lo, hi = region
    if kind != "complement":
        return [("s", lo, hi)]
    k = max(abs(lo), abs(hi))
    return [("s", hi, k), ("s", -k, lo), ("u", -1 / k, 1 / k)]


def _root_holds(m: RingMat2, root: tuple[str, Fraction, Fraction],
                ball: Ball) -> bool:
    """m maps the root (chart, lo, hi) strictly inside the ball: in the
    first chart where the ball is an interval, the root's image has no pole
    and both its end images lie inside."""
    chart, lo, hi = root
    target = next((c for c in "su" if ball.excludes_chart_infinity(c)), None)
    return (target is not None and _pole_free(m, chart, lo, hi, target)
            and all(ball.membership_sign(_image_pair(m, chart, t))
                    == Sign.NEGATIVE for t in (lo, hi)))


def _condition_holds(m: RingMat2, region: tuple[Fraction, Fraction],
                     kind: str, ball: Ball) -> bool:
    """m maps each root of the region strictly inside the ball."""
    return all(_root_holds(m, root, ball) for root in _roots(region, kind))


def _is_center(g: RingMat2, c: tuple[QuadExt, QuadExt],
               attracting: bool) -> bool:
    """c is g's attracting (or repelling) fixed point: both coordinates lie
    over g's trace discriminant t^2 - 4, g c ^ c = 0, so g c = lambda c, and
    at c's first nonzero coordinate (g c)_i^2 - c_i^2 = (lambda^2 - 1) c_i^2
    is positive (negative); it is zero for c = (0, 0), which fails."""
    e11, e12, e21, e22 = g.entries()
    t = e11 + e22
    c1, c2 = c
    # a center over another extension is rejected before any arithmetic
    ok = c1.d == c2.d == t * t - QuarticElem(4)
    if ok:
        g1, g2 = e11 * c1 + e12 * c2, e21 * c1 + e22 * c2
        ci, gi = (c2, g2) if c1.is_zero() else (c1, g1)
        want = Sign.POSITIVE if attracting else Sign.NEGATIVE
        ok = ((g1 * c2 - g2 * c1).is_zero()
              and (gi * gi - ci * ci).sign() == want)
    return ok


def _disjoint(b1: Ball, b2: Ball) -> bool:
    """chordal(p, q) > r1 + r2 for the centers p and q, decided exactly.
    With q_i = x_i + y_i sqrt(e), cross = p1 q2 - p2 q1 and R = r1 + r2,
    the value cross^2 - R^2 |p|^2 |q|^2 is S + T sqrt(e) for S and T over
    p's extension.  It is positive when neither part is negative and one is
    positive, or when the parts differ in sign and S^2 - T^2 e has the
    sign of S."""
    (p1, p2), (q1, q2) = b1.center, b2.center
    e = q1.d
    c0, c1 = p1 * q2.a - p2 * q1.a, p1 * q2.b - p2 * q1.b
    rp = (p1 * p1 + p2 * p2) * QuarticElem((b1.radius + b2.radius) ** 2)
    s = c0 * c0 + c1 * c1 * e - rp * (q1.a * q1.a + q2.a * q2.a
                                      + (q1.b * q1.b + q2.b * q2.b) * e)
    t = (c0 * c1 - rp * (q1.a * q1.b + q2.a * q2.b)) * 2
    s_s, s_t = s.sign(), t.sign()
    if s_s * s_t >= 0:
        return s_s + s_t > 0
    return (s * s - t * t * e).sign() == s_s


def _region_ok(ball: Ball, region: tuple[Fraction, Fraction],
               kind: str) -> bool:
    """The region is a nonempty interval lo < hi of the slope chart: a
    "complement" region (the removed interval) lies strictly inside the
    ball, an "interval" region strictly contains it, the center between its
    ends.  Both reason about the ball as a slope-chart interval."""
    if not (region[0] < region[1] and ball.excludes_chart_infinity("s")):
        return False
    want = Sign.NEGATIVE if kind == "complement" else Sign.POSITIVE
    if any(ball.membership_sign(_image_pair(_IDENTITY, "s", t)) != want
           for t in region):
        return False
    if kind == "complement":
        return True
    c1, c2 = ball.center
    s_lo, s_hi = ((c2 - c1 * QuarticElem(t)).sign() for t in region)
    return s_lo != s_hi and Sign.ZERO not in (s_lo, s_hi)


# the balls by name: each generator's attracting and repelling fixed point
_BALLS = ("A_att", "A_rep", "B_att", "B_rep")

# Every ping-pong condition, by name: generator, exponent sign, source ball,
# target ball and region kind.  A "complement" condition maps the
# complement of its source ball with exponent +-N; an "interval" (step)
# condition maps the source ball into itself with exponent +-1.
_CONDITIONS = {
    "A_pos": ("A", 1, "A_rep", "A_att", "complement"),
    "A_neg": ("A", -1, "A_att", "A_rep", "complement"),
    "B_pos": ("B", 1, "B_rep", "B_att", "complement"),
    "B_neg": ("B", -1, "B_att", "B_rep", "complement"),
    "A_att_step": ("A", 1, "A_att", "A_att", "interval"),
    "A_rep_step": ("A", -1, "A_rep", "A_rep", "interval"),
    "B_att_step": ("B", 1, "B_att", "B_att", "interval"),
    "B_rep_step": ("B", -1, "B_rep", "B_rep", "interval"),
}


def _condition_spec(name: str, n: int) -> tuple[str, int, str, str, str]:
    """(generator, signed exponent, source, target, region kind) of a name."""
    gen, sgn, source, target, kind = _CONDITIONS[name]
    return gen, sgn * (n if kind == "complement" else 1), source, target, kind


def verify_certificate(cert: PingPongCertificate) -> tuple[bool, list[str]]:
    """Standalone re-validation from the certificate data alone.  Total on
    ``PingPongCertificate.from_json`` output: a malformed certificate gets
    (False, problems), never an exception.  The disjointness and region
    checks run only on four balls whose centers passed ``_is_center``, so
    each lies over a hyperbolic generator's t^2 - 4, which is positive."""
    problems: list[str] = []
    a, b = cert.gen_a, cert.gen_b
    for label, g in (("generator_a", a), ("generator_b", b)):
        if g.det() != ONE or classify(g, 0) != MatClass.HYPERBOLIC:
            problems.append(f"{label} is not hyperbolic with determinant one")
    if cert.exponent < 1:
        problems.append(f"exponent {cert.exponent} is below 1")
    if cert.exponent > EXPONENT_CAP:
        problems.append(f"exponent {cert.exponent} beyond cap {EXPONENT_CAP}")
    if problems:
        return False, problems
    for name, ball in cert.balls.items():
        if name not in _BALLS:
            problems.append(f"unknown ball {name}")
            continue
        if not _is_center(a if name[0] == "A" else b, ball.center,
                          name.endswith("_att")):
            problems.append(f"ball {name} center is not the eigenvector point")
        if ball.radius <= 0:
            problems.append(f"ball {name} has nonpositive radius")
    missing_balls = sorted(set(_BALLS) - set(cert.balls))
    if missing_balls:
        problems.append(f"balls missing: {missing_balls}")
    if problems:
        return False, problems
    names = sorted(cert.balls)
    if not all(_disjoint(cert.balls[n1], cert.balls[n2])
               for i, n1 in enumerate(names) for n2 in names[i + 1:]):
        problems.append("balls are not certified pairwise disjoint")
    missing = sorted(set(_CONDITIONS) - set(cert.regions))
    if missing:
        problems.append(f"conditions missing: {missing}")
    for name, region in cert.regions.items():
        if name not in _CONDITIONS:
            problems.append(f"unknown condition {name}")
            continue
        gen, expo, source, target, kind = _condition_spec(name, cert.exponent)
        if not _region_ok(cert.balls[source], region, kind):
            problems.append(f"{name}: region/ball relation fails")
            continue
        m = (a if gen == "A" else b) ** expo
        if not _condition_holds(m, region, kind, cert.balls[target]):
            problems.append(f"{name}: image is not certified inside {target}")
    return (not problems), problems
