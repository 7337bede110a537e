"""Ping-pong certificates, their wire format and the standalone checker.

A certificate names two generators, an exponent N, four chordal balls
around the generators' fixed points, a basepoint and, for each of eight
mapping conditions, a region and a rational cover of its roots: the
complement of a removed interval as two slope-chart intervals and one
interval of the inverse chart, or a step interval.  A cell holds when its
image has no pole in a chart where the target ball is an interval and both
end images lie strictly inside the ball; the ball form
(``Ball.membership_sign``) signs int 4-tuple points exactly.

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

from .errors import DimensionMismatch, InternalMismatch, UndecidedComparison
from .extension import QuadExt, surd_form, surd_sign
from .intervals import DEFAULT_BITS, Enclosure, enc_add, enc_div, enc_mul, enc_sqrt
from .linalg import MatClass, RingMat2, classify, parse_matrix
from .record import Record
from .ring import ONE, QuarticElem, Sign, mul4, sign4


# ---------------------------------------------------------------------------
# projective points


# the most bits a chordal distance enclosure is refined to; a certificate
# may not ask the checker for more
_MAX_BITS = 4096

# the largest exponent the search tries and the checker accepts: the cost of
# building A^N and B^N grows about as N^1.6
EXPONENT_CAP = 1 << 16


def proj_dist(p: tuple, q: tuple, bits: int = DEFAULT_BITS) -> Enclosure:
    """Chordal distance |p ^ q| / (|p| |q|) as a validated enclosure.

    The squared distance is computed exactly whenever the coordinates live
    in a common extension, so equality gives an exact zero; otherwise the
    enclosure is refined until it is informative.
    """
    if len(p) != len(q):
        raise DimensionMismatch(f"{len(p)} vs {len(q)}")
    try:
        dot = None
        p2 = None
        q2 = None
        for x, y in zip(p, q):
            dot = x * y if dot is None else dot + x * y
            p2 = x * x if p2 is None else p2 + x * x
            q2 = y * y if q2 is None else q2 + y * y
        num = p2 * q2 - dot * dot       # |p|^2 |q|^2 - (p.q)^2, exact
        if num.sign() == Sign.ZERO:
            return 0, 0, 1
        b = bits
        while True:
            iv_num = num.interval(b)
            iv_den = (p2 * q2).interval(b)
            if iv_num[0] >= 0 and iv_den[0] > 0:
                lo, hi, s = enc_div(iv_num, iv_den)
                return enc_sqrt((lo, min(s, hi), s), b)
            if b >= _MAX_BITS:
                raise UndecidedComparison("chordal distance enclosure stalled")
            b *= 2
    except InternalMismatch:
        # coordinates live in two different extensions: enclosures only
        return _proj_dist_intervals(p, q, bits)


def _proj_dist_intervals(p: tuple, q: tuple, bits: int) -> Enclosure:
    b = bits
    while True:
        pc = [c.interval(b) for c in p]
        qc = [c.interval(b) for c in q]
        dot = enc_mul(pc[0], qc[0])
        p2 = enc_mul(pc[0], pc[0])
        q2 = enc_mul(qc[0], qc[0])
        for i in range(1, len(p)):
            dot = enc_add(dot, enc_mul(pc[i], qc[i]))
            p2 = enc_add(p2, enc_mul(pc[i], pc[i]))
            q2 = enc_add(q2, enc_mul(qc[i], qc[i]))
        den = enc_mul(p2, q2)
        dot_lo, dot_hi, t = enc_mul(dot, dot)
        num = enc_add(den, (-dot_hi, -dot_lo, t))
        if den[0] > 0:
            lo, hi, s = enc_div(num, den)
            return enc_sqrt((max(0, lo), min(s, max(0, hi)), s), b)
        if b >= _MAX_BITS:
            raise UndecidedComparison("coordinate intervals too coarse")
        b *= 2


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
        d = QuarticElem.parse(obj["center"]["d"])
        c1 = QuadExt(QuarticElem.parse(obj["center"]["v1"]["a"]),
                     QuarticElem.parse(obj["center"]["v1"]["b"]), d)
        c2 = QuadExt(QuarticElem.parse(obj["center"]["v2"]["a"]),
                     QuarticElem.parse(obj["center"]["v2"]["b"]), d)
        return cls(obj["name"], (c1, c2), Fraction(obj["radius"]))


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


class Cell(Record):
    chart: str
    lo: Fraction
    hi: Fraction
    target_chart: str = ""

    def to_json(self) -> dict:
        return {"chart": self.chart, "lo": str(self.lo), "hi": str(self.hi),
                "target_chart": self.target_chart}

    @classmethod
    def from_json(cls, obj: dict) -> "Cell":
        return cls(obj["chart"], Fraction(obj["lo"]), Fraction(obj["hi"]),
                   obj.get("target_chart", ""))


class MappingCondition(Record):
    name: str
    generator: str                     # "A" or "B"
    exponent: int
    region: tuple[Fraction, Fraction]  # removed or enclosing interval in chart s
    region_kind: str                   # "complement" or "interval"
    outer: Fraction                    # K for complement coverage
    target: str                        # ball name
    cells: list[Cell] = []

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "generator": self.generator,
            "exponent": self.exponent,
            "region": [str(self.region[0]), str(self.region[1])],
            "region_kind": self.region_kind,
            "outer": str(self.outer),
            "target": self.target,
            "cells": [c.to_json() for c in self.cells],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MappingCondition":
        return cls(
            name=obj["name"],
            generator=obj["generator"],
            exponent=int(obj["exponent"]),
            region=(Fraction(obj["region"][0]), Fraction(obj["region"][1])),
            region_kind=obj["region_kind"],
            outer=Fraction(obj["outer"]),
            target=obj["target"],
            cells=[Cell.from_json(c) for c in obj["cells"]],
        )


class PingPongCertificate(Record):
    """Finite data certifying that <A^m, B^k> is free and discrete for all
    m, k >= exponent."""

    exponent: int
    gen_a: RingMat2
    gen_b: RingMat2
    balls: dict[str, Ball]
    conditions: list[MappingCondition]
    basepoint: Fraction
    disjointness_bits: int

    def to_json(self) -> dict:
        return {
            "N": self.exponent,
            "generator_a": self.gen_a.to_text(),
            "generator_b": self.gen_b.to_text(),
            "balls": [self.balls[k].to_json() for k in sorted(self.balls)],
            "basepoint": str(self.basepoint),
            "disjointness_bits": self.disjointness_bits,
            "checked_conditions": [c.to_json() for c in self.conditions],
            "cover_cells": sum(len(c.cells) for c in self.conditions),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=False)

    @classmethod
    def from_json(cls, obj: dict) -> "PingPongCertificate":
        balls = {b["name"]: Ball.from_json(b) for b in obj["balls"]}
        return cls(
            exponent=int(obj["N"]),
            gen_a=parse_matrix(obj["generator_a"]),
            gen_b=parse_matrix(obj["generator_b"]),
            balls=balls,
            conditions=[MappingCondition.from_json(c)
                        for c in obj["checked_conditions"]],
            basepoint=Fraction(obj["basepoint"]),
            disjointness_bits=int(obj["disjointness_bits"]),
        )


# ---------------------------------------------------------------------------
# the checks


def _cell_pole_free(m: RingMat2, cell: Cell, target_chart: str) -> bool:
    """The cell's image misses the target chart's point at infinity: the
    image coordinate that is that chart's denominator (the first for s, the
    second for u) has one nonzero sign at both ends.  That coordinate is
    linear in the cell's parameter, and the scale of ``_image_pair`` is
    positive, so the signs are its own."""
    i = 0 if target_chart == "s" else 1
    s_lo, s_hi = (sign4(_image_pair(m, cell.chart, t)[i])
                  for t in (cell.lo, cell.hi))
    return s_lo != 0 and s_lo == s_hi


def _recheck_cell(m: RingMat2, cell: Cell, ball: Ball) -> bool:
    """The cell's image lies strictly inside the ball: it has no pole in its
    target chart, where the ball is an interval, and both end images lie
    inside."""
    return (cell.target_chart in ("s", "u")
            and ball.excludes_chart_infinity(cell.target_chart)
            and _cell_pole_free(m, cell, cell.target_chart)
            and all(ball.membership_sign(_image_pair(m, cell.chart, t))
                    == Sign.NEGATIVE for t in (cell.lo, cell.hi)))


def _cells_tile(cells: list[Cell], root: Cell) -> bool:
    """The cells, sorted, chain from the root's lo end to its hi end."""
    parts = sorted((c.lo, c.hi) for c in cells)
    return [root.lo] + [b for _, b in parts] == [a for a, _ in parts] + [root.hi]


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


def _balls_disjoint(balls: dict[str, Ball], bits: int) -> bool:
    names = sorted(balls)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            b1, b2 = balls[n1], balls[n2]
            lo, _, s = proj_dist(b1.center, b2.center, bits)
            if not lo > (b1.radius + b2.radius) * s:
                return False
    return True


def _point_outside_all(t: Fraction, balls: dict[str, Ball]) -> bool:
    pt = _image_pair(_IDENTITY, "s", t)
    return all(b.membership_sign(pt) == Sign.POSITIVE for b in balls.values())


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


def _roots(cond: MappingCondition) -> list[Cell]:
    """The intervals the condition's cells must tile: for a removed
    interval (lo, hi) and outer bound K, [hi, K] and [-K, lo] in chart s and
    [-1/K, 1/K] in chart u; for a step interval, [lo, hi] in chart s."""
    lo, hi = cond.region
    if cond.region_kind != "complement":
        return [Cell("s", lo, hi)]
    inv = 1 / cond.outer
    return [Cell("s", hi, cond.outer), Cell("s", -cond.outer, lo),
            Cell("u", -inv, inv)]


def _recheck_condition(m: RingMat2, cond: MappingCondition,
                       balls: dict[str, Ball]) -> bool:
    """A complement's outer bound reaches past its removed interval, each
    cell lies in exactly one root of its chart, each root's cells tile it,
    and each cell passes ``_recheck_cell``."""
    lo, hi = cond.region
    if cond.region_kind == "complement" and cond.outer < max(abs(lo), abs(hi)):
        return False
    roots = _roots(cond)
    tiles = [[] for _ in roots]
    for c in cond.cells:
        homes = [i for i, r in enumerate(roots)
                 if r.chart == c.chart and r.lo <= c.lo and c.hi <= r.hi]
        if len(homes) != 1:
            return False
        tiles[homes[0]].append(c)
    if not all(_cells_tile(t, r) for t, r in zip(tiles, roots)):
        return False
    return all(_recheck_cell(m, c, balls[cond.target]) for c in cond.cells)


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
    (False, problems), never an exception."""
    problems: list[str] = []
    a, b = cert.gen_a, cert.gen_b
    for label, g in (("generator_a", a), ("generator_b", b)):
        if g.det() != ONE or classify(g, 0) != MatClass.HYPERBOLIC:
            problems.append(f"{label} is not hyperbolic with determinant one")
    if cert.exponent < 1:
        problems.append(f"exponent {cert.exponent} is below 1")
    if cert.exponent > EXPONENT_CAP:
        problems.append(f"exponent {cert.exponent} beyond cap {EXPONENT_CAP}")
    if not 1 <= cert.disjointness_bits <= _MAX_BITS:
        problems.append(f"disjointness_bits {cert.disjointness_bits} outside "
                        f"1..{_MAX_BITS}")
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
    if not _balls_disjoint(cert.balls, cert.disjointness_bits):
        problems.append("balls are not certified pairwise disjoint")
    if not _point_outside_all(cert.basepoint, cert.balls):
        problems.append("basepoint is not outside every ball")
    missing_balls = sorted(set(_BALLS) - set(cert.balls))
    if missing_balls:
        problems.append(f"balls missing: {missing_balls}")
        return False, problems
    names = [c.name for c in cert.conditions]
    missing = sorted(set(_CONDITIONS) - set(names))
    if missing:
        problems.append(f"conditions missing: {missing}")
    for name in sorted(set(names)):
        if names.count(name) > 1:
            problems.append(f"{name}: listed {names.count(name)} times")
    for cond in cert.conditions:
        if cond.name not in _CONDITIONS:
            problems.append(f"unknown condition {cond.name}")
            continue
        gen, expo, source, target, kind = _condition_spec(cond.name, cert.exponent)
        wrong = [f"{key} {got}, expected {want}" for key, got, want in (
            ("generator", cond.generator, gen), ("exponent", cond.exponent, expo),
            ("region kind", cond.region_kind, kind), ("target", cond.target, target),
        ) if got != want]
        if wrong:
            problems.append(f"{cond.name}: {'; '.join(wrong)}")
            continue
        if cond.outer <= 0:
            problems.append(f"{cond.name}: outer bound {cond.outer} is not "
                            "positive")
            continue
        if not _region_ok(cert.balls[source], cond.region, kind):
            problems.append(f"{cond.name}: region/ball relation fails")
            continue
        m = (a if gen == "A" else b) ** expo
        if not _recheck_condition(m, cond, cert.balls):
            problems.append(f"{cond.name}: cell verification fails")
    return (not problems), problems
