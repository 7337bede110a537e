"""Projective-line dynamics and ping-pong certificates.

Dominance analysis works per 2x2 embedded block: equal extreme moduli are
detected exactly through the invariant u = |lambda|^2 + |lambda|^-2, so a
double maximal eigenvalue is a symbolic verdict, not a numerical one.

Ping-pong certificates are fully exact.  Balls are chordal-metric balls
around the exact eigenvector points.  A condition's roots are the rational
intervals its cover must tile: the complement of a removed interval as two
slope-chart intervals and one interval of the inverse chart, or a step
interval.  The search covers each root with one cell and accepts the cover
by the checker's own test (``_recheck_condition``): a cell holds when its
image has no pole in a chart where the target ball is an interval and both
end images lie strictly inside the ball.  Points are int 4-tuple pairs up
to a positive scale, and the ball form (``Ball.membership_sign``) signs them
exactly.  No cell is bisected: a root with a pole in every chart where the
ball is convex maps one parameter onto that chart's point at infinity,
which lies outside the ball, so every leaf that contains it would have an
end outside the ball.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InternalMismatch,
    NotHyperbolicLike,
    SearchOverflow,
    SingularMatrix,
    UndecidedComparison,
)
from .extension import QuadExt, surd_form, surd_sign
from .intervals import DEFAULT_BITS, Enclosure, enc_add, enc_div, enc_mul, enc_sqrt
from .linalg import (
    BlockEig,
    MatClass,
    RegularRep,
    RingMat2,
    _eigvec_pair,
    block_eig,
    classify,
    compare_u,
    eigen2,
    share_eigenvector,
)
from .record import Record
from .ring import ONE, ZERO, QuarticElem, Sign, mul4, sign4


# ---------------------------------------------------------------------------
# projective points


class ProjPoint(Record, frozen=True):
    """Point of real projective space in homogeneous coordinates.

    Coordinates are exact field values (QuarticElem or QuadExt).  Equality
    of two points over the same extension is an exact cross-product test.
    """

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise ValueError("empty coordinate tuple")

    @property
    def dim(self) -> int:
        return len(self.coords)


def _as_ext_parts(x) -> tuple[QuarticElem, QuarticElem, QuarticElem | None]:
    """(a, b, d) for a value a + b sqrt(d); base values carry d = None."""
    if isinstance(x, QuadExt):
        if x.b.is_zero():
            return x.a, ZERO, None
        return x.a, x.b, x.d
    return x, ZERO, None


def _cross_is_zero(pi, qj, pj, qi) -> bool:
    """Exact vanishing of pi*qj - pj*qi where the p and q coordinates may
    live in two different quadratic extensions of the base field.

    The cross expands to X + sqrt(d2) * Y with X, Y in the p-extension;
    it vanishes iff X^2 = d2 * Y^2 with opposite signs on X and Y.
    """
    a_i, b_i, d1_i = _as_ext_parts(pi)
    a_j, b_j, d1_j = _as_ext_parts(pj)
    c_j, e_j, d2_j = _as_ext_parts(qj)
    c_i, e_i, d2_i = _as_ext_parts(qi)
    d1 = d1_i if d1_i is not None else d1_j
    d2 = d2_j if d2_j is not None else d2_i
    if d1_i is not None and d1_j is not None and d1_i != d1_j:
        raise InternalMismatch("point coordinates in two different extensions")
    if d2_i is not None and d2_j is not None and d2_i != d2_j:
        raise InternalMismatch("point coordinates in two different extensions")
    # components of the cross over {1, sqrt d1, sqrt d2, sqrt d1 sqrt d2}
    comp_a = a_i * c_j - a_j * c_i
    comp_b = b_i * c_j - b_j * c_i
    comp_c = a_i * e_j - a_j * e_i
    comp_d = b_i * e_j - b_j * e_i
    if d1 is None:
        d1 = ZERO
    if d2 is None:
        d2 = ZERO
    x = QuadExt(comp_a, comp_b, d1)
    y = QuadExt(comp_c, comp_d, d1)
    if d2.is_zero():
        return x.is_zero()
    if not (x * x == y * y * QuadExt.of_base(d2, d1)):
        return False
    sx = x.sign()
    sy = y.sign()
    if sx == Sign.ZERO and sy == Sign.ZERO:
        return True
    return sx != sy and Sign.ZERO not in (sx, sy)


def proj_equal(p: ProjPoint, q: ProjPoint) -> bool:
    """Exact proportionality test; handles coordinates living in two
    different quadratic extensions of the base field."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} vs {q.dim}")
    n = p.dim
    for i in range(n):
        for j in range(i + 1, n):
            if not _cross_is_zero(p.coords[i], q.coords[j],
                                  p.coords[j], q.coords[i]):
                return False
    return True


# the most bits a chordal distance enclosure is refined to; a certificate
# may not ask the checker for more
_MAX_BITS = 4096


def proj_dist(p: ProjPoint, q: ProjPoint,
              bits: int = DEFAULT_BITS) -> Enclosure:
    """Chordal distance |p ^ q| / (|p| |q|) as a validated enclosure.

    The squared distance is computed exactly whenever the coordinates live
    in a common extension, so equality gives an exact zero; otherwise the
    enclosure is refined until it is informative.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"{p.dim} vs {q.dim}")
    try:
        dot = None
        p2 = None
        q2 = None
        for i in range(p.dim):
            dot = p.coords[i] * q.coords[i] if dot is None else dot + p.coords[i] * q.coords[i]
            p2 = p.coords[i] * p.coords[i] if p2 is None else p2 + p.coords[i] * p.coords[i]
            q2 = q.coords[i] * q.coords[i] if q2 is None else q2 + q.coords[i] * q.coords[i]
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


def _proj_dist_intervals(p: ProjPoint, q: ProjPoint, bits: int) -> Enclosure:
    b = bits
    while True:
        pc = [c.interval(b) for c in p.coords]
        qc = [c.interval(b) for c in q.coords]
        dot = enc_mul(pc[0], qc[0])
        p2 = enc_mul(pc[0], pc[0])
        q2 = enc_mul(qc[0], qc[0])
        for i in range(1, p.dim):
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
# dominance analysis


class DominantRecord(Record):
    """A certified dominant eigenvalue: real, simple, strictly extreme."""

    value: QuadExt
    block_k: int


class DominanceAnalysis(Record):
    record: DominantRecord | None
    reason: str
    blocks: list[BlockEig] = []


def _blocks_of(m) -> tuple[list[BlockEig], RingMat2]:
    if isinstance(m, RegularRep):
        src = m.source
        if not isinstance(src, RingMat2):
            raise ValueError(
                "dominance analysis needs the 2x2 source of the representation")
        if m.kappa == 4:
            return [block_eig(src, k) for k in range(4)], src
        if m.kappa == 2:
            return [block_eig(src, k) for k in (0, 2)], src
        raise ValueError("dominance analysis supports kappa 2 and 4")
    if isinstance(m, RingMat2):
        return [block_eig(m, 0)], m
    raise TypeError(f"unsupported input {type(m).__name__}")


def analyze_dominance(m) -> DominanceAnalysis:
    blocks, src = _blocks_of(m)
    best = [blocks[0]]
    for blk in blocks[1:]:
        s = compare_u(blk, best[0])
        if s == Sign.POSITIVE:
            best = [blk]
        elif s == Sign.ZERO:
            best.append(blk)
    if len(best) > 1:
        return DominanceAnalysis(None, "double maximal eigenvalue", blocks)
    top = best[0]
    if top.mat_class in (MatClass.ELLIPTIC, MatClass.PARABOLIC):
        return DominanceAnalysis(None, "maximal modulus is 1", blocks)
    if top.mat_class == MatClass.LOXODROMIC:
        return DominanceAnalysis(None, "maximal eigenvalue is not real", blocks)
    eig = eigen2(src, top.k)
    rec = DominantRecord(value=eig.lam_dominant, block_k=top.k)
    return DominanceAnalysis(rec, "dominant", blocks)


_BETA_POWERS = (ONE, QuarticElem(0, 1), QuarticElem(0, 0, 1), QuarticElem(0, 0, 0, 1))


def _beta_at(k: int, j: int) -> QuarticElem:
    """sigma_k(beta)^j for the real embeddings k = 0, 2."""
    v = _BETA_POWERS[j]
    return v if k == 0 or j % 2 == 0 else -v


def _lift_vec(w: tuple[QuadExt, QuadExt], k: int) -> tuple:
    """Right eigenvector of the block structure: (w1 * u, w2 * u) with
    u = (1, b^3/2, b^2/2, b/2) evaluated at sigma_k(beta)."""
    half = Fraction(1, 2)
    u = (ONE, _beta_at(k, 3) * half, _beta_at(k, 2) * half, _beta_at(k, 1) * half)
    return tuple(w[i] * QuadExt.of_base(c, w[0].d) for i in range(2) for c in u)


def _lift_covec(w: tuple[QuadExt, QuadExt], k: int) -> tuple:
    """Left eigenvector lift with u = (1, b, b^2, b^3) at sigma_k(beta)."""
    u = (ONE, _beta_at(k, 1), _beta_at(k, 2), _beta_at(k, 3))
    return tuple(w[i] * QuadExt.of_base(c, w[0].d) for i in range(2) for c in u)


class HyperbolicLikeData(Record):
    """Attracting/repelling points and characteristic crosses.

    For dimension 2 the crosses degenerate to the opposite fixed points.
    For the 8x8 case the crosses are stored as left-eigenvector covectors;
    a point lies on the cross iff the covector annihilates it.
    """

    dim: int
    lam_max: DominantRecord
    attracting: ProjPoint
    repelling: ProjPoint
    cross_plus: ProjPoint | tuple      # P(V_a): complement of the max eigenline
    cross_minus: ProjPoint | tuple     # P(V_b): complement of the min eigenline
    block_k: int


def hyperbolic_like(m) -> HyperbolicLikeData | None:
    """Full north-south data when both m and its inverse are dominant."""
    if isinstance(m, RingMat2) and m.det().is_zero():
        raise SingularMatrix("input must be invertible")
    ana = analyze_dominance(m)
    if ana.record is None:
        return None
    blocks, src = _blocks_of(m)
    k = ana.record.block_k
    eig = eigen2(src, k)
    # determinant-one blocks: the same block carries both extreme moduli,
    # so dominance of the inverse comes along for free
    att2 = eig.vec_dominant
    rep2 = eig.vec_recessive
    if isinstance(m, RingMat2):
        return HyperbolicLikeData(
            dim=2,
            lam_max=ana.record,
            attracting=ProjPoint(att2),
            repelling=ProjPoint(rep2),
            cross_plus=ProjPoint(rep2),
            cross_minus=ProjPoint(att2),
            block_k=k,
        )
    view = src.real_view(k)
    lam_dom, lam_rec = eig.lam_dominant, eig.lam_recessive
    att8 = ProjPoint(_lift_vec(att2, k))
    rep8 = ProjPoint(_lift_vec(rep2, k))
    # a left eigenvector of the view is an eigenvector of its transpose
    e11, e12, e21, e22 = view.entries()
    view_t = RingMat2(e11, e21, e12, e22)
    cov_plus = _lift_covec(_eigvec_pair(view_t, lam_dom), k)
    cov_minus = _lift_covec(_eigvec_pair(view_t, lam_rec), k)
    return HyperbolicLikeData(
        dim=2 * m.kappa,
        lam_max=ana.record,
        attracting=att8,
        repelling=rep8,
        cross_plus=cov_plus,
        cross_minus=cov_minus,
        block_k=k,
    )


# ---------------------------------------------------------------------------
# ping-pong on the projective line


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

    def center_point(self) -> ProjPoint:
        return ProjPoint(self.center)

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


def _root_cell(m: RingMat2, root: Cell, ball: Ball) -> Cell | None:
    """The root as one cell, mapped into the first chart where the ball is
    convex and the root has no pole, or None if there is no such chart."""
    for chart in ("s", "u"):
        if ball.excludes_chart_infinity(chart) and _cell_pole_free(m, root, chart):
            return Cell(root.chart, root.lo, root.hi, chart)
    return None


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
            gen_a=RingMat2.parse(obj["generator_a"]),
            gen_b=RingMat2.parse(obj["generator_b"]),
            balls=balls,
            conditions=[MappingCondition.from_json(c)
                        for c in obj["checked_conditions"]],
            basepoint=Fraction(obj["basepoint"]),
            disjointness_bits=int(obj["disjointness_bits"]),
        )


def _fixed_points(a: RingMat2,
                  b: RingMat2) -> dict[str, tuple[QuadExt, QuadExt]]:
    """The four ball centers by name: the generators' attracting and
    repelling eigenvector points."""
    ea = eigen2(a, 0)
    eb = eigen2(b, 0)
    return {"A_att": ea.vec_dominant, "A_rep": ea.vec_recessive,
            "B_att": eb.vec_dominant, "B_rep": eb.vec_recessive}


def _balls_disjoint(balls: dict[str, Ball], bits: int) -> bool:
    names = sorted(balls)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            b1, b2 = balls[n1], balls[n2]
            lo, _, s = proj_dist(b1.center_point(), b2.center_point(), bits)
            if not lo > (b1.radius + b2.radius) * s:
                return False
    return True


def _point_outside_all(t: Fraction, balls: dict[str, Ball]) -> bool:
    pt = _image_pair(_IDENTITY, "s", t)
    return all(b.membership_sign(pt) == Sign.POSITIVE for b in balls.values())


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


def _certify_condition(m: RingMat2, cond: MappingCondition,
                       balls: dict[str, Ball]) -> bool:
    """Cover each root with one cell (``_root_cell``) and accept the cover
    by the checker's ``_recheck_condition``."""
    cond.cells = [_root_cell(m, root, balls[cond.target])
                  for root in _roots(cond)]
    return None not in cond.cells and _recheck_condition(m, cond, balls)


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

    It checks the pair's hypotheses and computes each exact quantity once
    for every exponent and radius it is asked about: the fixed points (one
    ``eigen2`` per generator), their six chordal distances per precision
    and each generator power, and per radius the balls, the disjointness
    precision, the basepoint and each region.  A step condition (exponent +-1) is certified once per
    radius for every exponent, so a failed attempt costs only its
    complement conditions."""

    def __init__(self, a: RingMat2, b: RingMat2):
        for m, label in ((a, "first"), (b, "second")):
            if classify(m, 0) != MatClass.HYPERBOLIC:
                raise NotHyperbolicLike(f"{label} input is not hyperbolic")
        if share_eigenvector(a, b, 0):
            raise HypothesisViolated("fixed-point sets intersect")
        self.gens = {"A": a, "B": b}
        self.centers = _fixed_points(a, b)
        self._memo: dict = {}
        self.sep = self._separation()

    def _once(self, key, compute):
        """compute() the first time key is asked for, its value after."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _distances(self, bits: int) -> list[Fraction]:
        """Lower ends of the six pairwise chordal distances of the fixed
        points, from ``proj_dist`` at bits."""
        def compute():
            pts = [ProjPoint(self.centers[k]) for k in sorted(self.centers)]
            dists = (proj_dist(p, q, bits)
                     for i, p in enumerate(pts) for q in pts[i + 1:])
            return [Fraction(lo, s) for lo, _, s in dists]
        return self._once(("distances", bits), compute)

    def _separation(self) -> Fraction:
        """A certified positive lower bound on the fixed points' separation."""
        for bits in (64, 128, 256, 512):
            try:
                sep = min(self._distances(bits))
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

    def _rung(self, rho: Fraction):
        """(balls, disjointness bits, basepoint) at radius rho, or None when
        the balls overlap or no basepoint lies outside them: then rho fails
        at every exponent."""
        balls = {name: Ball(name, c, rho) for name, c in self.centers.items()}
        bits = next((bits for bits in (DEFAULT_BITS << k for k in range(5))
                     if all(lo > 2 * rho for lo in self._distances(bits))), None)
        basepoint = None if bits is None else next(
            (t for t in _BASEPOINTS if _point_outside_all(t, balls)), None)
        return None if basepoint is None else (balls, bits, basepoint)

    def _region(self, rho: Fraction, balls: dict[str, Ball], name: str):
        """The named condition's (region, outer) on the balls of radius
        rho, or None; it does not depend on the exponent."""
        _, _, source, _, kind = _CONDITIONS[name]
        return self._once(("region", rho, name),
                          lambda: _search_region(balls[source], kind))

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
            m = self._once(("power", gen, expo),
                           lambda: self.gens[gen] ** expo)
            return cond if _certify_condition(m, cond, balls) else None
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

    def certificate(self, n: int, rho: Fraction) -> PingPongCertificate | None:
        """The certificate at exponent n and radius rho, or None."""
        rung = self._once(("rung", rho), lambda: self._rung(rho))
        if rung is None:
            return None
        balls, bits, basepoint = rung
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
            disjointness_bits=bits)


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
    if not 1 <= cert.disjointness_bits <= _MAX_BITS:
        problems.append(f"disjointness_bits {cert.disjointness_bits} outside "
                        f"1..{_MAX_BITS}")
    if problems:
        return False, problems
    expected = _fixed_points(a, b)
    for name, ball in cert.balls.items():
        if name not in expected:
            problems.append(f"unknown ball {name}")
            continue
        if not proj_equal(ball.center_point(), ProjPoint(expected[name])):
            problems.append(f"ball {name} center is not the eigenvector point")
        if ball.radius <= 0:
            problems.append(f"ball {name} has nonpositive radius")
    if not _balls_disjoint(cert.balls, cert.disjointness_bits):
        problems.append("balls are not certified pairwise disjoint")
    if not _point_outside_all(cert.basepoint, cert.balls):
        problems.append("basepoint is not outside every ball")
    missing_balls = sorted(set(expected) - set(cert.balls))
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


def certify_exponent(a: RingMat2, b: RingMat2, n: int,
                     search: _PairSearch | None = None
                     ) -> PingPongCertificate | None:
    """Certificate at the given exponent, or None; the radius ladder starts
    at a quarter of the fixed-point separation.  A caller that tries several
    exponents of one pair passes them one ``_PairSearch``."""
    if n < 1:
        raise ValueError("exponent must be at least 1")
    if search is None:
        search = _PairSearch(a, b)
    for rho in search.radii():
        cert = search.certificate(n, rho)
        if cert is not None:
            return cert
    return None


def pingpong_exponent(a: RingMat2, b: RingMat2) -> PingPongCertificate:
    """Smallest certified exponent via doubling-then-bisection search, all of
    it on one ``_PairSearch``.  The doubling gives up past 2^16, or as soon
    as an exponent fails while no radius is live (``_PairSearch.live``)."""
    search = _PairSearch(a, b)
    n = 1
    while (cert := certify_exponent(a, b, n, search)) is None:
        if not search.live():
            raise SearchOverflow("no exponent can pass: every radius fails "
                                 "a ball, region or step condition")
        n *= 2
        if n > 1 << 16:
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
# commutation and freeness wrappers


class NoncommutingResult(Record):
    holds: bool
    reason: str
    commutator_nontrivial: bool | None = None

    def __bool__(self) -> bool:
        return self.holds


def noncommuting_check(a: RingMat2, b: RingMat2) -> NoncommutingResult:
    """North-south dynamics criterion for AB != BA on the projective line."""
    da = hyperbolic_like(a)
    db = hyperbolic_like(b)
    if da is None or db is None:
        return NoncommutingResult(False, "inputs are not hyperbolic-like")
    if share_eigenvector(a, b, 0):
        return NoncommutingResult(False, "shared fixed point")
    e11, e12, e21, e22 = a.entries()
    for pt in (db.attracting, db.repelling):
        image = ProjPoint((
            QuadExt.of_base(e11, pt.coords[0].d) * pt.coords[0]
            + QuadExt.of_base(e12, pt.coords[0].d) * pt.coords[1],
            QuadExt.of_base(e21, pt.coords[0].d) * pt.coords[0]
            + QuadExt.of_base(e22, pt.coords[0].d) * pt.coords[1],
        ))
        if proj_equal(image, db.attracting) or proj_equal(image, db.repelling):
            return NoncommutingResult(
                False, "first matrix preserves the fixed pair of the second")
    nontrivial = not a.commutator(b).is_identity()
    if not nontrivial:
        return NoncommutingResult(
            False, "hypotheses held but the commutator is trivial", False)
    return NoncommutingResult(True, "north-south dynamics forces AB != BA", True)


class FreePairResult(Record):
    exponent: int
    certificate: PingPongCertificate


def free_pair_power(a: RingMat2, b: RingMat2) -> FreePairResult:
    """Exponent N such that <a^m, b^m> is free for all m >= N, found through
    the third Galois view where both generators act hyperbolically."""
    for m, label in ((a, "first"), (b, "second")):
        if classify(m, 2) != MatClass.HYPERBOLIC:
            raise NotHyperbolicLike(
                f"{label} generator is not hyperbolic in the sigma2 view")
    if share_eigenvector(a, b, 2):
        raise HypothesisViolated("sigma2 views share an eigenvector")
    cert = pingpong_exponent(a.real_view(2), b.real_view(2))
    return FreePairResult(cert.exponent, cert)
