"""Reference code of the ping-pong certificates, for differential tests
of the search in ``quartic.projective`` and the checker in
``quartic.pingpong``.

The cell-cover checker is the checker as it was while a certificate carried
a cover of cells and an outer bound K per condition, with its source
unchanged but for the names: ``Cell`` and ``MappingCondition`` (without
their wire methods), ``cover_pole_free``, ``cover_recheck_cell``,
``cover_cells_tile``, ``cover_roots``, ``cover_recheck_condition`` and
``cover_balls_disjoint``, which certifies disjointness from ``proj_dist``
enclosures at a given precision.  ``cover_root_cell`` and
``cover_certify_condition`` are the search's side of it: each root becomes
one cell, accepted by ``cover_recheck_condition``.  ``cover_outer`` is the
K that search gave a removed interval.

``reference_certify_condition`` is the search as it was before each root
became one cell: ``reference_certify_cell`` checks a cell's end images and
bisects the cell while it has a pole in every chart where the target ball
is convex, down to ``MAX_CELL_DEPTH``.  Points are built as they were,
with ``QuarticElem`` arithmetic on the matrix entries
(``reference_image_pair``), and handed to ``Ball.membership_sign`` as ints
over their common denominator; a cell's pole test reads the linear
denominator A + B t of the composed chart map (``reference_den_coeffs``).
``reference_certify_exponent`` is the exponent attempt as it was before a
witness point could stop it: it walks every radius of the ladder.
``reference_wrong_center`` is the checker's center test as it was: each
center is compared with the eigenvector point of
``reference_fixed_points``.  It passes the center (0, 0), which is
proportional to every point.  ``proj_equal`` is its proportionality test.
"""

from fractions import Fraction

from quartic.eigen import eigen2, proj_dist
from quartic.errors import DimensionMismatch
from quartic.extension import QuadExt
from quartic.linalg import RingMat2
from quartic.pingpong import (EXPONENT_CAP, Ball, PingPongCertificate,
                              _image_pair)
from quartic.projective import _PairSearch
from quartic.record import Record
from quartic.ring import ONE, QuarticElem, Sign, common_over, sign4

def proj_equal(p: tuple, q: tuple) -> bool:
    """Exact proportionality test of two points whose coordinates lie in
    one quadratic extension of the base field; coordinates in two
    different extensions raise ``InternalMismatch``."""
    if len(p) != len(q):
        raise DimensionMismatch(f"{len(p)} vs {len(q)}")
    return all((p[i] * q[j] - p[j] * q[i]).is_zero()
               for i in range(len(p)) for j in range(i + 1, len(p)))


# the deepest a cell is bisected to separate the chart poles
MAX_CELL_DEPTH = 24


def cover_outer(region):
    """The outer bound K the cell-cover search gave a removed interval."""
    bound = max(abs(region[0]), abs(region[1]), Fraction(4))
    return Fraction(2 ** (bound.numerator // bound.denominator).bit_length() * 2)


class Cell(Record):
    chart: str
    lo: Fraction
    hi: Fraction
    target_chart: str = ""


class MappingCondition(Record):
    name: str
    generator: str                     # "A" or "B"
    exponent: int
    region: tuple[Fraction, Fraction]  # removed or enclosing interval in chart s
    region_kind: str                   # "complement" or "interval"
    outer: Fraction                    # K for complement coverage
    target: str                        # ball name
    cells: list[Cell] = []


def cover_pole_free(m: RingMat2, cell: Cell, target_chart: str) -> bool:
    """The cell's image misses the target chart's point at infinity: the
    image coordinate that is that chart's denominator (the first for s, the
    second for u) has one nonzero sign at both ends.  That coordinate is
    linear in the cell's parameter, and the scale of ``_image_pair`` is
    positive, so the signs are its own."""
    i = 0 if target_chart == "s" else 1
    s_lo, s_hi = (sign4(_image_pair(m, cell.chart, t)[i])
                  for t in (cell.lo, cell.hi))
    return s_lo != 0 and s_lo == s_hi


def cover_recheck_cell(m: RingMat2, cell: Cell, ball: Ball) -> bool:
    """The cell's image lies strictly inside the ball: it has no pole in its
    target chart, where the ball is an interval, and both end images lie
    inside."""
    return (cell.target_chart in ("s", "u")
            and ball.excludes_chart_infinity(cell.target_chart)
            and cover_pole_free(m, cell, cell.target_chart)
            and all(ball.membership_sign(_image_pair(m, cell.chart, t))
                    == Sign.NEGATIVE for t in (cell.lo, cell.hi)))


def cover_cells_tile(cells: list[Cell], root: Cell) -> bool:
    """The cells, sorted, chain from the root's lo end to its hi end."""
    parts = sorted((c.lo, c.hi) for c in cells)
    return [root.lo] + [b for _, b in parts] == [a for a, _ in parts] + [root.hi]


def cover_balls_disjoint(balls: dict[str, Ball], bits: int) -> bool:
    names = sorted(balls)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            b1, b2 = balls[n1], balls[n2]
            lo, _, s = proj_dist(b1.center, b2.center, bits)
            if not lo > (b1.radius + b2.radius) * s:
                return False
    return True


def cover_roots(cond: MappingCondition) -> list[Cell]:
    """The intervals the condition's cells must tile: for a removed
    interval (lo, hi) and outer bound K, [hi, K] and [-K, lo] in chart s and
    [-1/K, 1/K] in chart u; for a step interval, [lo, hi] in chart s."""
    lo, hi = cond.region
    if cond.region_kind != "complement":
        return [Cell("s", lo, hi)]
    inv = 1 / cond.outer
    return [Cell("s", hi, cond.outer), Cell("s", -cond.outer, lo),
            Cell("u", -inv, inv)]


def cover_recheck_condition(m: RingMat2, cond: MappingCondition,
                       balls: dict[str, Ball]) -> bool:
    """A complement's outer bound reaches past its removed interval, each
    cell lies in exactly one root of its chart, each root's cells tile it,
    and each cell passes ``cover_recheck_cell``."""
    lo, hi = cond.region
    if cond.region_kind == "complement" and cond.outer < max(abs(lo), abs(hi)):
        return False
    roots = cover_roots(cond)
    tiles = [[] for _ in roots]
    for c in cond.cells:
        homes = [i for i, r in enumerate(roots)
                 if r.chart == c.chart and r.lo <= c.lo and c.hi <= r.hi]
        if len(homes) != 1:
            return False
        tiles[homes[0]].append(c)
    if not all(cover_cells_tile(t, r) for t, r in zip(tiles, roots)):
        return False
    return all(cover_recheck_cell(m, c, balls[cond.target]) for c in cond.cells)


def cover_root_cell(m: RingMat2, root: Cell, ball: Ball) -> Cell | None:
    """The root as one cell, mapped into the first chart where the ball is
    convex and the root has no pole, or None if there is no such chart."""
    for chart in ("s", "u"):
        if ball.excludes_chart_infinity(chart) and cover_pole_free(m, root, chart):
            return Cell(root.chart, root.lo, root.hi, chart)
    return None


def cover_certify_condition(m: RingMat2, cond: MappingCondition,
                       balls: dict[str, Ball]) -> bool:
    """Cover each root with one cell (``cover_root_cell``) and accept the cover
    by the checker's ``cover_recheck_condition``."""
    cond.cells = [cover_root_cell(m, root, balls[cond.target])
                  for root in cover_roots(cond)]
    return None not in cond.cells and cover_recheck_condition(m, cond, balls)


def reference_image_pair(m, chart, t):
    q = QuarticElem(t)
    v1, v2 = (ONE, q) if chart == "s" else (q, ONE)
    e11, e12, e21, e22 = m.entries()
    return common_over([e11 * v1 + e12 * v2, e21 * v1 + e22 * v2])[0]


def reference_den_coeffs(m, chart, target_chart):
    """Linear denominator A + B t of the composed chart map."""
    e11, e12, e21, e22 = m.entries()
    row = (e11, e12) if target_chart == "s" else (e21, e22)
    if chart == "s":
        return row[0], row[1]
    return row[1], row[0]


def reference_cell_pole_free(m, cell, target_chart):
    a, b = reference_den_coeffs(m, cell.chart, target_chart)
    s_lo = (a + b * QuarticElem(cell.lo)).sign()
    s_hi = (a + b * QuarticElem(cell.hi)).sign()
    return s_lo != Sign.ZERO and s_lo == s_hi


def reference_certify_cell(m, cell, ball):
    """(ok, leaf cells with their target charts, bisections made)."""
    stack = [(cell.chart, cell.lo, cell.hi, 0)]
    leaves = []
    splits = 0
    charts_ok = {c: ball.excludes_chart_infinity(c) for c in ("s", "u")}
    if not (charts_ok["s"] or charts_ok["u"]):
        return False, [], splits
    while stack:
        chart, lo, hi, depth = stack.pop()
        for t in (lo, hi):
            img = reference_image_pair(m, chart, t)
            if ball.membership_sign(img) != Sign.NEGATIVE:
                return False, [], splits
        placed = False
        for tc in ("s", "u"):
            if charts_ok[tc] and reference_cell_pole_free(
                    m, Cell(chart, lo, hi), tc):
                leaves.append(Cell(chart, lo, hi, tc))
                placed = True
                break
        if placed:
            continue
        if depth >= MAX_CELL_DEPTH:
            return False, [], splits
        mid = (lo + hi) / 2
        splits += 1
        stack.append((chart, lo, mid, depth + 1))
        stack.append((chart, mid, hi, depth + 1))
    return True, leaves, splits


def reference_complement_cells(removed, outer):
    lo, hi = removed
    inv = Fraction(1) / outer
    return [Cell("s", hi, outer), Cell("s", -outer, lo), Cell("u", -inv, inv)]


def reference_certify_condition(m, cond, balls):
    """(ok, cells): each root certified in turn, the first failure final."""
    target = balls[cond.target]
    if cond.region_kind == "complement":
        roots = reference_complement_cells(cond.region, cond.outer)
    else:
        roots = [Cell("s", cond.region[0], cond.region[1])]
    all_leaves = []
    for root in roots:
        ok, leaves, _ = reference_certify_cell(m, root, target)
        if not ok:
            return False, []
        all_leaves.extend(leaves)
    return True, all_leaves


def reference_certify_exponent(a: RingMat2, b: RingMat2, n: int,
                               search: _PairSearch | None = None
                               ) -> PingPongCertificate | None:
    """Certificate at the given exponent, or None; the radius ladder starts
    at a quarter of the fixed-point separation.  A caller that tries several
    exponents of one pair passes them one ``_PairSearch``."""
    if n < 1:
        raise ValueError("exponent must be at least 1")
    if n > EXPONENT_CAP:
        raise ValueError(f"exponent {n} beyond cap {EXPONENT_CAP}")
    if search is None:
        search = _PairSearch(a, b)
    for rho in search.radii():
        cert = search.certificate(n, rho)
        if cert is not None:
            return cert
    return None


def reference_fixed_points(a: RingMat2,
                  b: RingMat2) -> dict[str, tuple[QuadExt, QuadExt]]:
    """The four ball centers by name: the generators' attracting and
    repelling eigenvector points."""
    ea = eigen2(a)
    eb = eigen2(b)
    return {"A_att": ea.vec_dominant, "A_rep": ea.vec_recessive,
            "B_att": eb.vec_dominant, "B_rep": eb.vec_recessive}


def reference_wrong_center(ball: Ball,
                           expected: dict[str, tuple[QuadExt, QuadExt]]
                           ) -> bool:
    """The checker's condition for "ball {name} center is not the
    eigenvector point", with ``expected`` from ``reference_fixed_points``."""
    name = ball.name
    # a center over another extension is not compared, but rejected
    return (ball.center[0].d != expected[name][0].d
            or not proj_equal(ball.center, expected[name]))
