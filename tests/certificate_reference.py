"""Reference cell code of the ping-pong certificates, for differential tests
of the search in ``quartic.projective`` and the checker in
``quartic.pingpong``.

``reference_certify_condition`` is the search as it was before each root
became one cell: ``reference_certify_cell`` checks a cell's end images and
bisects the cell while it has a pole in every chart where the target ball
is convex, down to ``MAX_CELL_DEPTH``.  ``reference_recheck_condition`` is
the checker's tiling test as it was: the slope-chart cells split into those
right and left of the removed interval, and each side, and the inverse
chart's cells, tile their interval; each cell must pass
``reference_recheck_cell``, looked up at call time.  Points are built as
they were, with ``QuarticElem`` arithmetic on the matrix entries
(``reference_image_pair``), and handed to ``Ball.membership_sign`` as ints
over their common denominator; a cell's pole test reads the linear
denominator A + B t of the composed chart map (``reference_den_coeffs``).
``reference_certify_exponent`` is the exponent attempt as it was before a
witness point could stop it: it walks every radius of the ladder.
"""

from fractions import Fraction

from quartic.linalg import RingMat2
from quartic.pingpong import EXPONENT_CAP, Cell, PingPongCertificate
from quartic.projective import _PairSearch
from quartic.ring import ONE, QuarticElem, Sign, common_over

# the deepest a cell is bisected to separate the chart poles
MAX_CELL_DEPTH = 24


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


def reference_recheck_cell(m, cell, ball):
    if cell.target_chart not in ("s", "u"):
        return False
    if not ball.excludes_chart_infinity(cell.target_chart):
        return False
    if not reference_cell_pole_free(m, cell, cell.target_chart):
        return False
    for t in (cell.lo, cell.hi):
        img = reference_image_pair(m, cell.chart, t)
        if ball.membership_sign(img) != Sign.NEGATIVE:
            return False
    return True


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


def _reference_cells_tile(cells, chart, lo, hi):
    """The chart's cells must exactly tile [lo, hi]."""
    parts = sorted((c.lo, c.hi) for c in cells if c.chart == chart)
    if not parts:
        return lo >= hi
    if parts[0][0] != lo or parts[-1][1] != hi:
        return False
    for (a1, b1), (a2, b2) in zip(parts, parts[1:]):
        if b1 != a2:
            return False
    return True


def reference_recheck_condition(m, cond, balls):
    target = balls[cond.target]
    lo, hi = cond.region
    if cond.region_kind == "complement":
        inv = Fraction(1) / cond.outer
        if cond.outer < max(abs(lo), abs(hi)):
            return False
        s_cells = [c for c in cond.cells if c.chart == "s"]
        u_cells = [c for c in cond.cells if c.chart == "u"]
        right = [c for c in s_cells if c.lo >= hi]
        left = [c for c in s_cells if c.hi <= lo]
        if len(right) + len(left) != len(s_cells):
            return False
        if not _reference_cells_tile(right, "s", hi, cond.outer):
            return False
        if not _reference_cells_tile(left, "s", -cond.outer, lo):
            return False
        if not _reference_cells_tile(u_cells, "u", -inv, inv):
            return False
    else:
        if not _reference_cells_tile(cond.cells, "s", lo, hi):
            return False
    return all(reference_recheck_cell(m, c, target) for c in cond.cells)


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
