"""The torsion probe and the dual-smallness scan, for the acceptance gate
and the tests of ``quartic.margin``, whose word kernels they run on.

``torsion_probe`` finds the first power of a matrix equal to plus or minus
the identity through the trace recursion.  ``dual_smallness_scan`` lists
the words whose first view is eps-close to the identity, with the
conjugate-norm escape bound checked exactly on each entry.
"""

from __future__ import annotations

from fractions import Fraction

from quartic.intervals import Enclosure
from quartic.linalg import RingMat2, is_scalar4
from quartic.margin import (_view_dists, compare_enclosed, eps_thresholds,
                            minus_identity4, sqrt_of_square_interval,
                            view_dist4)
from quartic.probe import ReducedWord, _generator_powers, int_matrices, walk_words
from quartic.record import Record
from quartic.report import interval_json
from quartic.ring import QuarticElem, _elem
from quartic.verify import field_quantity_N


class TorsionResult(Record):
    torsion: bool
    n_max: int
    order: int | None = None              # least n with A^n = I
    order_mod_center: int | None = None   # least n with A^n = +-I
    sign_at_first_hit: int | None = None


def torsion_probe(a: RingMat2, n_max: int) -> TorsionResult:
    """First n <= n_max with a^n = +-I, exactly, else a non-torsion verdict.

    The trace sequence t_n = tr(a^n) obeys t_{n+1} = t_1 t_n - t_{n-1};
    candidates with t_n = +-2 are confirmed by an exact binary power.  The
    verdict holds in every embedding, since the Galois maps are injective.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    prev = QuarticElem(2)
    cur = t1 = a.trace()
    for n in range(1, n_max + 1):
        if cur == QuarticElem(2) or cur == QuarticElem(-2):
            res = _confirm_torsion(a, n, n_max)
            if res is not None:
                return res
        prev, cur = cur, t1 * cur - prev
    return TorsionResult(False, n_max)


def _confirm_torsion(a: RingMat2, n: int, n_max: int) -> TorsionResult | None:
    power = a ** n
    if power.is_identity():
        return TorsionResult(True, n_max, order=n, order_mod_center=n,
                             sign_at_first_hit=1)
    if is_scalar4(power._m, -power._d):
        return TorsionResult(True, n_max, order=2 * n, order_mod_center=n,
                             sign_at_first_hit=-1)
    return None


class DualSmallnessRow(Record):
    word: ReducedWord
    d_sigma0: Enclosure
    d_sigma1: Enclosure
    d_sigma2: Enclosure
    entry_norms: list[Fraction]
    escape_bound_ok: bool

    def to_json(self) -> dict:
        return {
            "word": str(self.word),
            "d_sigma0": interval_json(self.d_sigma0),
            "d_sigma1": interval_json(self.d_sigma1),
            "d_sigma2": interval_json(self.d_sigma2),
            "entry_conjugate_norms": [str(v) for v in self.entry_norms],
            "escape_bound_ok": self.escape_bound_ok,
        }


class DualSmallnessTable(Record):
    n: int
    depth: int
    eps: Fraction
    rows: list[DualSmallnessRow]

    def to_json(self) -> dict:
        return {
            "N": self.n, "L": self.depth, "eps": str(self.eps),
            "rows": [r.to_json() for r in self.rows],
        }


def dual_smallness_scan(n: int, depth: int, eps) -> DualSmallnessTable:
    """Words whose first-factor view is eps-close to the identity, with the
    conjugate-norm escape bound checked exactly on every nonzero entry
    difference from the identity."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    gens, den = int_matrices(_generator_powers(n))
    below = eps_thresholds(den, eps, depth)
    rows: list[DualSmallnessRow] = []
    for codes, mat in walk_words(gens, depth):
        one = den ** len(codes)
        d0 = view_dist4(minus_identity4(mat, one, eps.denominator), 0)
        if compare_enclosed(d0, below[len(codes)]) >= 0:
            continue
        xs = minus_identity4(mat, one, 1)
        norms = [field_quantity_N(_elem(x, one)) for x in xs if any(x)]
        d_sigma0, d_sigma1, d_sigma2 = (sqrt_of_square_interval(d)
                                        for d in _view_dists(xs, one))
        rows.append(DualSmallnessRow(
            word=ReducedWord(codes),
            d_sigma0=d_sigma0,
            d_sigma1=d_sigma1,
            d_sigma2=d_sigma2,
            entry_norms=norms,
            escape_bound_ok=all(v >= 1 for v in norms),
        ))
    rows.sort(key=lambda row: (len(row.word.codes), row.word.codes))
    return DualSmallnessTable(n, depth, eps, rows)
