"""The exact Pell-gap table for lambda^n + lambda^-n = A_n + B_n sqrt2,
which README's Pell finding cites: |A_n^2 - 2 B_n^2| stops growing first
at n = 18."""

from collections import namedtuple

from quartic.construction import cheb_value
from quartic.intervals import enc_div
from quartic.report import interval_json
from quartic.ring import QuarticElem

# gap = |A_n - sqrt2 B_n|, ratio_gap = |A_n / B_n - sqrt2|, norm_increased
# compares pell_norm = |A_n^2 - 2 B_n^2| with the previous row's
PellRow = namedtuple("PellRow",
                     "n a b pell_norm gap ratio_gap norm_increased")
PellTable = namedtuple("PellTable",
                       "rows first_norm_decrease monotone_gap_verdict")


def pell_divergence(n_max: int) -> PellTable:
    """The table for n = 1..n_max.

    gap = |A - sqrt2 B| is evaluated through the exact identity
    gap = |A^2 - 2B^2| / (A + sqrt2 B), which is stable, with A + sqrt2 B
    enclosed at 128 bits; the monotonicity of |A^2 - 2B^2| is an exact
    integer verdict per step.
    """
    rows = []
    prev_norm = None
    first_dec = None
    for n in range(1, n_max + 1):
        v = cheb_value(n)
        a, b = int(v.q0), int(v.q2)
        norm = abs(a * a - 2 * b * b)
        den = QuarticElem(a, 0, b).interval(128)
        gap = enc_div((norm, norm, 1), den)
        ratio = (gap[0], gap[1], gap[2] * b)
        inc = None if prev_norm is None else norm > prev_norm
        if inc is False and first_dec is None:
            first_dec = n
        rows.append(PellRow(n, a, b, norm, gap, ratio, inc))
        prev_norm = norm
    return PellTable(rows, first_dec, first_dec is None)


def table_json(table: PellTable) -> dict:
    return {
        "rows": [
            {
                "n": r.n, "A": r.a, "B": r.b,
                "pell_norm": r.pell_norm,
                "gap": interval_json(r.gap),
                "ratio_gap": interval_json(r.ratio_gap),
                "norm_increased": r.norm_increased,
            } for r in table.rows
        ],
        "first_norm_decrease": table.first_norm_decrease,
        "monotone_gap_verdict": table.monotone_gap_verdict,
    }
