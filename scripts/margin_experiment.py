#!/usr/bin/env python3
"""Sweep the discreteness margin over exponents and word depths.

Usage:
  python scripts/margin_experiment.py [--max-N 4] [--max-L 6] [--json]

For each exponent the margin is the exact minimum, over nonempty reduced
words up to the depth, of the product-metric distance from the identity;
the table shows the certified lower bound, the witness word and the
third-view escape magnitude of the witness.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from quartic.probe import discreteness_margin


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-N", type=int, default=4)
    ap.add_argument("--max-L", type=int, default=6)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    for n in range(1, args.max_N + 1):
        t0 = time.monotonic()
        rep = discreteness_margin(n, args.max_L, threads=args.threads)
        m_lo, m_hi, m_s = rep.margin
        e_lo, e_hi, e_s = rep.factors["s2"]
        rows.append({
            "N": n,
            "L": args.max_L,
            "margin": [str(Fraction(m_lo, m_s)), str(Fraction(m_hi, m_s))],
            "witness": str(rep.witness),
            "sigma2_escape": [str(Fraction(e_lo, e_s)),
                              str(Fraction(e_hi, e_s))],
            "seconds": round(time.monotonic() - t0, 2),
        })
        if not args.json:
            r = rows[-1]
            print(f"N={r['N']}  margin >= {m_lo / m_s:.6f}  "
                  f"witness '{r['witness']}'  "
                  f"third-view size ~ {e_lo / e_s:.3g}  "
                  f"({r['seconds']}s)")
    if args.json:
        print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
