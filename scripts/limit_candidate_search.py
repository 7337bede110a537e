#!/usr/bin/env python3
"""Search bounded integral candidates for the two-real-factor limit and
probe their margins.

Usage:
  python scripts/limit_candidate_search.py [--bound 2] [--count 6]
      [--margin-N 2] [--margin-L 4] [--out candidates.json]
"""

import argparse
import json
import sys
from fractions import Fraction

from quartic.limits import (
    check_limit_conditions,
    margin_uniformity_probe,
    search_limit_candidates,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bound", type=int, default=2)
    ap.add_argument("--count", type=int, default=6)
    ap.add_argument("--margin-N", type=int, default=2)
    ap.add_argument("--margin-L", type=int, default=4)
    ap.add_argument("--eps", type=str, default="1/2")
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args()

    cands = search_limit_candidates(args.bound, count=args.count)
    print(f"{len(cands)} candidates at bound {args.bound}")
    payload = []
    for cand in cands:
        rep = check_limit_conditions(cand, vi_depth=4)
        payload.append(rep.to_json())
        print(" ", cand.matrix.to_text(),
              "| iv:", all(rep.cond_iv.values()),
              "| viii:", rep.cond_viii,
              "| relations<=4:", rep.cond_vi_probe["relations_found"] or "none")

    rows = margin_uniformity_probe(cands, args.margin_N, args.margin_L,
                                   Fraction(args.eps))
    for row in rows:
        lo, _, scale = row.margin
        print("  margin >=", lo / scale, " witness", row.witness,
              " near-identity words:", len(row.near_identity_words))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"candidates": payload,
                       "margins": [r.to_json() for r in rows]}, fh, indent=1)
        print("wrote", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
