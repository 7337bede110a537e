"""Command-line surface.

Subcommands: verify-paper, classify, repr, margin, certify, search,
conjugate, probe-inequality.  Every command emits a Report, as text or as
deterministic JSON (--json).  Exit codes: 0 all checks pass (errata are
reported but do not fail), 1 any check fails, 2 bad usage, unparseable
input or an out-of-range setting, 141 (128 + SIGPIPE) stdout closed before
the report was written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import QuarticError, UsageError
from .linalg import (MatClass, RingMat2, classify, paper_generators,
                     parse_matrix)
from .report import FAIL, PASS, PROBE_ONLY, Report
from .ring import QuarticElem

EXIT_BROKEN_PIPE = 141


def _parse_matrix(text: str, elem=QuarticElem, mat=RingMat2):
    try:
        return parse_matrix(text, elem, mat)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_verify_paper(args) -> Report:
    from . import verify
    return verify.cmd_verify_paper(args)


def as_paper_hyperbolic(cls: MatClass) -> bool:
    """Loxodromic elements of SL(2,C) count as hyperbolic in the source
    terminology; report both under one predicate."""
    return cls in (MatClass.HYPERBOLIC, MatClass.LOXODROMIC)


def cmd_classify(args) -> Report:
    rep = Report("classify")
    mat = _parse_matrix(args.matrix)
    got = classify(mat, args.k)
    rep.inputs = {"matrix": mat.to_text(), "k": args.k}
    rep.add("class", PASS, value={
        "class": got.value,
        "as_paper_hyperbolic": as_paper_hyperbolic(got),
    })
    return rep


def cmd_repr(args) -> Report:
    from .regular import regular_rep
    rep = Report("repr")
    kappa = args.kappa
    if kappa == 3:
        from .cubic import CubicElem, CubicMat2
        mat = _parse_matrix(args.matrix, CubicElem, CubicMat2)
    else:
        mat = _parse_matrix(args.matrix)
    rep.inputs = {"matrix": mat.to_text(), "kappa": kappa}
    rr = regular_rep(mat, kappa)
    rep.add("matrix", PASS, value=[[str(c) for c in row] for row in rr.entries])
    rep.add("determinant", PASS if rr.det() == 1 else FAIL, value=str(rr.det()))
    return rep


def cmd_margin(args) -> Report:
    from . import margin, probe, projective
    rep = Report("margin")
    # a depth out of range exits before the exponent search runs
    probe.check_depth(args.L)
    n = args.N
    if n is None:
        pair = paper_generators()
        n = projective.free_pair_power(*pair).exponent
    result = margin.discreteness_margin(n, args.L)
    rep.inputs = {"N": n, "L": args.L}
    rep.add("margin", PASS if result.margin[0] > 0 else FAIL,
            value=result.to_json())
    return rep


def cmd_certify(args) -> Report:
    from . import pingpong, probe
    rep = Report("certify")
    cert = probe.freeness_certificate(args.N, crosscheck_depth=args.L)
    rep.inputs = {"N": cert.n}
    if cert.pingpong is None:
        ok, balls = False, []
        problems = [f"no ping-pong certificate at exponent {cert.n}"]
    else:
        ok, problems = pingpong.verify_certificate(cert.pingpong)
        balls = [b.to_json() for b in cert.pingpong.balls.values()]
    rep.add("pingpong_certificate", PASS if ok else FAIL,
            value={"N": cert.n, "problems": problems, "balls": balls})
    rep.add("word_crosscheck", PASS if cert.ok() else FAIL,
            value={"depth": cert.crosscheck_depth,
                   "words": cert.words_checked,
                   "identity_hits": cert.identity_hits})
    return rep


def cmd_search(args) -> Report:
    from . import limits
    rep = Report("search")
    cands = limits.search_limit_candidates(args.bound, count=args.count)
    rep.inputs = {"bound": args.bound, "count": args.count}
    rep.add("candidates", PASS,
            value=[c.to_json() for c in cands])
    rep.add("candidate_count", PASS, value=len(cands))
    return rep


def cmd_conjugate(args) -> Report:
    from . import construction
    rep = Report("conjugate")
    mat = _parse_matrix(args.matrix)
    rec = construction.conjugation_record(mat, args.n)
    rep.inputs = {"matrix": mat.to_text(), "n": args.n}
    rep.add("record", PASS if rec.closed_forms_match else FAIL,
            value=rec.to_json())
    return rep


def cmd_probe_inequality(args) -> Report:
    from . import inequality
    rep = Report("probe-inequality")
    mat = _parse_matrix(args.matrix)
    rec = inequality.inequality_probe(mat, args.which)
    rep.inputs = {"matrix": mat.to_text(), "which": args.which}
    rep.add(f"inequality_{args.which}", PROBE_ONLY, value=rec.to_json())
    return rep


COMMANDS = {
    "verify-paper": cmd_verify_paper,
    "classify": cmd_classify,
    "repr": cmd_repr,
    "margin": cmd_margin,
    "certify": cmd_certify,
    "search": cmd_search,
    "conjugate": cmd_conjugate,
    "probe-inequality": cmd_probe_inequality,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartic",
        description="Exact arithmetic and discreteness experiments over "
                    "Q(2^(1/4))")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, exponent=False):
        sp.add_argument("--json", action="store_true",
                        help="emit a deterministic JSON report")
        if exponent:
            # None: take the exponent from the ping-pong certificate
            sp.add_argument("--N", type=int, default=None)
            sp.add_argument("--L", type=int, default=8)

    sp = sub.add_parser("verify-paper",
                        help="re-derive the built-in reference values")
    common(sp, exponent=True)
    sp.add_argument("--override", action="append", default=None,
                    metavar="P11=q0 q1 q2 q3",
                    help="replace a generator entry (negative testing)")

    sp = sub.add_parser("classify", help="trace classification of one view")
    common(sp)
    sp.add_argument("matrix")
    sp.add_argument("--k", type=int, default=0, choices=(0, 1, 2, 3))

    sp = sub.add_parser("repr", help="regular representation matrix")
    common(sp)
    sp.add_argument("matrix")
    sp.add_argument("--kappa", type=int, default=4, choices=(2, 3, 4))

    sp = sub.add_parser("margin", help="discreteness margin scan")
    common(sp, exponent=True)

    sp = sub.add_parser("certify", help="ping-pong freeness certificate")
    common(sp, exponent=True)

    sp = sub.add_parser("search", help="bounded limit-candidate search")
    common(sp)
    sp.add_argument("--bound", type=int, default=2)
    sp.add_argument("--count", type=int, default=25)

    sp = sub.add_parser("conjugate", help="conjugation record by Q^n")
    common(sp)
    sp.add_argument("matrix")
    sp.add_argument("--n", type=int, default=1)

    sp = sub.add_parser("probe-inequality", help="inequality diagnostics")
    common(sp)
    sp.add_argument("matrix")
    sp.add_argument("--which", type=int, required=True,
                    choices=(4, 6, 7, 8, 9, 10, 11, 13, 14))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        rep = COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuarticError, ValueError) as exc:
        # ValueError is how the library rejects an out-of-range setting
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        print(rep.to_json_text() if args.json else rep.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stdout now points at devnull, so the flush at
        # shutdown writes nothing and prints no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    if not args.json:
        print(f"elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 1 if rep.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
