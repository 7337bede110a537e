"""Command-line surface.

Subcommands: verify-paper, classify, repr, margin, certify, search,
conjugate, probe-inequality.  Every command emits a Report, as text or as
deterministic JSON (--json).  Exit codes: 0 all checks pass (errata are
reported but do not fail), 1 any check fails, 2 bad usage, bad config,
unparseable input or an out-of-range setting, 141 (128 + SIGPIPE) stdout
closed before the report was written.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from fractions import Fraction

from . import construction
from .errors import QuarticError
from .intervals import interval_json
from .linalg import (
    MatClass,
    RingMat2,
    as_paper_hyperbolic,
    classify,
    eigen2,
    regular_rep,
    share_eigenvector,
)
from .report import ERRATUM, FAIL, PASS, PROBE_ONLY, Report
from .ring import ONE, QuarticElem, field_quantity_N, sqrt2_text

EXIT_BROKEN_PIPE = 141

DEFAULTS = {
    "N": None,          # None: take the exponent from the ping-pong certificate
    "L": 8,
    "bound": 2,
    "threads": 1,
}


class UsageError(Exception):
    pass


def _parse_config(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                val = val.strip()
                if key not in DEFAULTS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = int(val)
                except ValueError as exc:
                    raise UsageError(
                        f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _setting(args, config: dict, key: str):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return DEFAULTS[key]


def _parse_matrix(text: str, elem=QuarticElem, mat=RingMat2):
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 4:
        raise UsageError(
            f"matrix needs 4 ';'-separated entries, got {len(parts)}")
    entries = []
    for pos, part in enumerate(parts, 1):
        try:
            entries.append(elem.parse(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"matrix entry {pos} ({part!r}): {exc}") from exc
    return mat(*entries)


# ---------------------------------------------------------------------------
# reference data for verify-paper

PSI_P_REFERENCE = [
    [5, -4, 2, -6, 1, 0, 0, 0],
    [-3, 5, -4, 2, 0, 1, 0, 0],
    [1, -3, 5, -4, 0, 0, 1, 0],
    [-2, 1, -3, 5, 0, 0, 0, 1],
    [-1, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
]

# row 4, column 4 of this display disagrees with the multiplication matrix;
# the computed value there is 3
PSI_Q_DISPLAYED = [
    [3, 0, 4, 0, 1, 0, 0, 0],
    [0, 3, 0, 4, 0, 1, 0, 0],
    [2, 0, 3, 0, 0, 0, 1, 0],
    [0, 2, 0, 0, 0, 0, 0, 1],
    [-1, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
]

CLASSIFICATION_REFERENCE = {
    ("P", 0): MatClass.ELLIPTIC,
    ("P", 1): MatClass.LOXODROMIC,
    ("P", 2): MatClass.HYPERBOLIC,
    ("P", 3): MatClass.LOXODROMIC,
    ("Q", 0): MatClass.HYPERBOLIC,
    ("Q", 1): MatClass.ELLIPTIC,
    ("Q", 2): MatClass.HYPERBOLIC,
    ("Q", 3): MatClass.ELLIPTIC,
}


def _apply_overrides(p: RingMat2, q: RingMat2, overrides: list[str]):
    slots = ("11", "12", "21", "22")
    mats = {"P": list(p.entries()), "Q": list(q.entries())}
    for spec in overrides or []:
        if "=" not in spec:
            raise UsageError(f"override needs NAME=coeffs, got {spec!r}")
        name, _, coeffs = spec.partition("=")
        name = name.strip()
        if len(name) != 3 or name[0] not in mats or name[1:] not in slots:
            raise UsageError(f"override target must be like P11, got {name!r}")
        try:
            value = QuarticElem.parse(coeffs.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"override {name}: {exc}") from exc
        mats[name[0]][slots.index(name[1:])] = value
    pair = RingMat2(*mats["P"]), RingMat2(*mats["Q"])
    # every check assumes determinant one: reject before any of them runs
    for name, m in zip("PQ", pair):
        det = m.det()
        if det != ONE:
            raise UsageError(f"override: {name} has determinant "
                             f"{det.to_text()}, expected 1")
    return pair


def _random_quartic(rng: random.Random, span: int = 4) -> QuarticElem:
    return QuarticElem(*(rng.randint(-span, span) for _ in range(4)))


def _random_sl2(rng: random.Random, kappa: int):
    """A product of one to three elementary matrices, each upper or lower at
    random, over Z[sqrt2] inside Z[beta] (kappa 2) or Z[2^(1/3)] (kappa 3)."""
    from .cubic import CubicElem, CubicMat2
    mat = CubicMat2 if kappa == 3 else RingMat2
    out = mat.identity()
    one, zero = out.e11, out.e12
    for _ in range(rng.randint(1, 3)):
        c = [rng.randint(-3, 3) for _ in range(kappa)]
        x = CubicElem(*c) if kappa == 3 else QuarticElem(c[0], 0, c[1], 0)
        if rng.random() < 0.5:
            out = out * mat(one, x, zero, one)
        else:
            out = out * mat(one, zero, x, one)
    return out


def _random_word_matrix(rng: random.Random, p: RingMat2, q: RingMat2,
                        max_len: int = 6) -> RingMat2:
    gens = [p, p.inv(), q, q.inv()]
    out = RingMat2.identity()
    for _ in range(rng.randint(1, max_len)):
        out = out * gens[rng.randrange(4)]
    return out


def cmd_verify_paper(args, config: dict) -> Report:
    from . import probe, projective
    from .extension import QuadExt
    rep = Report("verify-paper")
    p, q = construction.paper_generators()
    p, q = _apply_overrides(p, q, args.override)
    rep.inputs = {"overrides": args.override or []}
    threads = _setting(args, config, "threads")

    # displayed representation matrices
    psi_p = regular_rep(p, 4).to_int_grid()
    rep.add("psi_p_display", PASS if psi_p == PSI_P_REFERENCE else FAIL,
            anchor="rank-8 representation of P, displayed matrix")
    psi_q = regular_rep(q, 4).to_int_grid()
    # a rational override makes some entries Fractions, reported as "p/q"
    diff = [(i + 1, j + 1, c if isinstance(c, int) else str(c), shown)
            for i, row in enumerate(psi_q)
            for j, (c, shown) in enumerate(zip(row, PSI_Q_DISPLAYED[i]))
            if c != shown]
    if diff == [(4, 4, 3, 0)]:
        rep.add("psi_q_display", ERRATUM,
                value={"position": [4, 4], "computed": 3, "displayed": 0},
                anchor="rank-8 representation of Q, displayed matrix")
    elif not diff:
        rep.add("psi_q_display", FAIL,
                value="computed matrix equals the display exactly; expected "
                      "the single known misprint at (4,4)",
                anchor="rank-8 representation of Q, displayed matrix")
    else:
        rep.add("psi_q_display", FAIL,
                value={"mismatches": [list(d) for d in diff]},
                anchor="rank-8 representation of Q, displayed matrix")

    # multiplicativity of the three representations
    rng = random.Random(20260809)
    draws = {2: lambda: _random_sl2(rng, 2), 3: lambda: _random_sl2(rng, 3),
             4: lambda: _random_word_matrix(rng, p, q)}
    for k, draw in draws.items():
        ok = all(regular_rep(a * b, k) == regular_rep(a, k) * regular_rep(b, k)
                 for a, b in ((draw(), draw()) for _ in range(20)))
        rep.add(f"phi{k}_multiplicativity", PASS if ok else FAIL,
                anchor=f"rank-{2 * k} representation is a homomorphism")

    # classification table
    table_ok = True
    verdicts = {}
    for name, mat in (("P", p), ("Q", q)):
        for k in range(4):
            got = classify(mat, k)
            verdicts[f"{name}.sigma{k}"] = got.value
            if got != CLASSIFICATION_REFERENCE[(name, k)]:
                table_ok = False
    rep.add("classification_table", PASS if table_ok else FAIL,
            value=verdicts, anchor="trace classification of all Galois views")

    try:
        shared = share_eigenvector(p, q, 2)
    except QuarticError:
        shared = True
    rep.add("sigma2_no_common_eigenvector", PASS if not shared else FAIL,
            anchor="third-view generators have no common eigenvector")

    # scalar identities; an elliptic or parabolic q has no real lambda
    try:
        eq = eigen2(q, 0)
    except QuarticError:
        eq = None
    lam_ok = (eq is not None and eq.lam_dominant is not None
              and eq.lam_dominant + eq.lam_recessive
              == QuadExt.of_base(q.trace(), eq.lam_dominant.d))
    tr_ok = q.trace() == construction.lambda_plus_inverse()
    rep.add("lambda_plus_inverse", PASS if (lam_ok and tr_ok) else FAIL,
            value=sqrt2_text(construction.lambda_plus_inverse()),
            anchor="eigenvalue sum of the hyperbolic generator")
    l2 = construction.l_squared()
    l2inv = construction.l_squared_inverse()
    l_ok = (l2 == QuarticElem(13, 0, 12)
            and l2inv == QuarticElem(Fraction(-13, 119), 0, Fraction(12, 119))
            and l2 * l2inv == 1)
    rep.add("l_squared_identity", PASS if l_ok else FAIL,
            value={"L^2": sqrt2_text(l2), "L^-2": sqrt2_text(l2inv)},
            anchor="squared eigenvalue gap and its inverse")

    # conjugate-norm quantity: closed form against the literal product
    worst = None
    for _ in range(200):
        x = _random_quartic(rng, 6)
        try:
            bad = field_quantity_N(x) < 1 and not x.is_zero()
        except QuarticError:
            bad = True
        if bad:
            worst = x.to_text()
            break
    rep.add("field_norm_oracle", PASS if worst is None else FAIL,
            value=worst, anchor="conjugate product norm, two routes")

    cheb_ok = all(construction.trace_matches_chebyshev(n) for n in range(1, 31))
    rep.add("trace_chebyshev", PASS if cheb_ok else FAIL,
            anchor="trace of Q^n against the Chebyshev recursion")

    # conjugation closed forms
    conj_ok = True
    displayed_sign_held = True
    for _ in range(4):
        a = construction.make_signed_sigma2_matrix(
            _random_quartic(rng, 2).abs() + 1,
            _random_quartic(rng, 2).abs(),
            _random_quartic(rng, 2).abs())
        for n in range(0, 5):
            r = construction.conjugation_record(a, n)
            if not r.closed_forms_match:
                conj_ok = False
            if r.ent21_displayed_sign_matches is False:
                displayed_sign_held = False
    rep.add("conjugation_closed_forms", PASS if conj_ok else FAIL,
            anchor="conjugation by Q^n, closed forms vs direct product")
    if not displayed_sign_held:
        rep.add("conjugation_ent21_displayed_sign", ERRATUM,
                value="third term of the displayed (2,1) entry needs '+'",
                anchor="conjugation by Q^n, closed forms vs direct product")

    cond = construction.check_conditions(p, q, 2, 2)
    cond_ok = (cond.condition1 and cond.condition2
               and cond.condition3_first and cond.condition3_second)
    rep.add("conditions_1_to_3", PASS if cond_ok else FAIL,
            value=cond.to_json(), anchor="fixed-point and commutator conditions")

    # freeness certificate and margin
    try:
        fp = projective.free_pair_power(p, q)
        cert_ok, problems = projective.verify_certificate(fp.certificate)
        rep.add("freeness_certificate", PASS if cert_ok else FAIL,
                value={"N": fp.exponent, "problems": problems},
                anchor="ping-pong certificate for the third-view pair")
        n_default = _setting(args, config, "N") or fp.exponent
    except QuarticError as exc:
        rep.add("freeness_certificate", FAIL, value=str(exc),
                anchor="ping-pong certificate for the third-view pair")
        n_default = _setting(args, config, "N") or 1

    depth = _setting(args, config, "L")
    margin = probe.discreteness_margin(n_default, depth, pair=(p, q),
                                       threads=threads)
    margin_pos = margin.margin[0] > 0
    rep.add("margin_positive", PASS if margin_pos else FAIL,
            value={"N": n_default, "L": depth,
                   "margin": interval_json(margin.margin),
                   "witness": str(margin.witness)},
            anchor="discreteness margin at the default depth")
    return rep


def cmd_classify(args, config: dict) -> Report:
    rep = Report("classify")
    mat = _parse_matrix(args.matrix)
    k = args.k if args.k is not None else 0
    got = classify(mat, k)
    rep.inputs = {"matrix": mat.to_text(), "k": k}
    rep.add("class", PASS, value={
        "class": got.value,
        "as_paper_hyperbolic": as_paper_hyperbolic(got),
    })
    return rep


def cmd_repr(args, config: dict) -> Report:
    rep = Report("repr")
    kappa = args.kappa if args.kappa is not None else 4
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


def cmd_margin(args, config: dict) -> Report:
    from . import probe, projective
    rep = Report("margin")
    n = _setting(args, config, "N")
    if n is None:
        pair = construction.paper_generators()
        n = projective.free_pair_power(*pair).exponent
    depth = _setting(args, config, "L")
    threads = _setting(args, config, "threads")
    result = probe.discreteness_margin(n, depth, threads=threads)
    rep.inputs = {"N": n, "L": depth}
    rep.add("margin", PASS if result.margin[0] > 0 else FAIL,
            value=result.to_json())
    return rep


def cmd_certify(args, config: dict) -> Report:
    from . import probe, projective
    rep = Report("certify")
    depth = _setting(args, config, "L")
    cert = probe.freeness_certificate(_setting(args, config, "N"),
                                      crosscheck_depth=depth)
    rep.inputs = {"N": cert.n}
    if cert.pingpong is None:
        ok, balls = False, []
        problems = [f"no ping-pong certificate at exponent {cert.n}"]
    else:
        ok, problems = projective.verify_certificate(cert.pingpong)
        balls = [b.to_json() for b in cert.pingpong.balls.values()]
    rep.add("pingpong_certificate", PASS if ok else FAIL,
            value={"N": cert.n, "problems": problems, "balls": balls})
    rep.add("word_crosscheck", PASS if cert.ok() else FAIL,
            value={"depth": cert.crosscheck_depth,
                   "words": cert.words_checked,
                   "identity_hits": cert.identity_hits})
    return rep


def cmd_search(args, config: dict) -> Report:
    from . import limits
    rep = Report("search")
    bound = _setting(args, config, "bound")
    count = 25 if args.count is None else args.count
    cands = limits.search_limit_candidates(bound, count=count)
    rep.inputs = {"bound": bound, "count": count}
    rep.add("candidates", PASS,
            value=[c.to_json() for c in cands])
    rep.add("candidate_count", PASS, value=len(cands))
    return rep


def cmd_conjugate(args, config: dict) -> Report:
    rep = Report("conjugate")
    mat = _parse_matrix(args.matrix)
    n = args.n if args.n is not None else 1
    rec = construction.conjugation_record(mat, n)
    rep.inputs = {"matrix": mat.to_text(), "n": n}
    rep.add("record", PASS if rec.closed_forms_match else FAIL,
            value=rec.to_json())
    return rep


def cmd_probe_inequality(args, config: dict) -> Report:
    rep = Report("probe-inequality")
    mat = _parse_matrix(args.matrix)
    which = args.which
    rec = construction.inequality_probe(mat, which)
    rep.inputs = {"matrix": mat.to_text(), "which": which}
    rep.add(f"inequality_{which}", PROBE_ONLY, value=rec.to_json())
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

    def common(sp, settings=False, threads=False, exponent=False):
        sp.add_argument("--json", action="store_true",
                        help="emit a deterministic JSON report")
        if settings:
            sp.add_argument("--config", type=str, default=None)
        if threads:
            sp.add_argument("--threads", type=int, default=None)
        if exponent:
            sp.add_argument("--N", type=int, default=None)
            sp.add_argument("--L", type=int, default=None)

    sp = sub.add_parser("verify-paper",
                        help="re-derive the built-in reference values")
    common(sp, settings=True, threads=True, exponent=True)
    sp.add_argument("--override", action="append", default=None,
                    metavar="P11=q0 q1 q2 q3",
                    help="replace a generator entry (negative testing)")

    sp = sub.add_parser("classify", help="trace classification of one view")
    common(sp)
    sp.add_argument("matrix")
    sp.add_argument("--k", type=int, default=None, choices=(0, 1, 2, 3))

    sp = sub.add_parser("repr", help="regular representation matrix")
    common(sp)
    sp.add_argument("matrix")
    sp.add_argument("--kappa", type=int, default=None, choices=(2, 3, 4))

    sp = sub.add_parser("margin", help="discreteness margin scan")
    common(sp, settings=True, threads=True, exponent=True)

    sp = sub.add_parser("certify", help="ping-pong freeness certificate")
    common(sp, settings=True, exponent=True)

    sp = sub.add_parser("search", help="bounded limit-candidate search")
    common(sp, settings=True)
    sp.add_argument("--bound", type=int, default=None)
    sp.add_argument("--count", type=int, default=None)

    sp = sub.add_parser("conjugate", help="conjugation record by Q^n")
    common(sp)
    sp.add_argument("matrix")
    sp.add_argument("--n", type=int, default=None)

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
    path = getattr(args, "config", None)
    try:
        config = _parse_config(path) if path else {}
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        rep = COMMANDS[args.command](args, config)
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
