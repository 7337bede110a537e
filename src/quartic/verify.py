"""verify-paper: re-derive the paper's reference values for the generator
pair, or for the pair after ``--override`` replaces some entries.

Only the verify-paper command imports this module, so no other command
compiles its reference data and checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import construction, pingpong, probe, projective
from .eigen import eigen2
from .errors import QuarticError, UsageError
from .extension import QuadExt
from .intervals import interval_json
from .linalg import MatClass, RingMat2, classify
from .margin import discreteness_margin
from .regular import regular_rep
from .report import ERRATUM, FAIL, PASS, Report
from .ring import ONE, QuarticElem, field_quantity_N, sqrt2_text


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
        except ValueError as exc:
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


def _random_word_matrix(rng: random.Random, p: RingMat2,
                        q: RingMat2) -> RingMat2:
    gens = [p, p.inv(), q, q.inv()]
    out = RingMat2.identity()
    for _ in range(rng.randint(1, 6)):
        out = out * gens[rng.randrange(4)]
    return out


def cmd_verify_paper(args) -> Report:
    rep = Report("verify-paper")
    # 0 is a setting, not an unset one: reject it, and a depth out of
    # range, before any check runs
    if args.N is not None and args.N < 1:
        raise UsageError(f"N must be at least 1, got {args.N}")
    probe.check_depth(args.L)
    p, q = construction.paper_generators()
    p, q = _apply_overrides(p, q, args.override)
    rep.inputs = {"overrides": args.override or []}

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
    # no regular representation equals the display, whose (4,4) entry
    # breaks the constant diagonal of a block
    if diff == [(4, 4, 3, 0)]:
        rep.add("psi_q_display", ERRATUM,
                value={"position": [4, 4], "computed": 3, "displayed": 0},
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

    cond = construction.check_conditions(p, q, 2, 2)
    rep.add("sigma2_no_common_eigenvector", PASS if cond.condition1 else FAIL,
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

    cond_ok = (cond.condition1 and cond.condition2
               and cond.condition3_first and cond.condition3_second)
    rep.add("conditions_1_to_3", PASS if cond_ok else FAIL,
            value=cond.to_json(), anchor="fixed-point and commutator conditions")

    # freeness certificate and margin
    try:
        cert = projective.free_pair_power(p, q)
        cert_ok, problems = pingpong.verify_certificate(cert)
        rep.add("freeness_certificate", PASS if cert_ok else FAIL,
                value={"N": cert.exponent, "problems": problems},
                anchor="ping-pong certificate for the third-view pair")
        n_default = cert.exponent if args.N is None else args.N
    except QuarticError as exc:
        rep.add("freeness_certificate", FAIL, value=str(exc),
                anchor="ping-pong certificate for the third-view pair")
        n_default = 1 if args.N is None else args.N

    margin = discreteness_margin(n_default, args.L, pair=(p, q))
    margin_pos = margin.margin[0] > 0
    rep.add("margin_positive", PASS if margin_pos else FAIL,
            value={"N": n_default, "L": args.L,
                   "margin": interval_json(margin.margin),
                   "witness": str(margin.witness)},
            anchor="discreteness margin at the default depth")
    return rep
