"""Acceptance criteria, one test per criterion, exact tolerances.

Every check here is exact unless the value itself is irrational, in which
case a validated interval bounded away from the threshold is required.
Each test prints one pass line (visible with -s) plus its wall time.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from quartic.construction import (
    cheb_value,
    conjugation_record,
    make_signed_sigma2_matrix,
    paper_generators,
    trace_matches_chebyshev,
)
from quartic.linalg import MatClass, classify, share_eigenvector
from quartic.margin import discreteness_margin
from quartic.pingpong import verify_certificate
from quartic.probe import freeness_certificate, word_count
from quartic.projective import free_pair_power
from quartic.regular import regular_rep
from quartic.limits import (
    LimitCandidate,
    check_limit_conditions,
    search_limit_candidates,
)
from quartic.ring import QuarticElem, field_quantity_N
from quartic.verify import (
    PSI_P_REFERENCE,
    PSI_Q_DISPLAYED,
    _random_sl2,
    _random_word_matrix,
)

from dominance_reference import analyze_dominance, hyperbolic_like
from margin_reference import dual_smallness_scan, torsion_probe
from regular_reference import charpoly_fraction, embedded_charpoly_product
from word_reference import random_word_matrix

P, Q = paper_generators()


def report(number: int, label: str, started: float) -> None:
    print(f"PASS criterion {number:2d} ({time.monotonic() - started:6.1f}s): {label}")


@pytest.fixture(scope="module")
def certified():
    return free_pair_power(P, Q)


def test_criterion_01_displayed_representations():
    t0 = time.monotonic()
    got_p = regular_rep(P, 4).to_int_grid()
    assert got_p == PSI_P_REFERENCE
    got_q = regular_rep(Q, 4).to_int_grid()
    mismatches = [(i + 1, j + 1) for i in range(8) for j in range(8)
                  if got_q[i][j] != PSI_Q_DISPLAYED[i][j]]
    assert mismatches == [(4, 4)]
    assert got_q[3][3] == 3 and PSI_Q_DISPLAYED[3][3] == 0
    report(1, "displayed 8x8 matrices, with the row-4 erratum flagged", t0)


def test_criterion_02_multiplicativity():
    t0 = time.monotonic()
    rng = random.Random(101)
    for _ in range(200):
        a = _random_word_matrix(rng, P, Q)
        b = _random_word_matrix(rng, P, Q)
        assert regular_rep(a * b, 4) == regular_rep(a, 4) * regular_rep(b, 4)
    for _ in range(50):
        a, b = _random_sl2(rng, 2), _random_sl2(rng, 2)
        assert regular_rep(a * b, 2) == regular_rep(a, 2) * regular_rep(b, 2)
    for _ in range(50):
        a, b = _random_sl2(rng, 3), _random_sl2(rng, 3)
        assert regular_rep(a * b, 3) == regular_rep(a, 3) * regular_rep(b, 3)
    report(2, "representation multiplicativity for ranks 8, 4 and 6", t0)


def test_criterion_03_classification_table():
    t0 = time.monotonic()
    expected = {
        ("P", 0): MatClass.ELLIPTIC, ("P", 1): MatClass.LOXODROMIC,
        ("P", 2): MatClass.HYPERBOLIC, ("P", 3): MatClass.LOXODROMIC,
        ("Q", 0): MatClass.HYPERBOLIC, ("Q", 1): MatClass.ELLIPTIC,
        ("Q", 2): MatClass.HYPERBOLIC, ("Q", 3): MatClass.ELLIPTIC,
    }
    for (name, k), want in expected.items():
        assert classify(P if name == "P" else Q, k) == want
    report(3, "exact trace classification table", t0)


def test_criterion_04_spectrum_decomposition():
    t0 = time.monotonic()
    rng = random.Random(202)
    for _ in range(50):
        a = random_word_matrix(rng, P, Q, 4)
        lhs = charpoly_fraction([list(r) for r in regular_rep(a, 4).entries])
        assert lhs == embedded_charpoly_product(a)
    assert hyperbolic_like(regular_rep(P, 4)) is not None
    ana = analyze_dominance(regular_rep(Q, 4))
    assert ana.eigen is None and ana.reason == "double maximal eigenvalue"
    report(4, "characteristic polynomial splits over the four views", t0)


def test_criterion_05_norm_formula_vs_oracle():
    t0 = time.monotonic()
    rng = random.Random(303)
    nonzero = 0
    for _ in range(1000):
        x = QuarticElem(*(rng.randint(-30, 30) for _ in range(4)))
        v = field_quantity_N(x)     # raises InternalMismatch on disagreement
        if not x.is_zero():
            nonzero += 1
            assert v >= 1
    assert nonzero > 990
    report(5, "conjugate-norm closed form against the product oracle", t0)


def test_criterion_06_scalar_identities():
    t0 = time.monotonic()
    from quartic.construction import l_squared, l_squared_inverse, lambda_plus_inverse
    assert lambda_plus_inverse() == QuarticElem(3, 0, 2, 0)
    assert l_squared() == QuarticElem(13, 0, 12, 0)
    assert l_squared_inverse() == QuarticElem(
        Fraction(-13, 119), 0, Fraction(12, 119), 0)
    assert all(trace_matches_chebyshev(n) for n in range(1, 31))
    assert cheb_value(0) == QuarticElem(2)
    rng = random.Random(404)

    def rand_pos():
        return QuarticElem(*(rng.randrange(0, 3) for _ in range(4)))

    for _ in range(20):
        a = make_signed_sigma2_matrix(rand_pos() + 1, rand_pos(), rand_pos())
        for n in range(0, 9):
            rec = conjugation_record(a, n)
            assert rec.closed_forms_match, (n, rec.identity_checks)
            assert rec.identity_checks["s1_minus_s1_primed"]
    report(6, "eigenvalue identities and conjugation closed forms", t0)


def test_criterion_07_pingpong_certificate(certified):
    t0 = time.monotonic()
    assert share_eigenvector(P, Q) is False
    assert classify(P, 2) == MatClass.HYPERBOLIC
    assert classify(Q, 2) == MatClass.HYPERBOLIC
    assert 1 <= certified.exponent <= 1 << 16
    ok, problems = verify_certificate(certified)
    assert ok, problems
    report(7, f"ping-pong certificate at exponent {certified.exponent}, "
              "revalidated standalone", t0)


def test_criterion_08_freeness_crosscheck(certified):
    t0 = time.monotonic()
    n = certified.exponent
    cert = freeness_certificate(n, crosscheck_depth=8)
    assert cert.ok(), cert.identity_hits
    assert cert.words_checked == word_count(8) - 1
    report(8, f"no word of length <= 8 in the exponent-{n} pair hits +-identity",
           t0)


def test_criterion_09_margin_positive_and_escape(certified):
    t0 = time.monotonic()
    n = certified.exponent
    rep = discreteness_margin(n, 8)
    assert rep.margin[0] > 0
    uppers = [Fraction(hi, s) for _, (_, hi, s) in rep.per_depth]
    lowers = [lo for _, (lo, _, _) in rep.per_depth]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert all(v > 0 for v in lowers)
    assert len(rep.per_depth) == 8
    assert str(rep.witness)
    scan = dual_smallness_scan(n, 4, 5)
    assert scan.rows, "expected near-identity rows at the generous threshold"
    for row in scan.rows:
        assert row.escape_bound_ok
        assert all(v >= 1 for v in row.entry_norms)
    report(9, "margins positive and monotone, conjugate-norm escape exact", t0)


def test_criterion_10_torsion_probe():
    t0 = time.monotonic()
    res = torsion_probe(P, 10 ** 4)
    assert not res.torsion
    assert res.n_max == 10 ** 4
    report(10, "P has no power within 10^4 equal to +-identity", t0)


def test_criterion_11_limit_checker_and_search():
    t0 = time.monotonic()
    rep = check_limit_conditions(LimitCandidate(P), vi_depth=2)
    assert rep.cond_iv["view1_elliptic"] is False
    assert rep.cond_iv["view3_hyperbolic"] is False
    cands = search_limit_candidates(2, count=8)
    again = search_limit_candidates(2, count=8)
    assert [c.matrix.to_text() for c in cands] == \
        [c.matrix.to_text() for c in again]
    assert cands
    for cand in cands:
        sub = check_limit_conditions(cand, vi_depth=2)
        assert all(sub.cond_iv.values()) and sub.cond_viii
    report(11, "limit checker pinpoints failures; bounded search deterministic",
           t0)


def test_criterion_12_verify_paper_deterministic():
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "quartic.cli", "verify-paper", "--json"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    blob = json.loads(first.stdout)
    verdicts = {r["name"]: r["verdict"] for r in blob["results"]}
    assert verdicts["psi_q_display"] == "erratum"
    assert all(v != "fail" for v in verdicts.values())
    report(12, "verify-paper --json is byte-identical twice", t0)
