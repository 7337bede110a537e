"""Generator pair, conjugation closed forms, trace recursion, Pell table,
inequality probes."""

import hashlib
import json
from fractions import Fraction

import pytest

from quartic.construction import (
    chebyshev,
    check_conditions,
    conjugation_record,
    inequality_probe,
    l_squared,
    l_squared_inverse,
    lambda_plus_inverse,
    make_signed_sigma2_matrix,
    paper_generators,
    pell_divergence,
    trace_matches_chebyshev,
)
from quartic.errors import UnsignedElement
from quartic.linalg import RingMat2
from quartic.ring import ONE, QuadRat, QuarticElem

P, Q = paper_generators()


def signed_test_matrix():
    return make_signed_sigma2_matrix(
        QuarticElem(1, 1, 0, 0), QuarticElem(0, 1, 1, 0), QuarticElem(2, 0, 0, 1))


# ---------------------------------------------------------------------------
# generators


def test_generator_entries():
    assert P.e11.to_text() == "5 -3 1 -2"
    assert P.e12.to_text() == "1 0 0 0"
    assert P.e21.to_text() == "-1 0 0 0"
    assert Q.e11.to_text() == "3 0 2 0"


def test_generator_determinants_and_trace():
    assert P.det() == ONE and Q.det() == ONE
    assert Q.trace() == QuarticElem(3, 0, 2, 0)


# ---------------------------------------------------------------------------
# scalar identities


def test_lambda_identity():
    assert lambda_plus_inverse() == QuadRat(3, 2)


def test_l_squared_identities():
    assert l_squared() == QuadRat(13, 12)
    assert l_squared_inverse() == QuadRat(Fraction(-13, 119), Fraction(12, 119))
    assert l_squared() * l_squared_inverse() == QuadRat(1)


def test_chebyshev_values():
    assert (chebyshev(0).a, chebyshev(0).b) == (2, 0)
    assert (chebyshev(1).a, chebyshev(1).b) == (3, 2)
    assert (chebyshev(2).a, chebyshev(2).b) == (15, 12)


def test_trace_recursion_matches_powers():
    assert all(trace_matches_chebyshev(n) for n in range(1, 31))


# ---------------------------------------------------------------------------
# Pell table


def test_pell_first_gap():
    table = pell_divergence(5)
    r1 = table.rows[0]
    assert r1.pell_norm == 1
    lo, hi, s = r1.gap
    assert Fraction("0.171") < Fraction(lo, s) <= Fraction(hi, s) < Fraction("0.172")


def test_pell_norm_growth_refuted_exactly():
    # |A_n^2 - 2 B_n^2| grows up to n = 17 and then drops: the divergence
    # claim fails at desk scale, and the verdict is exact integer arithmetic
    table = pell_divergence(20)
    assert table.first_norm_decrease == 18
    assert table.monotone_gap_verdict is False
    assert all(r.norm_increased for r in table.rows[1:17])


def test_pell_ratio_shrinks():
    table = pell_divergence(20)
    widths = [Fraction(hi, s) for _, hi, s in (r.ratio_gap for r in table.rows)]
    assert widths[-1] < widths[0]
    assert widths[-1] < Fraction(1, 10 ** 10)


# sha256 of the sorted-key JSON of pell_divergence(20), whose gaps are
# quotients of an integer by an enclosure of A_n + B_n sqrt2
PELL_GOLDEN = (
    "e5a53765637ca8fb2af27f0453bd7cdc8b9b6694605ce58a69f5475c73fc47a6")


def test_pell_divergence_matches_golden():
    blob = json.dumps(pell_divergence(20).to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == PELL_GOLDEN


# ---------------------------------------------------------------------------
# conditions


def test_conditions_reference_pair():
    rep = check_conditions(P, Q, 1, 1)
    assert rep.condition1 and rep.condition2
    assert rep.condition3_first and rep.condition3_second
    assert rep.via_noncommuting


def test_conditions_fail_for_identical_generators():
    rep = check_conditions(P, P, 1, 1)
    assert not rep.condition1


def test_conditions_fail_for_a_scalar_generator():
    # a scalar matrix has no fixed slopes: share_eigenvector raises
    # ScalarMatrix, a QuarticError, and condition 1 reads False
    two = QuarticElem(2)
    rep = check_conditions(RingMat2(two, 0, 0, two), Q, 1, 1)
    assert not rep.condition1 and not rep.condition2
    assert not rep.via_noncommuting


def test_conditions_powers_grid():
    for m in range(1, 6):
        for n in range(1, 6):
            rep = check_conditions(P, Q, m, n)
            assert rep.condition3_first and rep.condition3_second, (m, n)


# ---------------------------------------------------------------------------
# conjugation records


def test_record_at_zero_is_sigma2_view():
    a = signed_test_matrix()
    rec = conjugation_record(a, 0)
    assert rec.direct == a.real_view(2)
    assert rec.a_n == QuadRat(1) and rec.b_n == QuadRat(0)
    assert rec.closed_forms_match


def test_record_a1_value():
    rec = conjugation_record(signed_test_matrix(), 1)
    assert rec.a_n == QuadRat(3, 2)


def test_record_closed_forms_small_n():
    a = signed_test_matrix()
    for n in range(0, 5):
        rec = conjugation_record(a, n)
        assert rec.closed_forms_match, (n, rec.identity_checks)
        assert rec.delta_available


def test_record_r_terms_constant():
    a = signed_test_matrix()
    records = [conjugation_record(a, n) for n in range(1, 9)]
    assert all(r.r1 == records[0].r1 for r in records)
    assert all(r.r2 == records[0].r2 for r in records)


def test_record_displayed_ent21_sign_refuted():
    # the displayed (2,1) closed form carries a sign misprint; the
    # corrected form is what matches the bilinear expansion
    a = signed_test_matrix()
    rec = conjugation_record(a, 2)
    assert rec.identity_checks["ent21_closed_form"]
    assert rec.ent21_displayed_sign_matches is False


def test_record_without_signed_entries():
    # sigma2 of this matrix has the mixed-sign entry 1 - beta
    a = RingMat2(QuarticElem(1), QuarticElem(1, 1, 0, 0),
                 QuarticElem(0), QuarticElem(1))
    rec = conjugation_record(a, 2)
    assert rec.closed_forms_match
    assert not rec.delta_available
    assert rec.s1 is None


def test_record_signed_shifts_of_reference_words():
    # companion products keep their shifted sigma2 entries signed, so the
    # full delta decomposition is available along the generator words
    rec = conjugation_record(P * Q, 2)
    assert rec.closed_forms_match
    assert rec.delta_available


def test_record_random_matrices(rng):
    def rand_pos():
        return QuarticElem(*(rng.randrange(0, 3) for _ in range(4)))
    for _ in range(5):
        a = make_signed_sigma2_matrix(rand_pos() + 1, rand_pos(), rand_pos())
        for n in range(0, 5):
            rec = conjugation_record(a, n)
            assert rec.closed_forms_match, (n, rec.identity_checks)


# ---------------------------------------------------------------------------
# inequality probes


def test_probe_13_exact_sign_sweep():
    rec = inequality_probe(P * Q, 13)
    assert rec.which == 13 and len(rec.items) == 16
    assert all(isinstance(i["exceeds_one"], bool) for i in rec.items)


def test_probe_on_identity_fails_trivially():
    rec = inequality_probe(RingMat2.identity(), 11)
    assert rec.note.startswith("0 of 16")


def test_probe_delta_requires_signed_entries():
    a = RingMat2(QuarticElem(1), QuarticElem(1, 1, 0, 0),
                 QuarticElem(0), QuarticElem(1))
    with pytest.raises(UnsignedElement):
        inequality_probe(a, 11)


def test_probe_4_reports_projective_distances():
    rec = inequality_probe(P * Q, 4)
    defined = [i for i in rec.items if "dist" in i]
    assert defined, rec.items
    for item in defined:
        lo, hi = item["dist"]
        assert float(lo) <= float(hi)


def test_probe_14_extracts_sqrt2_components():
    rec = inequality_probe(signed_test_matrix(), 14)
    item = rec.items[0]
    assert "C" in item and "D" in item
    assert float(item["min_of_pair"][0]) >= 0


def test_probe_6_and_9_and_10_run_on_signed_input():
    a = signed_test_matrix()
    assert inequality_probe(a, 6).items
    assert inequality_probe(a, 9).items[-1]["some_ratio_within_window"] in (True, False)
    assert inequality_probe(a, 10).items
    assert inequality_probe(a, 8).items
    assert inequality_probe(a, 7).items


def test_probe_rejects_unknown_index():
    with pytest.raises(ValueError):
        inequality_probe(P, 12)
