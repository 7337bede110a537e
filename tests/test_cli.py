"""Command-line surface: exit codes, formats, schema validity."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quartic
from quartic import cli, construction, probe, projective
from quartic.cli import main

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
SCHEMA = json.loads((DOCS / "report_schema.json").read_text())

Q_TEXT = "3 0 2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    blob = json.loads(out)
    jsonschema.validate(blob, SCHEMA)
    return code, blob


def test_classify_reference_example(capsys):
    code, blob = run_json(capsys, "classify", Q_TEXT, "--k", "1")
    assert code == 0
    assert blob["results"][0]["value"]["class"] == "elliptic"


def test_classify_default_view(capsys):
    code, blob = run_json(capsys, "classify", Q_TEXT)
    assert code == 0
    assert blob["results"][0]["value"]["class"] == "hyperbolic"


def test_parse_error_exit_two(capsys):
    code = main(["classify", "3 0 2 0; 1 0 0 0; -1 0 0 0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "4 ';'-separated entries" in err


def test_entry_position_in_parse_error(capsys):
    code = main(["classify", "3 0 2 0; 1 0; -1 0 0 0; 0 0 0 0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "entry 2" in err


def test_repr_kappa4(capsys):
    code, blob = run_json(capsys, "repr",
                          "5 -3 1 -2; 1 0 0 0; -1 0 0 0; 0 0 0 0",
                          "--kappa", "4")
    assert code == 0
    grid = blob["results"][0]["value"]
    assert grid[0] == ["5", "-4", "2", "-6", "1", "0", "0", "0"]
    assert blob["results"][1]["value"] == "1"


def test_repr_kappa3_cubic_entries(capsys):
    code, blob = run_json(capsys, "repr",
                          "1 0 0; 0 1 0; 0 0 0; 1 0 0", "--kappa", "3")
    assert code == 0
    assert len(blob["results"][0]["value"]) == 6


def test_margin_command(capsys):
    code, blob = run_json(capsys, "margin", "--N", "2", "--L", "2")
    assert code == 0
    val = blob["results"][0]["value"]
    assert val["N"] == 2 and val["L"] == 2
    assert float(val["margin"][0]) > 0
    assert set(val["factors"]) == {"s0", "s1", "s2"}


def test_certify_command(capsys):
    code, blob = run_json(capsys, "certify", "--N", "3", "--L", "4")
    assert code == 0
    names = [r["name"] for r in blob["results"]]
    assert "pingpong_certificate" in names and "word_crosscheck" in names


def test_certify_depth_up_to_the_margin_cap(capsys):
    code, blob = run_json(capsys, "certify", "--L", "12")
    assert code == 0
    check = blob["results"][1]["value"]
    assert check == {"depth": 12, "words": 1062880, "identity_hits": []}
    assert main(["certify", "--L", "13", "--json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DepthTooLarge: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [1, 2])
def test_certify_at_an_uncertified_exponent_fails_the_check(n, monkeypatch,
                                                            capsys):
    """No radius certifies the paper pair at N = 1 or 2: that is a failed
    check, not bad input.  The report is whole, its certificate row fails
    and names the exponent, and the words are still cross-checked at it."""
    exponents = []
    real = probe._generator_powers

    def spy(k, pair=None):
        exponents.append(k)
        return real(k, pair)

    monkeypatch.setattr(probe, "_generator_powers", spy)
    code, blob = run_json(capsys, "certify", "--N", str(n))
    assert code == 1
    assert blob["inputs"] == {"N": n}
    assert blob["results"] == [
        {"name": "pingpong_certificate", "verdict": "fail",
         "value": {"N": n, "balls": [], "problems": [
             f"no ping-pong certificate at exponent {n}"]}},
        {"name": "word_crosscheck", "verdict": "pass",
         "value": {"depth": 8, "words": 13120, "identity_hits": []}},
    ]
    assert blob["summary"] == {"fail": 1, "pass": 1}
    assert exponents == [n]


def test_search_command(capsys):
    code, blob = run_json(capsys, "search", "--bound", "1", "--count", "3")
    assert code == 0
    cands = blob["results"][0]["value"]
    assert len(cands) == 3
    assert "matrix" in cands[0]


def test_conjugate_command(capsys):
    code, blob = run_json(capsys, "conjugate", Q_TEXT, "--n", "2")
    assert code == 0
    rec = blob["results"][0]["value"]
    assert rec["n"] == 2 and rec["closed_forms_match"]


def test_probe_inequality_command(capsys):
    code, blob = run_json(capsys, "probe-inequality", Q_TEXT, "--which", "13")
    assert code == 0
    assert blob["results"][0]["verdict"] == "probe-only"


# sha256 of the stdout of each command on SIGNED_TEXT, whose sigma2 view has
# signed shifted entries, so every gamma/delta branch runs.  These outputs
# print Q(sqrt2) values (a_n..d_n, probe 14's C and D) as 'u + v*sqrt2'.
SIGNED_TEXT = "9 -7 7 -6; 28 -22 17 -15; 1 0 1 -2; 7 -5 1 -1"
GOLDEN = {
    ("conjugate", "--n", "0"):
        "6c63e3ddff5dc08d80a4e61340bff3478c5827c947b9cff938142f6e7b52199b",
    ("conjugate", "--n", "1"):
        "c67d08afc81e6ea615cdb330311bb9e20c7c0adb65b06d1c8031aed14befbd87",
    ("conjugate", "--n", "2"):
        "569f68571ee0a3eee2213a70cace83518ce15cd8fc8b29090000d008b237b74f",
    ("conjugate", "--n", "3"):
        "4e8e9779b05dcdb8527a8c1456694f112b6e6f0b8336db4d29b64985c64d47ed",
    ("conjugate", "--n", "4"):
        "2792615c277f352d9d08de7ff989135fcca8d77e420f503d206457d4acc77d2c",
    ("probe-inequality", "--which", "4"):
        "7e88638f8e2fb957b2412b594b792feed1667614c35f746438d40a0e1dae706a",
    ("probe-inequality", "--which", "6"):
        "104dbc80bfcc1858f1dfa93ea162bf71288c5d98be9dec9128ca40f7aa6e1ed4",
    ("probe-inequality", "--which", "7"):
        "dbc4cc63d762c2c75b50fef00a492bd044448a2ed9bcc33e7592f68cd05a61e6",
    ("probe-inequality", "--which", "8"):
        "43401bf11bd10470e39a90a4ce28912041ec7bcdfad5de82a935fddf7f8fc84d",
    ("probe-inequality", "--which", "9"):
        "5f17549c9000ed0698ac6890b29d338573930fc015ab44e07cad9450b3929a82",
    ("probe-inequality", "--which", "10"):
        "8cfd514691a46e38090d9306fa182188c9c5d061997d77529848caec725ac991",
    ("probe-inequality", "--which", "11"):
        "4aefc046c3e010e6efdd23b4f46344173324ccbc6d24b98d6b95c27db29dd98f",
    ("probe-inequality", "--which", "13"):
        "7906664a548bb54e774f6241b3ed6749d7c2914a27b850500e4fc9164b9d2b99",
    ("probe-inequality", "--which", "14"):
        "50f14c10d4cae6ea38f958d295c6db5c2b6bd9806042b2c12b679e77017d2673",
    ("repr", "--kappa", "4"):
        "e866b65f6e358d2aa7f552091ded57aa4758e2ff54ad215ae4dfd24a7e7e08a2",
    ("classify", "--k", "0"):
        "95872de29bd7c04bd9c8883531cebc7d11382bb71e7eac321823dcef3a679552",
    ("classify", "--k", "1"):
        "3abff594b4fb7f5b47876f43f96ba159404b13ffd704e93b5cf39a3c1c9e5d32",
    ("classify", "--k", "2"):
        "244f90d794f8d5d7faa11c59776507149d9a06254982a25b3c90bce7045f9338",
    ("classify", "--k", "3"):
        "74af506fd292e4591a408ff7e59bfb6eb0ac13a89670d626c8f70bfb9acf85fc",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN),
                         ids=lambda argv: "-".join(argv[::2]))
def test_signed_matrix_outputs_match_golden(argv, capsys):
    command, option, value = argv
    code, out = run(capsys, command, SIGNED_TEXT, option, value, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


# sha256 of `probe-inequality --json` stdout on the paper's P for every
# probeable inequality: distances, ratios and moduli print as enclosures
P_TEXT = "5 -3 1 -2; 1 0 0 0; -1 0 0 0; 0 0 0 0"
PROBE_P_GOLDEN = {
    "4": "db04093dc7d7a644b7f195267f58c0206c9f071e2fdd50585c51a18bc722a23a",
    "6": "72d269c6501fe7d8aeb077f2486a89e1f2d29c117988e9ae1b458ff7e7c1bcd2",
    "7": "21a060aea6db365588439e9de148d2cdc7c1aea213f1e1c54468f4ce500068a9",
    "8": "fba8e877a3ea398de993a468c76bee54ad4f8feda082915546587259b38ede7f",
    "9": "a2aa988470d6615445aa0454fbf3ecce3ecfab1473c94ba289f72e1cac626adb",
    "10": "04957c3096196abcba4f6a801e0c78423359f0ca517f9108522b62bff3bf6e2d",
    "11": "8fc1246f44bb5bdab6239e8bdfc904eea930d3dbe34e8675a44fdba1ab5c17bf",
    "13": "4ea1b52d269deff1e0c24c3e0b28f95816c79de981419160a407d2b9d281a579",
    "14": "fed9394b60123656153acd97f8e85299880a5f05bef0e7272b1367509ad19c6e",
}


@pytest.mark.parametrize("which", sorted(PROBE_P_GOLDEN, key=int))
def test_probe_inequality_on_p_matches_golden(which, capsys):
    code, out = run(capsys, "probe-inequality", P_TEXT, "--which", which,
                    "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROBE_P_GOLDEN[which]


# sha256 of `repr --json` stdout on matrices whose entries carry different
# denominators, so the image is built over a common denominator.
REPR_GOLDEN = [
    ("1/2 0 1/3 0; 1 0 0 0; -1 0 0 0; 0 0 0 0", "2",
     "649f8d2ec60f81d4b2d56df715cf886e784b20f1a1206ad1eb71b60b71ae04ce"),
    ("1/2 0 1/3 0; 1 0 0 0; -1 0 0 0; 0 0 0 0", "4",
     "4385ee04f5752798fda712f7bbedf7a1a9770af5d5ae6c847f642ee9d43ac2c5"),
    ("1/2 0 0 0; 1/3 0 1/5 0; 3 0 0 0; 4 0 6/5 0", "2",
     "d461c00f7ec9aa1e6ee398de1b8607afbfe6e9095b571c7996d47b2a7395352a"),
    ("1/2 0 0 0; 1/3 0 1/5 0; 3 0 0 0; 4 0 6/5 0", "4",
     "709dc32a890c7b85197908cf1c81c2b9b694b361d02e48428028057197237408"),
    ("1/2 1/3 0 -1/4; 1 0 0 0; -1 0 0 0; 0 0 0 0", "4",
     "8aa7c658e5a24ae355e1f010553262f7830a570d50e98b5421958f8ef75a7b20"),
]


@pytest.mark.parametrize("text, kappa, digest", REPR_GOLDEN,
                         ids=[f"{i}-kappa{row[1]}"
                              for i, row in enumerate(REPR_GOLDEN)])
def test_repr_fractional_outputs_match_golden(text, kappa, digest, capsys):
    code, out = run(capsys, "repr", text, "--kappa", kappa, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `margin --json` stdout, recorded before the scan pruned whole
# subtrees: per_depth, the ties and the witness must not move.
MARGIN_GOLDEN = {
    ("--N", "3", "--L", "8"):
        "6f3daa41e3426920b201b5d10c14889990d841d34e746ef24e3e0fb99c63b51e",
    ("--N", "3", "--L", "10"):
        "4b2c8bd73d331c4930814bc99205880edff29ca0fb3cb093741719a7282e27be",
    # the depth cap
    ("--N", "3", "--L", "12"):
        "b6d191ff4f84a27ed36272f0df7acc361c0643a500ef87e9d62274084ae88412",
    ("--N", "2", "--L", "5"):
        "c03ec208b80ba0b23b71020926609e2f6e6441d8d496970ad19ef5d417710da9",
}


@pytest.mark.parametrize("argv", sorted(MARGIN_GOLDEN),
                         ids=lambda argv: "N{}-L{}".format(*argv[1::2]))
def test_margin_outputs_match_golden(argv, capsys):
    code, out = run(capsys, "margin", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MARGIN_GOLDEN[argv]


def test_unknown_inequality_rejected(capsys):
    code = main(["probe-inequality", Q_TEXT, "--which", "12"])
    assert code == 2


def test_bad_config_exit_two(monkeypatch, capsys):
    """An out-of-range setting or an unparseable entry exits 2 before any
    work: the exponent search never runs, nor does any verify-paper
    check."""
    calls = []
    real = projective.free_pair_power

    def spy(*pair):
        calls.append(argv)
        return real(*pair)

    monkeypatch.setattr(projective, "free_pair_power", spy)
    for argv in (["margin", "--L", "0"],
                 ["margin", "--L", "13"],
                 ["margin", "--N", "0", "--L", "2"],
                 ["certify", "--N", "3", "--L", "0"],
                 ["certify", "--N", "0"],
                 ["search", "--bound", "1", "--count", "0"],
                 # 0 is not read as unset: no check runs, no report
                 ["verify-paper", "--N", "0"],
                 ["verify-paper", "--L", "0"],
                 ["verify-paper", "--L", "13"],
                 # a zero denominator is named as one
                 ["classify", "1/0 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"],
                 ["verify-paper", "--override", "P11=1/0 0 0 0"],
                 ["repr", "--kappa", "3", "1/0 0 0; 0 1 0; 0 0 0; 1 0 0"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        # one error line, no traceback
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == "", argv
        assert ("zero denominator in '1/0'" in err) == ("1/0" in str(argv))
    assert calls == []


def test_conjugate_power_beyond_the_cap_exit_two(monkeypatch, capsys):
    """|n| above the cap exits 2 with one error line before Q^n is built."""
    calls = []
    monkeypatch.setattr(construction, "paper_generators",
                        lambda: calls.append(1))
    cap = construction.CONJUGATION_N_CAP
    for n in (cap + 1, -(cap + 1)):
        assert main(["conjugate", Q_TEXT, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: ValueError: |n| = {cap + 1} beyond cap {cap}\n"
        assert out == ""
    assert calls == []


def test_search_bound_beyond_the_cap_exit_two(monkeypatch, capsys):
    """A bound above the cap exits 2 with one error line before any rank
    table is built."""
    from quartic import limits
    calls = []
    monkeypatch.setattr(limits, "_rank_tables", calls.append)
    cap = limits.SEARCH_BOUND_CAP
    assert main(["search", "--bound", str(cap + 1)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: ValueError: bound {cap + 1} beyond cap {cap}\n"
    assert out == ""
    assert calls == []


def test_certify_exponent_beyond_the_cap_exit_two(monkeypatch, capsys):
    """An exponent above the cap exits 2 with one error line before the
    certificate search starts."""
    from quartic import pingpong
    calls = []
    monkeypatch.setattr(projective, "_PairSearch",
                        lambda *pair: calls.append(pair))
    cap = pingpong.EXPONENT_CAP
    assert main(["certify", "--N", str(cap + 1)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: ValueError: exponent {cap + 1} beyond cap {cap}\n"
    assert out == ""
    assert calls == []


# sha256 of the stdout of `conjugate LONG_ENTRY --n 1 --json`, as it was
# before the digit check
LONG_ENTRY = "1" + "0" * 1500 + " 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"
LONG_ENTRY_N1_SHA = (
    "caae349d1299b7b4d30cbe417097e30bda764514a8f08f11db93d478ce7331f2")


def test_conjugate_past_the_digit_limit_exit_two(monkeypatch, capsys):
    """An entry of 1501 digits: at |n| = 2000 and 4000 the conjugate has
    entries longer than CPython's 4300-digit limit on int-to-text
    conversion, so conjugate exits 2 with one error line naming the entry
    size and the limit, and no record is built.  At n = 1 the record
    prints as before.  With one digit more, at n = 1861, the conjugates
    have 4300 digits and an S value 4301: the record is refused once its S
    values are known."""
    code, out = run(capsys, "conjugate", LONG_ENTRY, "--n", "1", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_ENTRY_N1_SHA
    assert main(["conjugate", "1" + LONG_ENTRY, "--n", "1861"]) == 2
    out, err = capsys.readouterr()
    assert err == ("error: ValueError: |n| = 1861 on entries below 10^1502: "
                   "the record's entries pass the 4300-digit limit on "
                   "int-to-text conversion\n")
    assert out == ""
    built = []
    monkeypatch.setattr(construction, "ConjugationRecord",
                        lambda **fields: built.append(fields))
    for n in (2000, 4000, -4000):
        assert main(["conjugate", LONG_ENTRY, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert err == (f"error: ValueError: |n| = {abs(n)} on entries below "
                       "10^1501: the record's entries pass the 4300-digit "
                       "limit on int-to-text conversion\n")
        assert out == ""
    assert built == []


def test_option_on_wrong_command_exit_two(capsys):
    for argv in (["classify", Q_TEXT, "--threads", "2"],
                 ["conjugate", Q_TEXT, "--config", "x.cfg"],
                 ["margin", "--threads", "2"],
                 ["certify", "--config", "f"]):
        assert main(argv) == 2


def _verdicts(blob) -> dict:
    return {r["name"]: r["verdict"] for r in blob["results"]}


def test_verify_paper_shares_the_eigenvector_verdict(monkeypatch, capsys):
    """The sigma2_no_common_eigenvector row reads the verdict of
    ``check_conditions``: one verify-paper run asks about shared
    eigenvectors three times, not a fourth time for the row.
    ``check_conditions`` asks about the pair, its north-south test about
    a b a^-1 against b for the sigma2 views a and b, and the certificate
    search about a and b."""
    # load every module that looks the name up
    from quartic import linalg, verify  # noqa: F401
    calls = []
    real = linalg.share_eigenvector

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "quartic"
                and getattr(module, "share_eigenvector", None) is real):
            monkeypatch.setattr(module, "share_eigenvector", spy)
    code, blob = run_json(capsys, "verify-paper")
    assert code == 0
    assert _verdicts(blob)["sigma2_no_common_eigenvector"] == "pass"
    p, q = construction.paper_generators()
    a, b = p.real_view(), q.real_view()
    assert calls == [(p, q), (a * b * a.inv(), b), (a, b)]


def test_verify_paper_eigen_data_count(monkeypatch, capsys):
    """One verify-paper run takes the eigen data of a 2x2 view three times:
    once for the lambda row's Q and twice for the fixed points of the
    certificate search.  The checker takes none: it tests each center by
    its fixed-point equation, and the north-south test of
    ``check_conditions`` none: it decides by a resultant."""
    from quartic import eigen, pingpong, verify  # noqa: F401
    calls = []
    real = eigen.eigen2

    def spy(a):
        calls.append(a)
        return real(a)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "quartic"
                and getattr(module, "eigen2", None) is real):
            monkeypatch.setattr(module, "eigen2", spy)
    code, _ = run_json(capsys, "verify-paper")
    assert code == 0
    p, q = construction.paper_generators()
    assert calls == [q, p.real_view(), q.real_view()]


@pytest.mark.parametrize("entry", ["1 0 0 0", "2 0 0 0"])
def test_override_non_hyperbolic_q_fails_lambda_check(entry, capsys):
    """An elliptic (trace 1) or parabolic (trace 2) Q has no real
    eigenvalue pair: lambda_plus_inverse fails and the report is whole."""
    code, blob = run_json(capsys, "verify-paper", "--override",
                          f"Q11={entry}")
    assert code == 1
    verdicts = _verdicts(blob)
    assert verdicts["lambda_plus_inverse"] == "fail"
    assert "margin_positive" in verdicts


COMPANION_OVERRIDES = ("P11=0 -4 6 6", "Q11=-5 -4 3 3", "Q12=-4 -4 3 3",
                       "Q22=-1 0 0 0")


def test_override_pair_without_certificate_reports_failure():
    """A pair no radius can certify fails the freeness check with the
    reason, in a fresh process, well within a minute."""
    src = str(pathlib.Path(quartic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "quartic.cli", "verify-paper", "--json"]
    for spec in COMPANION_OVERRIDES:
        argv += ["--override", spec]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    blob = json.loads(proc.stdout)
    jsonschema.validate(blob, SCHEMA)
    freeness = next(r for r in blob["results"]
                    if r["name"] == "freeness_certificate")
    assert freeness["verdict"] == "fail"
    assert "every radius" in freeness["value"]


@pytest.mark.parametrize("overrides, reason", [
    # P the identity: a scalar, parabolic in every view
    ({"P11": "1 0 0 0", "P12": "0 0 0 0", "P21": "0 0 0 0", "P22": "1 0 0 0"},
     "first generator is not hyperbolic in the sigma2 view"),
    # upper triangular P and Q share the eigenvector (1, 0)
    ({"P11": "2 0 0 0", "P12": "1 0 0 0", "P21": "0 0 0 0",
      "P22": "1/2 0 0 0", "Q11": "3 0 0 0", "Q12": "0 0 0 0",
      "Q21": "0 0 0 0", "Q22": "1/3 0 0 0"},
     "sigma2 views share an eigenvector"),
])
def test_override_pair_outside_the_hypotheses_reports_the_reason(
        overrides, reason, capsys):
    """A pair that fails a ping-pong hypothesis fails the freeness check
    with the hypothesis it fails, and the report is whole."""
    argv = ["verify-paper"]
    for name, coeffs in overrides.items():
        argv += ["--override", f"{name}={coeffs}"]
    code, blob = run_json(capsys, *argv)
    assert code == 1
    freeness = next(r for r in blob["results"]
                    if r["name"] == "freeness_certificate")
    assert (freeness["verdict"], freeness["value"]) == ("fail", reason)
    assert "margin_positive" in _verdicts(blob)


# the last two leave Q with determinant 2 and 0: rejected before any check
@pytest.mark.parametrize("spec", ["Q33=1 0 0 0", "P11", "P11=1 x 0 0",
                                  "Q21=-2 0 0 0", "Q21=0 0 0 0"])
def test_malformed_override_exit_two(spec, capsys):
    assert main(["verify-paper", "--override", spec]) == 2
    captured = capsys.readouterr()
    assert "override" in captured.err and captured.out == ""


_COEFFS = st.lists(st.integers(-6, 6), min_size=4, max_size=4).map(
    lambda c: " ".join(map(str, c)))


@settings(max_examples=15)
@given(st.dictionaries(st.sampled_from(["P11", "Q11"]), _COEFFS, min_size=1))
def test_det_one_overrides_finish_the_report(overrides):
    """P22 = Q22 = 0, so any P11 or Q11 keeps determinant one: every such
    pair runs every check and exits 0 or 1 with a whole report."""
    argv = ["verify-paper", "--json"]
    for name, coeffs in overrides.items():
        argv += ["--override", f"{name}={coeffs}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1), argv
    jsonschema.validate(json.loads(out.getvalue()), SCHEMA)


@pytest.mark.parametrize("as_json", [True, False])
def test_rational_det_one_override_finishes_the_report(as_json, capsys):
    """Q12 = 2 and Q21 = -1/2 keep determinant one, and psi(Q) then has
    entries -1/2: the display check reports them as "p/q" text in both
    output modes."""
    argv = ["verify-paper", "--override", "Q12=2 0 0 0",
            "--override", "Q21=-1/2 0 0 0"]
    if as_json:
        code, blob = run_json(capsys, *argv)
        display = next(r for r in blob["results"]
                       if r["name"] == "psi_q_display")
        assert [5, 1, "-1/2", -1] in display["value"]["mismatches"]
        assert [4, 4, 3, 0] in display["value"]["mismatches"]
    else:
        code, out = run(capsys, *argv)
        assert '[5, 1, "-1/2", -1]' in out and "summary:" in out
    assert code == 1


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_quietly(unbuffered):
    """A reader that closes the pipe before the report is written gets no
    traceback: the command exits 141 with nothing on stderr, whether the
    write fails in print or in the flush after it."""
    src = str(pathlib.Path(quartic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quartic.cli", "conjugate", Q_TEXT, "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141


# stdlib modules that only code generation needs; no command may load them
_GENERATION = {"dataclasses", "inspect"}


def _loaded_modules(argv) -> set[str]:
    """The quartic modules, and those of ``_GENERATION``, loaded in a fresh
    process after importing the CLI and running main(argv) if argv is not
    empty."""
    src = str(pathlib.Path(quartic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys\n"
            "from quartic.cli import main\n"
            f"if {argv!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        main({argv!r})\n"
            "print(*(m for m in sys.modules if m.split('.')[0] == 'quartic'\n"
            f"        or m in {sorted(_GENERATION)!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_command_import_sets():
    """Each command loads exactly the modules it runs, so none compiles
    code it never calls; none loads the stdlib's code generation.  Checked
    in fresh processes, since this test module has imported probe and
    projective."""
    def mods(*names):
        return {f"quartic.{m}" for m in names}

    shared = {"quartic"} | mods("cli", "errors", "intervals", "linalg",
                                "record", "report", "ring")
    assert _loaded_modules([]) == shared
    search = _loaded_modules(["search", "--bound", "1", "--count", "2",
                              "--json"])
    assert search == shared | mods("limits")
    certify = _loaded_modules(["certify", "--json"])
    assert certify == shared | mods("probe", "projective", "pingpong",
                                    "eigen", "extension")
    margin = _loaded_modules(["margin", "--N", "2", "--L", "3"])
    assert margin == certify | mods("margin")
    verify = _loaded_modules(["verify-paper", "--json"])
    assert verify == margin | mods("verify", "construction", "cubic",
                                   "regular")
    # probe 4, the one that measures chordal distances, takes them from
    # eigen; the gamma/delta split the probes read lives in construction
    inequality = shared | mods("inequality", "construction", "eigen",
                               "extension")
    for which in ("13", "4"):
        assert _loaded_modules(["probe-inequality", Q_TEXT, "--which",
                                which]) == inequality
    # the benchmark's set-up takes the pair from construction, which
    # loads no module the pair does not need
    src = str(pathlib.Path(quartic.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "from quartic.construction import paper_generators\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] == 'quartic')\n"
            "from quartic import linalg\n"
            "print(paper_generators() == linalg.paper_generators(), *loaded)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", *sorted({"quartic"} | mods(
        "construction", "errors", "intervals", "linalg", "record", "ring"))]


# the summed lines of the module files a standalone certificate check
# loads: the checker's trusted base, which should only fall
TRUSTED_BASE_LINES = 1329


def test_certificate_check_import_set():
    """A standalone check of the N = 3 certificate text, ``from_json`` and
    ``verify_certificate``, loads only the checker's trusted base:
    ``pingpong`` and the arithmetic it imports, none of the search and no
    eigen data.  The base's size is pinned, so any growth is a visible
    change of ``TRUSTED_BASE_LINES``."""
    p, q = construction.paper_generators()
    text = projective.certify_exponent(p.real_view(), q.real_view(),
                                       3).to_json_text()
    src = str(pathlib.Path(quartic.__file__).resolve().parent.parent)
    code = ("import json, sys\n"
            "from quartic.pingpong import PingPongCertificate, "
            "verify_certificate\n"
            "cert = PingPongCertificate.from_json(json.load(sys.stdin))\n"
            "loaded = {m: sys.modules[m].__file__ for m in sys.modules\n"
            "          if m.split('.')[0] == 'quartic' or m in "
            f"{sorted(_GENERATION)!r}}}\n"
            "lines = sum(len(open(f).readlines()) for f in loaded.values())\n"
            "print(verify_certificate(cert) == (True, []), lines, "
            "*sorted(loaded))")
    out = subprocess.run([sys.executable, "-c", code], input=text,
                         check=True, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", str(TRUSTED_BASE_LINES), "quartic", *sorted(
        f"quartic.{m}" for m in ("pingpong", "extension", "intervals",
                                 "linalg", "record", "ring", "errors"))]


def test_certify_reuses_the_searched_certificate(monkeypatch, capsys):
    """The exponent search ends on a certificate at its exponent; certify
    cross-checks that one instead of building it again."""
    exponents = []
    real = projective.certify_exponent

    def spy(a, b, n, sep=None):
        exponents.append(n)
        return real(a, b, n, sep)

    monkeypatch.setattr(projective, "certify_exponent", spy)
    monkeypatch.setattr(probe, "certify_exponent", spy)
    code, blob = run_json(capsys, "certify")
    assert code == 0
    assert exponents == [1, 2, 4, 3]
    assert blob["inputs"] == {"N": 3}
    exponents.clear()
    code, again = run_json(capsys, "certify", "--N", "3")
    assert exponents == [3]
    assert again == blob
