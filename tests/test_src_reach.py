"""Every statement in a ``src/quartic`` function body is reached by some
command or script run, or is on ``ALLOWED`` with its reason.

One fresh child interpreter runs the fixed runs of ``_corpus`` in process,
under a ``sys.settrace`` line tracer limited to ``src/quartic``, so no
cache that earlier tests warmed and no test order can hide a statement.  A statement
counts as reached when a line event fired on a line of its own span outside
the statements nested in it, or when one of those nested statements was
reached (a ``try`` header fires no event on some interpreters).  Docstrings
are not statements.

Run this file as a script to print the lines the corpus reached, as JSON:
  PYTHONPATH=src python tests/test_src_reach.py
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quartic"

Q_TEXT = "3 0 2 0; 1 0 0 0; -1 0 0 0; 0 0 0 0"
P_TEXT = "5 -3 1 -2; 1 0 0 0; -1 0 0 0; 0 0 0 0"
IDENTITY = "1 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"
# e = (beta - 1)^30 is about 2^-72: 2 + e, and the element whose view 2 is e
TINY_PLUS_2 = "4041672873 -3398703066 2857688693 -2402967260"
TINY_SIGMA2 = "4041672871 3398703066 2857688693 2402967260"
# ((beta - 1)^3 / (sqrt2 - 1)^2)^30, about 2^-140 in view 0 and 2^-19 in
# view 1
TINY_TWO_VIEWS = (
    "97790735839871443102142516129055160420297907289492353 "
    "-82231879212770842421758608221625267175376200345159642 "
    "69148492449595447266045592099765408011306077264163041 "
    "-58146719421063357969479628819532933466873522346683904")


def _corpus(tmp: pathlib.Path) -> list:
    """The fixed runs, as ("cli", argv) or ("script", path, argv)."""
    base = [
        ["verify-paper"],
        ["classify", Q_TEXT],
        *(["classify", m, "--k", str(k)]
          for m in (Q_TEXT, P_TEXT) for k in range(4)),
        ["repr", "--kappa", "2", "1 0 2 0; 0 0 1 0; 0 0 0 0; 1 0 0 0"],
        ["repr", "--kappa", "3", "1 0 0; 0 1 0; 0 0 0; 1 0 0"],
        ["repr", "--kappa", "3", "1/2 1 0; 0 1 0; 0 0 1; 2 0 1/3"],
        ["repr", "--kappa", "4", Q_TEXT],
        ["repr", Q_TEXT],
        ["margin", "--N", "2", "--L", "3"],
        ["certify", "--L", "4"],
        ["search", "--bound", "1", "--count", "3"],
        ["conjugate", Q_TEXT],
        ["conjugate", Q_TEXT, "--n", "2"],
        *(["probe-inequality", Q_TEXT, "--which", str(w)]
          for w in (4, 6, 7, 8, 9, 10, 11, 13, 14)),
    ]
    runs = [r + fmt for fmt in ([], ["--json"]) for r in base]
    runs += [
        ["margin", "--L", "3", "--json"],
        ["certify", "--N", "1", "--json"],
        ["certify", "--N", "3", "--json"],
        ["certify", "--N", "4", "--json"],
        ["certify", "--json"],
        ["search", "--bound", "2", "--count", "25", "--json"],
        *(["verify-paper", "--json", "--override", o]
          for o in ("Q11=1 0 0 0", "Q11=2 0 0 0")),
        ["verify-paper", "--json",
         "--override", "Q12=2 0 0 0", "--override", "Q21=-1/2 0 0 0"],
        # bad usage: each exits 2 with one error line
        *(["verify-paper", "--override", o]
          for o in ("Q33=1 0 0 0", "P11", "P11=1 x 0 0", "Q21=-2 0 0 0",
                    "Q21=0 0 0 0")),
        ["margin", "--L", "0"],
        ["margin", "--L", "13"],
        ["margin", "--N", "0", "--L", "2"],
        ["certify", "--N", "3", "--L", "0"],
        ["certify", "--N", "0"],
        ["certify", "--L", "13"],
        # one past pingpong.EXPONENT_CAP
        ["certify", "--N", "65537"],
        ["search", "--bound", "1", "--count", "0"],
        ["verify-paper", "--N", "0"],
        ["verify-paper", "--L", "13"],
        ["search", "--bound", "-1"],
        # one past limits.SEARCH_BOUND_CAP
        ["search", "--bound", "13"],
        ["conjugate", Q_TEXT, "--n", "5001"],
        # an entry of 1501 digits: the conjugate at n = 2000 is too long to
        # print
        ["conjugate", "1" + "0" * 1500 + " 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0",
         "--n", "2000"],
        ["classify", "1/0 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"],
        ["classify", "3 0 2 0; 1 0 0 0; -1 0 0 0"],
        ["classify", "3 0 2 0; 1 0; -1 0 0 0; 0 0 0 0"],
        ["probe-inequality", Q_TEXT, "--which", "12"],
        ["classify", "2 0 0 0; 0 0 0 0; 0 0 0 0; 1 0 0 0"],
        ["repr", "--kappa", "2", P_TEXT],
        ["repr", "--kappa", "3", "1 0; 0 1 0; 0 0 0; 1 0 0"],
        ["repr", "0 0 0 0; 1 0 0 0; -1 0 0 0; 0 0 0 0"],
        ["repr", "0 0 0 0; 0 0 0 0; 0 0 0 0; 0 0 0 0"],
        *(["probe-inequality", P_TEXT, "--which", str(w)]
          for w in (4, 6, 7, 8, 9, 10, 11, 13, 14)),
        ["probe-inequality", "2 1 -1 0; 1 0 0 0; -1 0 0 0; 0 0 0 0",
         "--which", "6"],
        ["probe-inequality", IDENTITY, "--which", "7"],
        ["probe-inequality", "1 0 0 0; 1 0 0 0; 1 0 0 0; 2 0 0 0",
         "--which", "6"],
        ["probe-inequality", "1 0 0 0; 1 0 0 0; 1 -1 1 -1; 2 0 0 0",
         "--which", "6"],
        # |A - B sqrt2| = 1 / (A + B sqrt2) for the 40th Pell pair: no
        # 64-bit enclosure of it excludes zero
        ["probe-inequality", "1 0 0 0; 0 0 0 0; 1023286908188737 0 "
         "-723573111879672 0; 1 0 0 0", "--which", "7"],
        # P the identity: a scalar generator, with no certificate
        ["verify-paper", "--json",
         *(f"--override=P{e}={c} 0 0 0"
           for e, c in (("11", 1), ("12", 0), ("21", 0), ("22", 1)))],
        # trace 2 + e, e = (beta - 1)^30 near 2^-72: the sign of
        # trace^2 - 4 needs more than 64 bits
        ["classify", f"{TINY_PLUS_2}; 1 0 0 0; -1 0 0 0; 0 0 0 0"],
        *(["verify-paper", "--json",
           *(f"--override={e}={c}" for e, c in pair.items())]
          for pair in (
              # a parabolic P whose entry is below 2^-19 in views 0 and 1:
              # the margin's squared distance needs more than 64 bits
              {"P11": "1 0 0 0", "P12": TINY_TWO_VIEWS, "P21": "0 0 0 0",
               "P22": "1 0 0 0"},
              # upper triangular P and Q share the eigenvector (1, 0)
              {"P11": "2 0 0 0", "P12": "1 0 0 0", "P21": "0 0 0 0",
               "P22": "1/2 0 0 0", "Q11": "3 0 0 0", "Q12": "0 0 0 0",
               "Q21": "0 0 0 0", "Q22": "1/3 0 0 0"},
              # P's sigma2 view has the tiny entry e, so its attracting
              # point has tiny coordinates
              *({"P11": f"{a} 0 0 0", "P12": TINY_SIGMA2, "P21": "0 0 0 0",
                 "P22": f"{b} 0 0 0"} for a, b in (("2", "1/2"), ("1/2", "2"))),
              # a pair no radius can certify
              {"P11": "0 -4 6 6", "Q11": "-5 -4 3 3", "Q12": "-4 -4 3 3",
               "Q22": "-1 0 0 0"},
              # companion pairs whose search finds no chart for a root,
              # and no region for a ball
              {"P11": "1 4 0 6", "Q11": "-3 -5 1 -6"},
              {"P11": "2 -3 -6 6", "Q11": "-3 2 2 -3"})),
        ["--help"],
    ]
    out = [("cli", r) for r in runs]
    out += [
        ("script", ROOT / "scripts" / "margin_experiment.py",
         ["--max-N", "2", "--max-L", "3"]),
        ("script", ROOT / "scripts" / "margin_experiment.py",
         ["--max-N", "2", "--max-L", "3", "--json"]),
        ("script", ROOT / "scripts" / "limit_candidate_search.py",
         ["--bound", "1", "--count", "2", "--margin-L", "2"]),
        # words within eps of the identity, some of them elliptic or
        # parabolic in view 0
        ("script", ROOT / "scripts" / "limit_candidate_search.py",
         ["--bound", "1", "--count", "6", "--margin-N", "1", "--margin-L",
          "3", "--eps", "200", "--out", str(tmp / "candidates.json")]),
    ]
    return out


def _closed_stdout_run(main):
    """One command whose stdout is a pipe with no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    saved = sys.stdout
    sys.stdout = open(write_end, "w")
    try:
        main(["conjugate", Q_TEXT, "--json"])
    finally:
        sys.stdout.close()
        sys.stdout = saved


def _child() -> dict:
    """Run the corpus under a line tracer; {file name: sorted lines}."""
    prefix = str(SRC) + os.sep
    lines = {}
    local_tracers = {}

    def line_tracer(add):
        # a frame's line, return and exception events are all on lines
        # that ran
        def local(frame, event, arg):
            add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_tracers:
            local_tracers[name] = (line_tracer(lines.setdefault(name, set()).add)
                                   if name.startswith(prefix) else None)
        return local_tracers[name]

    saved = sys.gettrace()
    sys.settrace(tracer)
    try:
        from quartic.cli import main
        with tempfile.TemporaryDirectory() as tmp:
            for kind, *run in _corpus(pathlib.Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    if kind == "cli":
                        main(run[0])
                    else:
                        path, argv = run
                        saved_argv = sys.argv
                        sys.argv = [str(path), *argv]
                        try:
                            runpy.run_path(str(path), run_name="__main__")
                        except SystemExit:
                            pass
                        finally:
                            sys.argv = saved_argv
            with contextlib.redirect_stderr(io.StringIO()):
                _closed_stdout_run(main)
    finally:
        sys.settrace(saved)
    return {pathlib.Path(k).name: sorted(v) for k, v in lines.items()}


def _nested(stmt):
    """The statements directly inside a statement's own blocks."""
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(stmt, field, [])
    for handler in getattr(stmt, "handlers", []):
        yield from handler.body


def _span(stmt) -> range:
    first = min([stmt.lineno]
                + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return range(first, stmt.end_lineno + 1)


def _body(fn):
    """A function's statements, without its docstring."""
    body = fn.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _function_statements(tree):
    """(qualified name, statement) for every statement in a function body,
    nested ones included; a nested function's statements go under its own
    name."""
    def visit(stmts, qual, in_function):
        for stmt in stmts:
            if in_function:
                yield qual, stmt
            if isinstance(stmt, ast.FunctionDef):
                yield from visit(_body(stmt), f"{qual}.{stmt.name}", True)
            elif isinstance(stmt, ast.ClassDef):
                yield from visit(stmt.body, f"{qual}.{stmt.name}",
                                 in_function)
            elif in_function:
                yield from visit(list(_nested(stmt)), qual, True)
    yield from visit(tree.body, "", False)


def _unreached(path, lines: set) -> dict:
    """{function: (never entered, its outermost unreached statements)} for
    the functions of a module with a statement no run reached."""
    reached = {}

    def is_reached(stmt):
        if stmt not in reached:
            # a def's body runs only when it is called
            inner = ([] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                     else list(_nested(stmt)))
            own = set(_span(stmt)).difference(
                *(_span(s) for s in _nested(stmt)))
            reached[stmt] = bool(own & lines) or any(map(is_reached, inner))
        return reached[stmt]

    bodies = {}
    for qual, stmt in _function_statements(ast.parse(path.read_text())):
        bodies.setdefault(f"{path.stem}{qual}", []).append(stmt)
    out = {}
    for fn, body in bodies.items():
        missed = [s for s in body if not is_reached(s)]
        if missed:
            inner = {id(n) for s in missed for n in _nested(s)}
            out[fn] = (len(missed) == len(body),
                       [s for s in missed if id(s) not in inner])
    return out


def _findings(traced: dict) -> list[tuple[str, str | None, str]]:
    """(function, first line of an unreached statement, or None for a
    function never entered, and its file:line) for all no run reached."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        lines = set(traced.get(path.name, []))
        for fn, (never, missed) in _unreached(path, lines).items():
            if never:
                out.append((fn, None, f"{path.name}:{missed[0].lineno}"))
            else:
                out += [(fn, text[s.lineno - 1].strip(),
                         f"{path.name}:{s.lineno}") for s in missed]
    return out


# the reasons a statement may stay unreached
GUARD = "a guard that no input reaches without a bug"
WIRE = "the certificate wire format, which a certificate file checker reads"
REPR = "pytest failure messages print it"

# (function, reason): the function is never entered; (function, reason,
# *starts): each statement of the function whose first line starts with
# one of starts is not reached, with whatever it nests
ALLOWED = [
    ("construction._gamma", GUARD, "raise UnsignedElement"),
    ("construction.check_conditions", GUARD, "raise ValueError"),
    ("cubic.CubicElem.__repr__", REPR),
    ("eigen.eigen2", GUARD, "raise ParabolicNotSupported(\"eigenvalue product"),
    # the search and the probes measure distinct points
    ("eigen.proj_dist", GUARD, "raise DimensionMismatch",
     "return 0, 0, 1", "raise UndecidedComparison"),
    ("eigen._proj_dist_intervals", GUARD, "raise UndecidedComparison"),
    ("extension.QuadExt.__repr__", REPR),
    ("extension.QuadExt.inv", GUARD, "raise ZeroDivisionError"),
    ("extension.QuadExt.__eq__", GUARD, "return NotImplemented"),
    ("extension._as_quartic", GUARD, "raise TypeError"),
    ("inequality.inequality_probe", GUARD, "raise ValueError"),
    ("intervals.enc_sqrt", GUARD, "raise ValueError"),
    ("limits.LimitCandidate.__post_init__", GUARD, "raise NonIntegralInput"),
    ("limits.check_limit_conditions", GUARD, "raise NotUnimodular"),
    ("linalg.RingMat2.__repr__", REPR),
    ("linalg.RingMat2.__eq__", GUARD, "return NotImplemented"),
    ("linalg.RingMat2.inv", GUARD, "raise SingularMatrix"),
    # the exact comparison after both one-entry filters passed the word
    ("margin._scan_subtree", GUARD, "continue"),
    ("margin.discreteness_margin", GUARD, "raise ValueError(f\"embedding",
     "raise NotUnimodular"),
    ("margin.nonneg_interval", GUARD, "return 0, max(0, hi), s"),
    ("pingpong.Ball.from_json", WIRE),
    ("pingpong._text", WIRE),
    ("pingpong.PingPongCertificate.to_json", WIRE),
    ("pingpong.PingPongCertificate.to_json_text", WIRE),
    ("pingpong.PingPongCertificate.from_json", WIRE),
    # the checker's rejections of what the search built
    ("pingpong._region_ok", GUARD, "return False"),
    ("pingpong.verify_certificate", GUARD, "problems.append(", "continue",
     "return False, problems"),
    ("probe.walk_words", GUARD, "return"),
    # two words with one product mod p: a relation of the free pair
    ("probe._crosscheck", GUARD, "for u in words:"),
    ("projective._PairSearch._separation", GUARD, "continue",
     "raise HypothesisViolated"),
    ("projective.certify_exponent", GUARD, "raise ValueError"),
    ("projective.pingpong_exponent", GUARD, "raise SearchOverflow(f\"no certificate"),
    ("record.Record.__init__", GUARD, "raise TypeError"),
    ("record.Record.__repr__", REPR),
    ("record.Record._frozen", GUARD),
    ("regular.RegularRep.__repr__", REPR),
    ("regular.RegularRep.__mul__", GUARD, "raise ValueError"),
    ("regular.RegularRep.__eq__", GUARD, "return NotImplemented"),
    ("regular.regular_rep", GUARD, "raise WrongSubring", "raise ValueError"),
    ("ring._frac", GUARD, "raise TypeError"),
    ("ring.QuarticElem.__repr__", REPR),
    ("ring.QuarticElem.__eq__", GUARD, "return NotImplemented"),
    ("ring.QuarticElem._plus", GUARD, "return NotImplemented"),
    ("ring.QuarticElem.inv", GUARD, "raise ZeroDivisionError"),
    ("ring.QuarticElem.__lt__", GUARD, "return NotImplemented"),
    ("ring.galois", GUARD, "raise ValueError"),
    ("verify.field_quantity_N", GUARD, "raise InternalMismatch"),
    ("verify.cmd_verify_paper", GUARD, "bad = True", "worst = x.to_text()",
     "break", "conj_ok = False"),
]


def _allows(entry, finding) -> bool:
    fn, _, *starts = entry
    name, first, _ = finding
    if name != fn:
        return False
    if not starts:
        return first is None
    return first is not None and first.startswith(tuple(starts))


def test_every_src_statement_is_reached_or_allowed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    findings = _findings(json.loads(out))
    unreached = [f"{where} {name}: {first or '(never entered)'}"
                 for name, first, where in findings
                 if not any(_allows(e, (name, first, where)) for e in ALLOWED)]
    assert not unreached, "\n".join(unreached)
    # an entry that allows nothing is dropped from the list
    stale = [(entry[0], start) for entry in ALLOWED
             for start in entry[2:] or [None]
             if not any(_allows((*entry[:2], *([start] if start else [])), f)
                        for f in findings)]
    assert not stale, stale


if __name__ == "__main__":
    print(json.dumps(_child()))
