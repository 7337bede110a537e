"""Every definition in ``src/quartic`` has a reader in the program: each
top-level function and class, and each public method, is named somewhere
in ``src/``, ``scripts/`` or ``bench/`` outside its own body.  A definition
that only tests read belongs with the tests.  Names are matched as
identifier tokens, so comments and strings are not readers, and a method
counts as read when any code uses its name."""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

# definitions kept with no reader in the program, each for its reason
ALLOWED = {
    "torsion_probe": "the acceptance gate reads it",
    "dual_smallness_scan": "the acceptance gate reads it",
    "passes_iv_and_viii": "the acceptance gate reads it",
    "QuadRat": "the acceptance gate reads it",
    "charpoly_fraction": "the acceptance gate's spectrum decomposition",
    "embedded_charpoly_product": "the acceptance gate's spectrum decomposition",
    "in_S": "PAPER.md's layout names it as the thin set S_{eps,c}",
    "pell_divergence": "README's Pell finding cites it; a golden test pins it",
}


def _identifiers():
    """{name: [(path, line)]} over every identifier in the program."""
    out = {}
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            with tokenize.open(path) as f:
                for tok in tokenize.generate_tokens(f.readline):
                    if tok.type == tokenize.NAME:
                        out.setdefault(tok.string, []).append(
                            (path, tok.start[0]))
    return out


def _definitions(path):
    """The top-level functions and classes of a module, and the public
    methods of its classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_"))


def test_every_src_definition_has_a_program_reader():
    names = _identifiers()
    unread = {}
    for path in sorted((ROOT / "src" / "quartic").glob("*.py")):
        for node in _definitions(path):
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in names.get(node.name, [])):
                unread[node.name] = f"{path.name}:{node.lineno}"
    # an allowed name that gained a reader is dropped from the list
    assert set(unread) == set(ALLOWED), unread
