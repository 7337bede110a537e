"""Every definition in ``src/quartic`` has a reader in the program: each
top-level function and class, and each public method, is named somewhere
in ``src/``, ``scripts/`` or ``bench/`` outside its own body.  A definition
that only tests read belongs with the tests.  Names are matched as
identifier tokens, so comments and strings are not readers, and a method
counts as read when any code uses its name.

Every defaulted parameter has a reader too: some call in the program
passes it.  A parameter that only tests set belongs with the tests, or its
default is a constant.

Every field of a ``Record`` subclass is read as an attribute in the
program: a field nothing reads is work the record does for no one."""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

# definitions kept with no reader in the program, each for its reason
ALLOWED: dict[str, str] = {}


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


# defaulted parameters no call in the program passes, each for its reason
ALLOWED_PARAMS = {
    "sqrt_of_square_interval(bits)":
        "a test starts at 8 bits to reach nonneg_interval's doubling branch",
}


def _program_trees():
    for top in ("src", "scripts", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield ast.parse(path.read_text())


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _passes(trees, classes):
    """{callee name: [(positional count, keywords, star, double star)]}
    over every call in the program.  A call to a class is a call to its
    ``__init__``, and a class's keywords are a call to its base's
    ``__init_subclass__``."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node.func)
                if name in classes:
                    name = "__init__"
                args = node.args
                kws = node.keywords
            elif isinstance(node, ast.ClassDef) and node.keywords:
                name, args, kws = "__init_subclass__", [], node.keywords
            else:
                continue
            star = any(isinstance(a, ast.Starred) for a in args)
            out.setdefault(name, []).append((
                sum(not isinstance(a, ast.Starred) for a in args),
                {k.arg for k in kws if k.arg is not None},
                star, any(k.arg is None for k in kws)))
    return out


def _functions(path):
    """(label, def, positional offset) for the top-level functions of a
    module and the methods of its classes; a method's calls do not pass
    its first parameter, unless it is a staticmethod."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    label = node.name if m.name == "__init__" else m.name
                    yield label, m, 0 if static else 1


def _defaulted(fn, offset):
    """(name, positional index or None) of each defaulted parameter;
    the index counts from the first parameter a call passes."""
    a = fn.args
    pos = a.posonlyargs + a.args
    for i, arg in enumerate(pos[len(pos) - len(a.defaults):],
                            len(pos) - len(a.defaults)):
        yield arg.arg, i - offset
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_defaulted_src_parameter_is_passed_by_the_program():
    paths = sorted((ROOT / "src" / "quartic").glob("*.py"))
    classes = {node.name for path in paths
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef)}
    calls = _passes(list(_program_trees()), classes)
    unpassed = {}
    for path in paths:
        for label, fn, offset in _functions(path):
            for name, index in _defaulted(fn, offset):
                if not any(name in kws or dstar
                           or (index is not None and (n > index or star))
                           for n, kws, star, dstar in calls.get(fn.name, [])):
                    unpassed[f"{label}({name})"] = f"{path.name}:{fn.lineno}"
    assert {k: v for k, v in unpassed.items()
            if k not in ALLOWED_PARAMS} == {}
    # an allowed parameter that gained a caller is dropped from the list
    assert set(ALLOWED_PARAMS) <= set(unpassed)


# Record fields no code in the program reads, each for its reason
ALLOWED_FIELDS = {
    "MarginReport.margin_sq":
        "the exact squared margin, held against the reference scan; the "
        "report prints its enclosure",
    "NoncommutingResult.reason": "says which hypothesis failed",
    "NoncommutingResult.commutator_nontrivial":
        "says whether the commutator check ran and held",
}


def _record_fields(path):
    """(class, field) for each annotated field of the module's direct
    ``Record`` subclasses."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "Record"
                for b in node.bases):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield node.name, stmt.target.id


def _attribute_reads(trees):
    """({(class, name)} read as ``self.name`` in a class body, {name} read
    as an attribute of anything else).  A ``self`` read counts only for its
    own class, so two records that share a field name are told apart."""
    own, other = set(), set()
    for tree in trees:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                own |= {(cls.name, n.attr) for n in ast.walk(cls)
                        if isinstance(n, ast.Attribute)
                        and isinstance(n.ctx, ast.Load)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self"}
        other |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load)
                  and not (isinstance(n.value, ast.Name)
                           and n.value.id == "self")}
    return own, other


def test_every_record_field_is_read_by_the_program():
    own, other = _attribute_reads(_program_trees())
    unread = {f"{cls}.{name}": path.name
              for path in sorted((ROOT / "src" / "quartic").glob("*.py"))
              for cls, name in _record_fields(path)
              if (cls, name) not in own and name not in other}
    assert {k: v for k, v in unread.items()
            if k not in ALLOWED_FIELDS} == {}
    # an allowed field that gained a reader is dropped from the list
    assert set(ALLOWED_FIELDS) <= set(unread)
