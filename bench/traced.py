"""Traced run of one quartic command, for the per-layer metrics.

Usage: python3 bench/traced.py <quartic arguments...>

The caller puts the checkout's ``src`` on PYTHONPATH.  This script imports
quartic, wraps the public functions of each layer (L0 to L4, as named in
ROADMAP.md) from outside the program, runs ``quartic.cli.main`` in process
with stdout captured, and prints one JSON line: the exit code, the sha256
of the command's stdout, the traced wall time and the per-layer metrics.

Each wrapped function is replaced in every quartic namespace that holds it,
so a name imported with ``from .x import f`` is traced too.  Self time comes
from a span stack: a span's duration minus the time its traced children
took.  ``total_s`` counts only the outermost span of a name.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attributes, span stats reported).  "Cls.attr"
# wraps a method on the class; several attributes may share one prefix.
TARGETS = [
    # L0: dyadic enclosures and the sign oracle
    ("ring.QuarticElem.sign", "quartic.ring", ["QuarticElem.sign"],
     ("calls", "self_s")),
    ("intervals.bounds", "quartic.intervals",
     ["beta_bounds", "sqrt2_bounds", "beta3_bounds", "cbrt2_bounds",
      "cbrt4_bounds"], ("calls",)),
    ("extension.QuadExt.sign", "quartic.extension", ["QuadExt.sign"],
     ("calls", "self_s")),
    # L1: field arithmetic
    ("ring.QuarticElem.mul", "quartic.ring",
     ["QuarticElem.__mul__", "QuarticElem.__rmul__"], ("calls", "self_s")),
    ("ring.QuarticElem.addsub", "quartic.ring",
     ["QuarticElem.__add__", "QuarticElem.__radd__", "QuarticElem.__sub__",
      "QuarticElem.__rsub__"], ("calls", "self_s")),
    ("ring.QuarticElem.init", "quartic.ring", ["QuarticElem.__init__"],
     ("calls", "self_s")),
    ("ring.galois", "quartic.ring", ["galois"], ("calls", "self_s")),
    ("extension.QuadExt.mul", "quartic.extension",
     ["QuadExt.__mul__", "QuadExt.__rmul__"], ("calls", "self_s")),
    # L2: 2x2 products and Galois distances
    ("linalg.RingMat2.mul", "quartic.linalg", ["RingMat2.__mul__"],
     ("calls", "self_s")),
    ("linalg.entry_dist_sq", "quartic.linalg", ["entry_dist_sq"],
     ("calls", "self_s")),
    ("projective.Ball.membership_sign", "quartic.projective",
     ["Ball.membership_sign"], ("calls", "self_s")),
    # L3: algorithms
    ("probe.discreteness_margin", "quartic.probe", ["discreteness_margin"],
     ("total_s",)),
    ("probe.freeness_certificate", "quartic.probe", ["freeness_certificate"],
     ("total_s",)),
    ("projective.free_pair_power", "quartic.projective", ["free_pair_power"],
     ("total_s",)),
    ("projective.certify_exponent", "quartic.projective", ["certify_exponent"],
     ("calls",)),
    ("projective.verify_certificate", "quartic.projective",
     ["verify_certificate"], ("total_s",)),
    ("limits.search_limit_candidates", "quartic.limits",
     ["search_limit_candidates"], ("total_s", "self_s")),
    # L4: the command
    ("cli.main", "quartic.cli", ["main"], ("total_s", "self_s")),
]

DEFAULT_SIGN_BITS = 64


class Tracer:
    """Span stack plus the counters the per-layer metrics are made from."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.depth = Counter()
        self.stack: list[list[float]] = []
        self.extra = Counter()
        self.max_bits = 0
        self.sign_bits: list[int] = []   # highest bits asked per open sign
        self.margin_last = None

    def wrap(self, name, fn, before=None, after=None):
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if before:
                before(args)
            frame = [0.0]
            stack.append(frame)
            self.depth[name] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                self.depth[name] -= 1
                self.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if not self.depth[name]:
                    self.total_s[name] += dt
                if after:
                    after(result)

        return wrapper

    # hooks ---------------------------------------------------------------

    def _sign_before(self, args):
        c0, c1, c2, c3 = args[0].coeffs()
        if not (c0 or c1 or c2 or c3):
            self.extra["ring.QuarticElem.sign.zero"] += 1
        elif not (c1 or c3):
            self.extra["ring.QuarticElem.sign.quadrat"] += 1
        else:
            self.extra["ring.QuarticElem.sign.dyadic"] += 1
        self.sign_bits.append(0)

    def _sign_after(self, result):
        if self.sign_bits.pop() > DEFAULT_SIGN_BITS:
            self.extra["ring.QuarticElem.sign.escalated"] += 1

    def _bounds_before(self, args):
        bits = args[0]
        self.max_bits = max(self.max_bits, bits)
        if self.sign_bits and bits > self.sign_bits[-1]:
            self.sign_bits[-1] = bits

    def _certify_after(self, result):
        if result is not None:
            self.extra["certify_hits"] += 1

    def _crosscheck_after(self, result):
        if result is not None:
            self.extra["probe.crosscheck.words"] += result.words_checked

    def _dist_before(self, args):
        # A margin word is a matrix whose distance to the identity the margin
        # evaluates; its views are evaluated back to back on the same object.
        if self.depth["probe.discreteness_margin"] and args[0] is not self.margin_last:
            self.margin_last = args[0]
            self.extra["probe.margin.words"] += 1

    def install(self) -> list[str]:
        """Wrap every target; return the targets the program lacks."""
        import quartic.cli  # noqa: F401  (loads every quartic module)

        hooks = {
            "ring.QuarticElem.sign": (self._sign_before, self._sign_after),
            "intervals.bounds": (self._bounds_before, None),
            "projective.certify_exponent": (None, self._certify_after),
            "probe.freeness_certificate": (None, self._crosscheck_after),
            "linalg.entry_dist_sq": (self._dist_before, None),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "quartic" or n.startswith("quartic."))]
        missing = []
        for prefix, modname, attrs, _ in TARGETS:
            before, after = hooks.get(prefix, (None, None))
            for attr in attrs:
                owner = sys.modules.get(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    missing.append(f"{modname}.{attr}")
                    continue
                wrapped = self.wrap(prefix, fn, before, after)
                if path:
                    setattr(owner, leaf, wrapped)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
        return missing

    def metrics(self) -> dict[str, float]:
        table = {"calls": self.calls, "self_s": self.self_s,
                 "total_s": self.total_s}
        out = {f"{prefix}.{stat}": table[stat][prefix]
               for prefix, _, _, stats in TARGETS for stat in stats}
        for key in ("ring.QuarticElem.sign.zero", "ring.QuarticElem.sign.quadrat",
                    "ring.QuarticElem.sign.dyadic", "ring.QuarticElem.sign.escalated",
                    "probe.margin.words", "probe.crosscheck.words"):
            out[key] = self.extra[key]
        out["intervals.bounds.max_bits"] = self.max_bits
        attempts = self.calls["projective.certify_exponent"]
        out["projective.certify_exponent.hit_ratio"] = (
            self.extra["certify_hits"] / attempts if attempts else 0.0)
        return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    missing = tracer.install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = sys.modules["quartic.cli"].main(argv)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "rc": rc,
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "wall_s": wall,
        "missing": missing,
        "metrics": tracer.metrics(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
