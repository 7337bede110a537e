#!/usr/bin/env python3
"""Run each benchmark workload's CLI command once and compare the sha256 of
its stdout with the digest recorded in ``bench/run.py``.

Usage, from the root of a checkout with quartic importable:
  python scripts/check_workload_digests.py

Exits 1 when any command fails or any digest drifts, so a change to the
output of ``search``, ``certify`` or ``verify-paper`` fails here and not
only in the benchmark; a failing command's last stderr lines are printed
under its line.  Exits 2 when ``quartic`` cannot be imported.
"""

import ast
import hashlib
import importlib.util
import pathlib
import subprocess
import sys

RUN_PY = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"

# the stderr lines shown for a failing command
STDERR_TAIL = 5


def workloads() -> dict:
    """The literal WORKLOADS table of bench/run.py, read without running
    that file."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WORKLOADS"]):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no WORKLOADS table in {RUN_PY}")


def main() -> int:
    if importlib.util.find_spec("quartic") is None:
        print("error: cannot import quartic: install the package "
              "(pip install -e .) or set PYTHONPATH=src", file=sys.stderr)
        return 2
    bad = 0
    for name, (argv, digest, timeout) in workloads().items():
        out = subprocess.run([sys.executable, "-m", "quartic.cli", *argv],
                             capture_output=True, timeout=timeout)
        got = hashlib.sha256(out.stdout).hexdigest()
        ok = out.returncode == 0 and got == digest
        bad += not ok
        print(f"{name}: {'ok' if ok else 'MISMATCH'} rc={out.returncode} "
              f"sha256={got}")
        if out.returncode != 0:
            tail = out.stderr.decode(errors="replace").splitlines()
            for line in tail[-STDERR_TAIL:]:
                print(f"  {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
