"""End-to-end benchmark of the quartic CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_paper --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each workload is one user-facing command at the fixed ROADMAP inputs (the
paper pair, N = 3, L = 8, search bound 2), run as a closed loop: one client,
one fresh single-threaded ``quartic`` process at a time, for about
``--seconds`` and at least one command.  Each stdout must match the sha256
recorded from the seed commit; a nonzero exit, a timeout or a digest
mismatch counts as a failed run.

With ``--trace 0`` the result reports the end-to-end metrics (medians over
the run's samples): ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of each child
alone (from its own rusage), and ``setup_s``, the median time of a fresh
interpreter that imports ``quartic.cli`` and builds the paper generators.

With ``--trace 1`` the command also runs twice under ``bench/traced.py``,
which wraps each layer's public functions; the result reports the per-layer
counts and self times, and the tracing overhead against the untraced median.
The two traced runs must give identical counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name with its unit, quartiles and sample count, and the error
rate.  A result file with the samples and provenance (git rev, Python,
nproc, load average, calibration loop time, ``src/`` line count) is written
under ``bench/results/``.

The seed sets each child's PYTHONHASHSEED.  The inputs themselves are fixed,
so the digests hold for every seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

# argv after ``python -m quartic.cli``, stdout sha256 at the seed commit,
# and a per-command timeout in seconds (several times the slowest run seen).
WORKLOADS = {
    "verify_paper": (
        ["verify-paper", "--json"],
        "86506ad08be98560280a4d312c040c9c0baca071520fb8e3f19259562f8eaae6",
        150,
    ),
    "certify": (
        ["certify", "--json"],
        "d3943816451f0a09b4d745b0c3bdcfdf5fa83e51bf0df482454d5f9589081df8",
        100,
    ),
    "search": (
        ["search", "--bound", "2", "--count", "8", "--json"],
        "18b16ba9e4eba54136b0bb251af26eda7e7f43c31bfe38b69cfabb3c9962250f",
        60,
    ),
}

SETUP_CODE = (
    "import quartic.cli\n"
    "from quartic.construction import paper_generators\n"
    "paper_generators()\n"
    "print(quartic.cli.__file__)\n"
)
SETUP_RUNS = 11
# Every child of one run must end within this many seconds of its start, so
# that the run exits inside its 180 s allowance.
RUN_DEADLINE_S = 170.0


class Checkout:
    """The source tree under test and how to start its interpreter."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.src)
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)

    def spawn(self, args: list[str], timeout: float) -> dict:
        """Run ``python args`` to completion; return its exit code, stdout,
        stderr, wall time and its own rusage (not RUSAGE_CHILDREN, which
        keeps the maximum RSS over every earlier child)."""
        with tempfile.TemporaryFile(dir=RESULTS_DIR) as out, \
                tempfile.TemporaryFile(dir=RESULTS_DIR) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "rc": proc.returncode,
                "stdout": out.read(),
                "stderr": err.read().decode(errors="replace"),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "timed_out": timed_out.is_set(),
            }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibration_s() -> float:
    """Time of a short fixed Fraction loop: machine drift between sets."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20001):
        acc = (acc + Fraction(1, i)) * Fraction(i, i + 1)
    return time.perf_counter() - t0


def provenance(root: Path) -> dict:
    git = {"rev": None, "dirty": None}
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                   capture_output=True, text=True, timeout=30)
            git = {"rev": rev.stdout.strip() or None,
                   "dirty": bool(dirty.stdout.strip())}
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "git": git,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def measure_setup(co: Checkout, timeout: float) -> list[dict]:
    # One untimed import first, so bytecode caches are warm as a user's are.
    expected = str(co.src / "quartic" / "cli.py")
    runs = []
    for i in range(SETUP_RUNS + 1):
        r = co.spawn(["-c", SETUP_CODE], timeout)
        r["ok"] = r["rc"] == 0 and r["stdout"].decode().strip() == expected
        if i:
            runs.append(r)
    return runs


def run_workload(co: Checkout, name: str, seconds: float, trace: bool,
                 started: float) -> dict:
    argv, digest, timeout = WORKLOADS[name]
    failures: list[str] = []

    def budget() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    # The traced run reports per-layer metrics only, so it skips set-up.
    setup = [] if trace else measure_setup(co, min(60.0, budget()))
    failures += [f"setup: rc={r['rc']} {r['stderr'][-300:]}"
                 for r in setup if not r["ok"]]

    samples = []
    loop_start = time.perf_counter()
    while True:
        r = co.spawn(["-m", "quartic.cli", *argv], max(1.0, min(timeout, budget())))
        got = hashlib.sha256(r["stdout"]).hexdigest()
        r["ok"] = r["rc"] == 0 and got == digest
        if not r["ok"]:
            failures.append(f"{name}: rc={r['rc']} timed_out={r['timed_out']} "
                            f"sha256={got[:12]} {r['stderr'][-300:]}")
        samples.append(r)
        spent = time.perf_counter() - loop_start
        typical = statistics.median(s["wall_s"] for s in samples)
        # Start another command only if at least half of it should fall
        # within the window (and, when tracing, leave time for two traced
        # runs), so a run lasts about --seconds or one command.
        if spent + typical / 2 > seconds or (
                trace and budget() - typical < 4 * typical):
            break

    result = {
        "workload": name,
        "argv": argv,
        "setup_s": [r["wall_s"] for r in setup],
        "samples": [{k: r[k] for k in ("rc", "ok", "wall_s", "cpu_s",
                                       "peak_rss_mb")} for r in samples],
        "attempted": len(samples),
        "failed": sum(not r["ok"] for r in samples),
        "failures": failures,
    }
    if trace:
        traced = traced_runs(co, argv, digest, timeout, budget, failures)
        result["traced"] = traced
        result["attempted"] += len(traced)
        result["failed"] += sum(not t["ok"] for t in traced)
    return result


def traced_runs(co: Checkout, argv, digest, timeout, budget, failures) -> list[dict]:
    """Two traced runs whose counts must agree.  The second is skipped, and
    said so, only when it could not end before the run's deadline."""
    runs = []
    for i in range(2):
        if i and budget() < 1.5 * runs[0]["wall_s"]:
            print("traced: second run skipped, too little time left; "
                  "counts not compared", file=sys.stderr)
            break
        r = co.spawn([str(BENCH_DIR / "traced.py"), *argv],
                     max(1.0, min(2 * timeout, budget())))
        try:
            out = json.loads(r["stdout"].decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            failures.append(f"traced: rc={r['rc']} timed_out={r['timed_out']} "
                            f"{r['stderr'][-300:]}")
            runs.append({"ok": False})
            break
        out["ok"] = out["rc"] == 0 and out["sha256"] == digest
        if not out["ok"]:
            failures.append(f"traced: rc={out['rc']} sha256={out['sha256'][:12]}")
        runs.append(out)
    if len(runs) == 2 and all("metrics" in run for run in runs):
        counts = [{k: v for k, v in run["metrics"].items() if not k.endswith("_s")}
                  for run in runs]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            failures.append(f"traced: counts differ between two runs: {diff}")
    return runs


METRIC_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def per_layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("max_bits"):
        return "bits"
    if key.endswith("hit_ratio"):
        return "ratio"
    return "count"


def summarize(res: dict, trace: bool) -> dict[str, dict]:
    """Metrics for the result line; also prints them with quartiles."""
    name = res["workload"]
    metrics: dict[str, dict] = {}
    ok = [s for s in res["samples"] if s["ok"]] or res["samples"]
    series = {k: [s[k] for s in ok] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    if res["setup_s"]:
        series["setup_s"] = res["setup_s"]
    stats = {}
    for key, values in series.items():
        q1, med, q3 = quartiles(values)
        stats[key] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        print(f"{name} {key} median={med:.4f} {METRIC_UNITS[key]} "
              f"q1={q1:.4f} q3={q3:.4f} n={len(values)}")
    rate = res["failed"] / res["attempted"]
    print(f"{name} error_rate {rate:.4f} ratio ({res['failed']} failed "
          f"of {res['attempted']}) n={res['attempted']}")
    res["stats"] = stats
    res["error_rate"] = rate
    if not trace:
        for key in series:
            metrics[key] = {"value": stats[key]["median"], "unit": METRIC_UNITS[key]}
        return metrics
    runs = [r for r in res["traced"] if "metrics" in r]
    if not runs:
        return metrics
    first = runs[0]
    for key, value in first["metrics"].items():
        if key.endswith("_s"):
            value = statistics.median(r["metrics"][key] for r in runs)
        metrics[key] = {"value": value, "unit": per_layer_unit(key)}
    traced_wall = statistics.median(r["wall_s"] for r in runs)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - stats["wall_s"]["median"], "unit": "s"}
    if first["missing"]:
        print(f"{name} traced: not in the program: {', '.join(first['missing'])}")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "quartic" / "cli.py").is_file():
        print(f"error: {root} holds no quartic source tree (src/quartic)",
              file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    co = Checkout(root, args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    record = {"seed": args.seed, "seconds": args.seconds, "trace": trace,
              "provenance": provenance(root),
              "loadavg_start": os.getloadavg(),
              "calibration_s_start": calibration_s()}
    results = []
    for name in names:
        begun = started if len(names) == 1 else time.perf_counter()
        results.append(run_workload(co, name, args.seconds, trace, begun))
    record["calibration_s_end"] = calibration_s()
    record["loadavg_end"] = os.getloadavg()

    metrics: dict[str, dict] = {}
    for res in results:
        got = summarize(res, trace)
        if len(names) > 1:
            got = {f"{res['workload']}.{k}": v for k, v in got.items()}
        metrics.update(got)
        for line in res["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    record["results"] = results
    print(f"calibration_s start={record['calibration_s_start']:.4f} "
          f"end={record['calibration_s_end']:.4f}; "
          f"loadavg start={record['loadavg_start'][0]:.2f} "
          f"end={record['loadavg_end'][0]:.2f}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = not any(r["failures"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
