"""Machine-readable reports shared by every CLI subcommand.

Reports serialize deterministically: numeric results carry either an
exact rational/ring-element string or an outward-rounded decimal interval
[lo, hi], never a bare float.  Elapsed time is shown only in the human
rendering so that JSON output is byte-stable across runs.
"""

from __future__ import annotations

import json

from .intervals import Enclosure
from .record import Record

TOOL_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
PROBE_ONLY = "probe-only"
ERRATUM = "erratum"


# the report's decimal places; endpoints round outward to them
_PLACES = 12
_UNIT = 10 ** _PLACES


def format_endpoint(n: int, d: int, round_up: bool = False) -> str:
    """Exact decimal rendering of n / d (d > 0) rounded outward to
    _PLACES digits."""
    v = -(-n * _UNIT // d) if round_up else n * _UNIT // d
    whole, frac = divmod(abs(v), _UNIT)
    return f"{'-' if v < 0 else ''}{whole}.{frac:0{_PLACES}d}"


def interval_json(e: Enclosure) -> list[str]:
    """Deterministic [lo, hi] string pair, outward rounded."""
    lo, hi, s = e
    return [format_endpoint(lo, s), format_endpoint(hi, s, round_up=True)]


class ReportEntry(Record):
    name: str
    verdict: str
    value: object = None
    anchor: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict}
        if self.value is not None:
            out["value"] = self.value
        if self.anchor:
            out["anchor"] = self.anchor
        return out


class Report(Record):
    command: str
    inputs: dict = {}
    results: list[ReportEntry] = []

    def add(self, name: str, verdict: str, value=None, anchor: str = "") -> None:
        self.results.append(ReportEntry(name, verdict, value, anchor))

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.results:
            out[e.verdict] = out.get(e.verdict, 0) + 1
        return out

    def failed(self) -> bool:
        return any(e.verdict == FAIL for e in self.results)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "tool_version": TOOL_VERSION,
            "inputs": self.inputs,
            "results": [e.to_json() for e in self.results],
            "summary": self.counts(),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=1, ensure_ascii=True,
                          sort_keys=False)

    def to_text(self) -> str:
        """Human rendering; byte-stable, so timing goes to stderr instead."""
        lines = [f"[{self.command}] quartic {TOOL_VERSION}"]
        if self.inputs:
            lines.append("inputs: " + json.dumps(self.inputs, ensure_ascii=True,
                                                 sort_keys=False))
        width = max((len(e.name) for e in self.results), default=0)
        for e in self.results:
            tag = e.verdict.upper()
            value = ""
            if e.value is not None:
                value = " " + json.dumps(e.value, ensure_ascii=True,
                                         sort_keys=False)
            anchor = f"  ({e.anchor})" if e.anchor else ""
            lines.append(f"  {tag:>10}  {e.name:<{width}}{value}{anchor}")
        counts = self.counts()
        lines.append("summary: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
        return "\n".join(lines)
