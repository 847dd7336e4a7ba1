"""Baseline comparison and regression gating for BENCH_*.json files.

A *regression* is a gated metric (direction ``lower`` or ``higher``) that
moved in the bad direction by more than ``threshold_pct`` percent of the
baseline value or is no longer finite, a bench/metric that the baseline
has and the current run lost, or a bench the run produced that the
baseline lacks. ``info`` metrics are reported when they drift but never
gate.

Because the simulation is deterministic, the threshold is not there to
absorb noise — it is the *tolerance policy*: how much modelled compile
time or schedule quality the project is willing to trade in one PR before
CI demands an explicit baseline update.
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import BenchError
from .core import BENCH_SCHEMA

#: Default regression tolerance, percent of the baseline value.
DEFAULT_THRESHOLD_PCT = 10.0


@dataclass(frozen=True)
class Delta:
    """One metric's movement between baseline and current."""

    bench: str
    name: str
    direction: str
    baseline: Optional[float]
    current: Optional[float]
    delta_pct: Optional[float]
    regression: bool
    note: str = ""

    def describe(self) -> str:
        tag = "REGRESSION" if self.regression else "ok"
        if self.note:
            return "%-10s %s/%s: %s" % (tag, self.bench, self.name, self.note)
        return "%-10s %s/%s: %.6g -> %.6g (%+.2f%%, %s is better)" % (
            tag,
            self.bench,
            self.name,
            self.baseline,
            self.current,
            self.delta_pct,
            self.direction,
        )


def load_bench(path: str) -> Dict[str, object]:
    """Load and schema-check one BENCH_*.json file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read bench file %s: %s" % (path, exc)) from exc
    if not isinstance(payload, dict) or payload.get("bench_schema") != BENCH_SCHEMA:
        raise BenchError(
            "%s: not a bench_schema=%d file (got %r)"
            % (path, BENCH_SCHEMA, payload.get("bench_schema") if isinstance(payload, dict) else type(payload).__name__)
        )
    if "name" not in payload or not isinstance(payload.get("metrics"), dict):
        raise BenchError("%s: missing name/metrics" % path)
    return payload


def _metric_value(entry) -> Tuple[float, str]:
    return float(entry["value"]), str(entry.get("direction", "info"))


def compare_metrics(
    bench: str,
    current: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> List[Delta]:
    """Compare one bench's metric dicts; baseline drives the iteration."""
    if not math.isfinite(threshold_pct) or threshold_pct < 0:
        raise BenchError(
            "threshold must be a finite number >= 0, got %r" % threshold_pct
        )
    deltas: List[Delta] = []
    for name in sorted(baseline):
        base_value, direction = _metric_value(baseline[name])
        if name not in current:
            deltas.append(
                Delta(
                    bench, name, direction, base_value, None, None,
                    regression=direction != "info",
                    note="metric missing from current run",
                )
            )
            continue
        cur_value, _cur_direction = _metric_value(current[name])
        denom = abs(base_value) if base_value != 0 else 1.0
        delta_pct = 100.0 * (cur_value - base_value) / denom
        if direction != "info" and not math.isfinite(cur_value):
            regressed = True
        elif direction == "lower":
            regressed = delta_pct > threshold_pct
        elif direction == "higher":
            regressed = delta_pct < -threshold_pct
        else:
            regressed = False
        deltas.append(
            Delta(bench, name, direction, base_value, cur_value, delta_pct, regressed)
        )
    return deltas


def compare_payloads(
    current: List[Dict[str, object]],
    baseline: List[Dict[str, object]],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> List[Delta]:
    """Compare two bench-payload sets (a whole baseline is authoritative).

    A bench the run produced but the baseline lacks is a regression too:
    it would otherwise pass ungated.
    """
    current_by_name = {str(p["name"]): p for p in current}
    deltas: List[Delta] = []
    for base in baseline:
        name = str(base["name"])
        cur = current_by_name.get(name)
        if cur is None:
            deltas.append(
                Delta(
                    name, "*", "info", None, None, None,
                    regression=True,
                    note="bench missing from current run",
                )
            )
            continue
        deltas.extend(
            compare_metrics(name, cur["metrics"], base["metrics"], threshold_pct)
        )
    baseline_names = {str(p["name"]) for p in baseline}
    deltas.extend(
        Delta(
            name, "*", "info", None, None, None,
            regression=True,
            note="bench missing from baseline",
        )
        for name in current_by_name
        if name not in baseline_names
    )
    return deltas


def load_bench_dir(directory: str) -> List[Dict[str, object]]:
    """Every BENCH_*.json in ``directory``, sorted by name."""
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        raise BenchError("no BENCH_*.json files in %s" % directory)
    return [load_bench(path) for path in paths]


def render_deltas(deltas: List[Delta], show_ok: bool = True) -> str:
    lines = []
    regressions = [d for d in deltas if d.regression]
    for delta in deltas:
        if delta.regression or show_ok:
            lines.append(delta.describe())
    lines.append(
        "%d metric(s) compared, %d regression(s)" % (len(deltas), len(regressions))
    )
    return "\n".join(lines)
