"""Compare two sets of host-benchmark runs, one row per workload x metric.

    python benchmarks/host/compare.py --base a/results.json b/results.json ... \\
                                      --head c/results.json d/results.json ...

List the runs of each side in the order they were made, alternating sides
(base, head, base, head, ...), so that run i of each side forms a pair.
Bounds and directions come from ``BENCHMARK.json``. Each row gets one
verdict:

* ``improved``   at least 10 pairs, the head wins at least 9/10 of them
                 (ties count for neither side), and the medians differ by
                 more than the base runs' interquartile range;
* ``unresolved`` the run-to-run spread (the larger interquartile range,
                 relative to the base median) exceeds the bound, unless
                 every head run is better than every base run;
* ``regressed``  the head median is worse than the base median by more
                 than the bound;
* ``unchanged``  otherwise.

The exit status is 1 when a row regressed or is unresolved, or when a run
on either side failed a request; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], head: Sequence[float], better: str, bound: float) -> Dict:
    """Judge one workload x metric; ``better`` is ``lower`` or ``higher``."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    worse = sign * (h_med - b_med) / b_med
    spread = max(b3 - b1, h3 - h1) / b_med
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and abs(h_med - b_med) > b3 - b1:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {
        "base": (b_med, b1, b3),
        "head": (h_med, h1, h3),
        "change": (h_med - b_med) / b_med,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": result,
    }


def load(paths: Sequence[str]) -> List[Dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def compare(base: List[Dict], head: List[Dict], spec: Dict, out=sys.stdout) -> int:
    """Print the comparison table; return the exit status."""
    status = 0
    print(
        "%-17s %-15s %-32s %-32s %8s %6s %6s %s"
        % ("workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
           "change", "bound", "wins", "verdict"),
        file=out,
    )
    workloads = [w for w in base[0]["workloads"] if all(w in r["workloads"] for r in base + head)]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [r["workloads"][workload]["end_to_end"][name] for r in side] for side in (base, head)
            ]
            row = verdict(values[0], values[1], metric["better"], metric["bound"])
            if row["verdict"] in ("regressed", "unresolved"):
                status = 1
            print(
                "%-17s %-15s %-32s %-32s %+7.1f%% %5.0f%% %6s %s"
                % (workload, name,
                   "%.6g [%.6g, %.6g]" % row["base"], "%.6g [%.6g, %.6g]" % row["head"],
                   100.0 * row["change"], 100.0 * metric["bound"],
                   "%d/%d" % (row["wins"], row["pairs"]), row["verdict"]),
                file=out,
            )
        failed = [sum(r["workloads"][workload]["failed"] for r in side) for side in (base, head)]
        if any(failed):
            status = 1
            print("%-17s failed requests: base %d, head %d" % (workload, *failed), file=out)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="results.json of the parent")
    parser.add_argument("--head", nargs="+", required=True, help="results.json of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(args.base), load(args.head), spec)


if __name__ == "__main__":
    sys.exit(main())
