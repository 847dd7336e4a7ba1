"""``python -m repro.obs``: every offline view of a recorded trace.

Reads the trace once (leniently — a truncated or foreign line is
skipped and counted) and prints its summary; the flags add views of the
same read:

* ``--top N`` — regions the summary ranks (default 10);
* ``--kernels`` — the per-pass kernel cost rollup;
* ``--dashboard`` — the terminal panel; ``--follow`` re-renders it as a
  run appends to the file, polling every ``--interval`` wall seconds
  (the wall clock only paces polling; it never measures);
* ``--openmetrics/--snapshot/--perfetto PATH`` — write the exports;
* ``--slo-target F`` — the SLO the dashboard and exports judge against;
* ``--lint FILE`` — lint an OpenMetrics file instead (exit 1 on errors).

Exit codes: 0 on success, 1 when ``--lint`` finds errors, 2 for a usage
error or a file that cannot be read.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import (
    aggregate_trace,
    lint_openmetrics,
    render_dashboard,
    to_openmetrics,
    write_perfetto,
)
from .report import TraceView
from .slo import DEFAULT_SLO_TARGET, slo_target_arg


def _lint(path: str) -> int:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    errors = lint_openmetrics(text)
    for error in errors:
        print("openmetrics: %s" % error, file=sys.stderr)
    print("%s: %s" % (path, "FAILED (%d error(s))" % len(errors) if errors else "OK"))
    return 1 if errors else 0


def _follow(path: str, slo_target: float, interval: float, events: int) -> int:
    """Re-render the dashboard whenever the trace grows, until interrupted."""
    try:
        while True:
            time.sleep(max(0.1, interval))
            aggregator, _ = aggregate_trace(path, slo_target=slo_target)
            if aggregator.events != events:
                events = aggregator.events
                print("\033[2J\033[H", end="")
                print(render_dashboard(aggregator), end="")
    except KeyboardInterrupt:
        return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, render and export a recorded JSONL trace.",
    )
    parser.add_argument("trace", nargs="?", help="path to a JSONL telemetry trace")
    parser.add_argument(
        "--top", type=int, default=10, help="regions to rank (default 10)"
    )
    parser.add_argument(
        "--kernels", action="store_true",
        help="also print the per-pass kernel cost attribution rollup",
    )
    parser.add_argument(
        "--dashboard", action="store_true",
        help="also render the terminal dashboard (throughput, latency, "
        "backend mix, resilience, SLO burn)",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="with --dashboard: poll the trace and re-render as a run appends",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="polling interval in wall seconds for --follow (default 1.0)",
    )
    parser.add_argument("--openmetrics", metavar="PATH", help="write OpenMetrics text")
    parser.add_argument("--snapshot", metavar="PATH", help="write the JSON snapshot")
    parser.add_argument(
        "--perfetto", metavar="PATH", help="write Chrome trace-event JSON"
    )
    parser.add_argument(
        "--slo-target", type=slo_target_arg, default=DEFAULT_SLO_TARGET,
        help="deadline-SLO target fraction (default %(default)s)",
    )
    parser.add_argument(
        "--lint", metavar="FILE",
        help="validate an OpenMetrics text file and exit",
    )
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be >= 1, got %d" % args.top)
    if args.follow and not args.dashboard:
        parser.error("--follow needs --dashboard")
    if args.lint:
        return _lint(args.lint)
    if not args.trace:
        parser.error("a trace (or --lint FILE) is required")

    try:
        view = TraceView.read(args.trace, slo_target=args.slo_target)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(view.summary(args.top), end="")
    if args.kernels:
        print()
        print(view.kernels(), end="")
    if args.dashboard:
        print()
        print(render_dashboard(view.aggregator), end="")
    if args.openmetrics:
        _write(args.openmetrics, to_openmetrics(view.aggregator))
        print("[openmetrics written to %s]" % args.openmetrics)
    if args.snapshot:
        _write(args.snapshot, view.aggregator.snapshot_json())
        print("[snapshot written to %s]" % args.snapshot)
    if args.perfetto:
        count = write_perfetto(args.perfetto, view.records)
        print("[perfetto trace written to %s (%d event(s))]" % (args.perfetto, count))
    if args.follow:
        return _follow(args.trace, args.slo_target, args.interval, view.aggregator.events)
    return 0


if __name__ == "__main__":
    sys.exit(main())
