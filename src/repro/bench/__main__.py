"""``python -m repro.bench`` — the continuous-benchmark runner.

Runs the registered benches at one experiment scale under a live span
profiler and a telemetry sink that keeps the simulated kernel launches,
writes ``BENCH_<name>.json`` files, and (with ``--baseline``) gates
against a committed baseline directory: exit 0 when clean, 1 on
regression, 2 on usage error.

Typical CI invocation::

    PYTHONPATH=src python -m repro.bench --scale test --out bench-out \\
        --baseline benchmarks/baselines/test
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..cli import _writable
from ..errors import BenchError, ReproError
from ..experiments.common import SCALES, ExperimentContext
from ..profile import SpanProfiler, profile_session
from ..telemetry import Telemetry
from .compare import (
    DEFAULT_THRESHOLD_PCT,
    compare_payloads,
    load_bench_dir,
    render_deltas,
)
from .core import BENCHES, LaunchSink, run_benches, write_bench


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the continuous benchmarks and emit BENCH_*.json.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="test",
        help="experiment scale to run at (default: test)",
    )
    parser.add_argument(
        "--out",
        default="bench-out",
        help="directory for BENCH_*.json files (default: bench-out)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        choices=sorted(BENCHES),
        help="run only this bench (repeatable; default: all)",
    )
    parser.add_argument(
        "--baseline",
        help="directory of baseline BENCH_*.json files to gate against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_PCT,
        help="regression tolerance in percent (default: %(default)s)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available benches and exit"
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="append this run's summary (git rev + fingerprint + metric "
        "values, no wall clock) to a BENCH_history.jsonl trajectory and "
        "print its trend report",
    )
    parser.add_argument(
        "--record",
        metavar="DIR",
        default=None,
        help="record the bench run as a canonical bundle directory "
        "(events, metrics, spans, schedules, RNG draw digests) diffable "
        "with python -m repro.obs.diff",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name, func in BENCHES.items():
            doc = (func.__doc__ or "").strip().splitlines()
            print("%-10s %s" % (name, doc[0] if doc else ""))
        return 0
    if args.threshold < 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return 2
    if args.record and not _writable(args.record, directory=True):
        print("error: --record: cannot write to %r" % args.record, file=sys.stderr)
        return 2

    scale = SCALES[args.scale]
    profiler = SpanProfiler()
    recorder = None
    if args.record:
        from ..obs.record import RunRecorder

        recorder = RunRecorder()
    telemetry = Telemetry(sink=LaunchSink(), recorder=recorder)
    try:
        with profile_session(profiler):
            context = ExperimentContext(scale, telemetry=telemetry)
            payloads = run_benches(context, names=args.bench)
        if recorder is not None:
            from ..obs.record import span_tree_payload

            recorder.set_spans(span_tree_payload(profiler.root))
            recorder.save(args.record)
            print("recorded run bundle at %s" % args.record)
        for payload in payloads:
            path = write_bench(args.out, payload)
            print("wrote %s (%d metrics)" % (path, len(payload["metrics"])))

        if args.history:
            from .history import append_history, load_history, render_trend

            append_history(args.history, payloads)
            entries, _skipped = load_history(args.history)
            print("appended history entry #%d to %s" % (len(entries), args.history))
            print(render_trend(entries, scale=args.scale), end="")

        if args.baseline:
            baseline = load_bench_dir(args.baseline)
            if args.bench:
                # Partial runs gate only against the benches they ran.
                selected = set(args.bench)
                baseline = [p for p in baseline if p["name"] in selected]
            deltas = compare_payloads(payloads, baseline, args.threshold)
            print(render_deltas(deltas))
            if any(d.regression for d in deltas):
                print(
                    "FAIL: regression(s) beyond %.1f%% of baseline"
                    % args.threshold,
                    file=sys.stderr,
                )
                return 1
            print("baseline check passed")
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
