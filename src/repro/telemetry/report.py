"""Human-readable profiles from traces.

:func:`summarize_trace` turns a JSONL trace (or an in-memory record list)
into the profile a perf investigation starts from: top regions by
simulated scheduling time, the kernel/transfer/launch split, the
divergence breakdown and iterations-to-convergence histograms.

Also runnable as ``python -m repro.telemetry.report TRACE.jsonl`` to
profile a recorded trace from the shell.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Union

from ..errors import TelemetryError
from .schema import read_trace_lenient, validate_event

_BAR_WIDTH = 30


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _histogram_lines(counts: Dict[int, int], label: str) -> List[str]:
    lines = ["%s iterations-to-convergence:" % label]
    total = sum(counts.values()) or 1
    for iterations in sorted(counts):
        n = counts[iterations]
        lines.append(
            "  %4d iter  %6d  |%s|" % (iterations, n, _bar(n / total))
        )
    return lines


def summarize_trace(source: Union[str, Iterable[Dict]], top: int = 10) -> str:
    """Render the profile of one trace (a path or an iterable of records).

    Reading is *lenient*: unparsable or schema-invalid records — a trace
    truncated by a killed run, or a file that is not a trace at all — are
    skipped and counted instead of raising, and an empty trace yields a
    friendly one-line summary.
    """
    if isinstance(source, str):
        records, skipped = read_trace_lenient(source)
    else:
        records = []
        skipped = 0
        for record in source:
            try:
                validate_event(record)
            except TelemetryError:
                skipped += 1
                continue
            records.append(record)
    return _render_summary(records, skipped, top)


def _render_summary(records: List[Dict], skipped: int, top: int) -> str:
    """The :func:`summarize_trace` text for already-validated records."""
    if not records:
        line = "trace summary: no valid records"
        if skipped:
            line += " (skipped %d invalid or truncated line(s))" % skipped
        return line + "\n"

    by_type: Dict[str, int] = defaultdict(int)
    region_seconds: Dict[str, float] = defaultdict(float)
    region_iterations: Dict[str, int] = defaultdict(int)
    convergence: Dict[int, Dict[int, int]] = {1: defaultdict(int), 2: defaultdict(int)}
    kernel = transfer = launch = 0.0
    sel_waves = stall_waves = dead_ants = total_ants = 0
    launches = 0
    decisions: Dict[str, int] = defaultdict(int)

    for record in records:
        event = record["event"]
        by_type[event] += 1
        if event == "pass_end" and record["invoked"]:
            region_seconds[record["region"]] += record["seconds"]
            region_iterations[record["region"]] += record["iterations"]
            convergence[record["pass_index"]][record["iterations"]] += 1
        elif event == "kernel_launch":
            launches += 1
            kernel += record["kernel_seconds"]
            transfer += record["transfer_seconds"]
            launch += record["launch_seconds"]
            sel_waves += record["serialized_selection_waves"]
            stall_waves += record["serialized_stall_waves"]
            dead_ants += record["dead_ants"]
            total_ants += record["ants"] * record["iterations"]
        elif event == "region_end":
            decisions[record["decision"]] += 1

    lines: List[str] = []
    lines.append("trace summary: %d record(s)" % len(records))
    if skipped:
        lines.append("  skipped %d invalid or truncated line(s)" % skipped)
    lines.append(
        "  events: "
        + ", ".join("%s=%d" % (t, by_type[t]) for t in sorted(by_type))
    )

    if region_seconds:
        lines.append("")
        lines.append("top %d regions by simulated scheduling time:" % top)
        worst = max(region_seconds.values())
        ranked = sorted(region_seconds.items(), key=lambda kv: -kv[1])[:top]
        for name, seconds in ranked:
            lines.append(
                "  %-28s %10.1f us  %4d iter  |%s|"
                % (
                    name[:28],
                    seconds * 1e6,
                    region_iterations[name],
                    _bar(seconds / worst if worst else 0.0),
                )
            )

    if launches:
        total = kernel + transfer + launch
        lines.append("")
        lines.append("GPU time split over %d simulated launch(es):" % launches)
        for label, value in (("kernel", kernel), ("transfer", transfer), ("launch", launch)):
            lines.append(
                "  %-8s %12.1f us  |%s|"
                % (label, value * 1e6, _bar(value / total if total else 0.0))
            )
        lines.append("divergence breakdown:")
        lines.append("  serialized explore/exploit wavefront-steps: %d" % sel_waves)
        lines.append("  serialized stall-path wavefront-steps:      %d" % stall_waves)
        if total_ants:
            lines.append(
                "  dead ants: %d of %d constructions (%.2f%%)"
                % (dead_ants, total_ants, 100.0 * dead_ants / total_ants)
            )

    for pass_index in (1, 2):
        if convergence[pass_index]:
            lines.append("")
            lines.extend(
                _histogram_lines(convergence[pass_index], "pass %d" % pass_index)
            )

    if decisions:
        lines.append("")
        lines.append("pipeline decisions:")
        for name in sorted(decisions):
            lines.append("  %-20s %6d" % (name, decisions[name]))

    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.telemetry.report",
        description="Summarize a JSONL telemetry trace.",
    )
    parser.add_argument("trace", help="path to a JSONL trace file")
    parser.add_argument(
        "--top", type=int, default=10, help="regions to rank (default 10)"
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="also print the per-pass kernel cost attribution rollup",
    )
    args = parser.parse_args(argv)
    import sys

    try:
        # One lenient read feeds both the summary and the kernel rollup.
        records, skipped = read_trace_lenient(args.trace)
        print(_render_summary(records, skipped, args.top), end="")
        if args.kernels:
            from ..profile.attribution import (
                fault_loss_rollup,
                kernel_phase_rollup,
                render_kernel_rollup,
            )

            print()
            print(
                render_kernel_rollup(
                    kernel_phase_rollup(records), lost=fault_loss_rollup(records)
                ),
                end="",
            )
    except (OSError, TelemetryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
