"""Convergence curves (cost vs. iteration) from telemetry traces.

The telemetry layer records one ``iteration`` event per ACO iteration
(see :mod:`repro.telemetry.schema`); this module turns a recorded JSONL
trace back into the plot a tuning session wants: how fast the colony's
best cost fell, per region and pass. Plain text like the rest of
:mod:`repro.viz` — nothing here needs a plotting library.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import TelemetryError
from ..telemetry.schema import TraceSource, read_trace


def convergence_series(
    source: TraceSource,
    region: Optional[str] = None,
    pass_index: Optional[int] = None,
) -> Dict[Tuple[str, int], List[Dict]]:
    """Per-(region, pass) iteration events of a trace, in recorded order.

    ``source`` is a JSONL trace path or an iterable of already-parsed
    records; ``region`` / ``pass_index`` filter the result. Each value is
    the list of ``iteration`` event records (``winner_cost`` is None for
    iterations where every ant died).
    """
    records = read_trace(source)
    series: Dict[Tuple[str, int], List[Dict]] = {}
    for record in records:
        if record["event"] != "iteration":
            continue
        if region is not None and record["region"] != region:
            continue
        if pass_index is not None and record["pass_index"] != pass_index:
            continue
        series.setdefault((record["region"], record["pass_index"]), []).append(record)
    return series


def _render_one(region: str, pass_index: int, events: List[Dict], width: int, height: int) -> str:
    """One curve: ``*`` = iteration winner, ``o`` = best-so-far, ``x`` = dead."""
    winners = [e["winner_cost"] for e in events]
    bests = [e["best_cost"] for e in events]
    finite = [v for v in winners if v is not None] + bests
    lo, hi = min(finite), max(finite)
    span = hi - lo

    iterations = len(events)
    columns = min(iterations, width)
    # Nearest-sample downsampling keeps the first and last iteration.
    picks = [
        (i * (iterations - 1)) // (columns - 1) if columns > 1 else 0
        for i in range(columns)
    ]

    def row_of(value: Optional[float]) -> Optional[int]:
        if value is None:
            return None
        if span == 0:
            return height - 1
        return int(round((value - lo) / span * (height - 1)))

    grid = [[" "] * columns for _ in range(height)]
    for col, i in enumerate(picks):
        best_row = row_of(bests[i])
        if best_row is not None:
            grid[best_row][col] = "o"
        winner_row = row_of(winners[i])
        if winner_row is None:
            grid[height - 1][col] = "x"  # dead iteration: off the top
        elif grid[winner_row][col] == " ":
            grid[winner_row][col] = "*"

    lines = [
        "%s pass %d: %d iteration(s), best %g -> %g"
        % (region, pass_index, iterations, bests[0], bests[-1])
    ]
    for row in range(height - 1, -1, -1):
        value = lo + span * row / (height - 1) if height > 1 else lo
        lines.append("%10.4g |%s|" % (value, "".join(grid[row])))
    lines.append("%10s +%s+" % ("", "-" * columns))
    lines.append(
        "%10s  iteration 0..%d   (* winner, o best-so-far, x all ants dead)"
        % ("", iterations - 1)
    )
    return "\n".join(lines)


def convergence_curve(
    source: TraceSource,
    region: Optional[str] = None,
    pass_index: Optional[int] = None,
    width: int = 60,
    height: int = 12,
) -> str:
    """Render cost-vs-iteration curves from a recorded trace.

    One text plot per (region, pass) pair that survives the ``region`` /
    ``pass_index`` filters. Raises :class:`TelemetryError` when the trace
    holds no matching iteration events (an unfiltered trace with no ACO
    invocations, or a filter that matches nothing).
    """
    series = convergence_series(source, region=region, pass_index=pass_index)
    if not series:
        raise TelemetryError(
            "no iteration events match (region=%r, pass_index=%r)"
            % (region, pass_index)
        )
    plots = [
        _render_one(name, index, events, width, height)
        for (name, index), events in sorted(series.items())
    ]
    return "\n\n".join(plots) + "\n"
