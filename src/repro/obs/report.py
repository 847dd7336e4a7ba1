"""Text views of a trace: the summary and the per-pass kernel rollup.

:class:`TraceView` reads a trace once — a JSONL path or a record
iterable, leniently — and folds it once into a
:class:`~repro.obs.aggregate.MetricsAggregator` and a per-pass
:func:`kernel_phase_rollup`. Every text view reads those two folds:

* :meth:`TraceView.summary` — the profile a perf investigation starts
  from: top regions by simulated scheduling time, the
  kernel/transfer/launch split, the divergence breakdown,
  iterations-to-convergence histograms and the pipeline decisions;
* :meth:`TraceView.kernels` — the per-pass rollup of launch costs
  (``python -m repro.obs TRACE --kernels``), with the seconds burned by
  injected faults per backend.

Kernel cost attribution lives here too. A launch's execution time is
the batch-wise *maximum* over wavefronts, not the cycle sum, so cycles
do not convert to seconds directly: :func:`attribute_seconds` splits a
launch's kernel seconds across the cycle categories of
:meth:`~repro.gpusim.kernel.KernelAccounting.charge_totals`
**proportionally to the category cycle shares**, which is exact when
wavefronts are balanced and a faithful estimate under divergence (the
serialized waves inflate every category's share alike). The simulated
device publishes that split on every ``kernel_launch`` event, and the
rollup applies the same rule to recorded launches, so traces recorded
before the split existed still attribute their cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..telemetry.schema import TraceSource, read_trace_lenient
from .aggregate import MetricsAggregator
from .slo import DEFAULT_SLO_TARGET

#: Cycle-category keys of ``KernelAccounting.charge_totals()``, in stable
#: report order; attribute names drop the ``_cycles`` suffix.
CYCLE_CATEGORIES = ("compute_cycles", "memory_cycles", "alloc_cycles", "uniform_cycles")

_BAR_WIDTH = 30


def attribute_seconds(kernel_seconds: float, charge_totals: Dict[str, float]) -> Dict[str, float]:
    """Split ``kernel_seconds`` across categories by cycle share.

    Keys are category names without the ``_cycles`` suffix; the values sum
    to ``kernel_seconds`` up to float rounding (compute absorbs everything
    when no cycles were charged).
    """
    total_cycles = sum(charge_totals.get(key, 0.0) for key in CYCLE_CATEGORIES)
    out: Dict[str, float] = {}
    if total_cycles <= 0.0:
        for key in CYCLE_CATEGORIES:
            out[key[: -len("_cycles")]] = 0.0
        out["compute"] = kernel_seconds
        return out
    for key in CYCLE_CATEGORIES:
        out[key[: -len("_cycles")]] = (
            kernel_seconds * charge_totals.get(key, 0.0) / total_cycles
        )
    return out


def _sum(launches: List[Dict], field: str):
    """``field`` summed over ``launches`` in record order."""
    return sum(record[field] for record in launches)


def _sum_by_key(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key totals of ``rows``, summed in row order."""
    totals: Dict[str, float] = {}
    for row in rows:
        for key, value in row.items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


@dataclass(frozen=True)
class PhaseRollup:
    """Aggregated launch costs for one ACO pass (the per-phase rollup)."""

    pass_index: int
    launches: int
    iterations: int
    wavefronts: int
    #: Ant constructions (ants x iterations, summed across launches).
    constructions: int
    kernel_seconds: float
    transfer_seconds: float
    launch_seconds: float
    #: Attributed seconds per category, summed across launches.
    seconds: Dict[str, float]
    serialized_selection_waves: int
    serialized_stall_waves: int
    dead_ants: int
    #: Execution batches (capacity waves), when the trace recorded them
    #: (an optional field newer traces carry).
    batches: int
    #: Kernel seconds per engine backend. ``backend`` is an optional
    #: schema-v1 extra: launches recorded without it (older traces, or
    #: producers that never learned the field) land under ``"unknown"``
    #: rather than being dropped or crashing the rollup.
    backend_seconds: Dict[str, float]

    @classmethod
    def of(cls, pass_index: int, launches: List[Dict]) -> "PhaseRollup":
        """The rollup of one pass's ``kernel_launch`` records."""
        return cls(
            pass_index=pass_index,
            launches=len(launches),
            iterations=_sum(launches, "iterations"),
            wavefronts=_sum(launches, "wavefronts"),
            constructions=sum(r["ants"] * r["iterations"] for r in launches),
            kernel_seconds=_sum(launches, "kernel_seconds"),
            transfer_seconds=_sum(launches, "transfer_seconds"),
            launch_seconds=_sum(launches, "launch_seconds"),
            # A launch record carries its category cycles under the
            # charge_totals() keys.
            seconds=_sum_by_key([attribute_seconds(r["kernel_seconds"], r) for r in launches]),
            serialized_selection_waves=_sum(launches, "serialized_selection_waves"),
            serialized_stall_waves=_sum(launches, "serialized_stall_waves"),
            dead_ants=_sum(launches, "dead_ants"),
            batches=sum(r.get("batches", 0) for r in launches),
            backend_seconds=_sum_by_key([
                {r.get("backend", "unknown"): r["kernel_seconds"]} for r in launches
            ]),
        )


def kernel_phase_rollup(records: Iterable[Dict]) -> Dict[int, PhaseRollup]:
    """Aggregate ``kernel_launch`` events per ``pass_index``.

    Consumes any iterable of schema-v1 records (other event types are
    ignored), so it works on strict and lenient trace reads and on
    in-memory ``MemorySink`` record lists alike.
    """
    launches: Dict[int, List[Dict]] = {}
    for record in records:
        if record.get("event") == "kernel_launch":
            launches.setdefault(record["pass_index"], []).append(record)
    return {p: PhaseRollup.of(p, group) for p, group in launches.items()}


def _counters(aggregator: MetricsAggregator, prefix: str) -> Dict[str, float]:
    """The aggregator's counters under ``prefix``, keyed by the rest."""
    return {
        name[len(prefix):]: value
        for name, value in aggregator.counters.items()
        if name.startswith(prefix)
    }


def _share_mix(parts: Dict[str, float], total: float) -> str:
    """``name 1.2 us (40%), ...`` by descending seconds, then name."""
    return ", ".join(
        "%s %.1f us (%.0f%%)" % (name, seconds * 1e6, 100.0 * seconds / total)
        for name, seconds in sorted(parts.items(), key=lambda kv: (-kv[1], kv[0]))
    )


def render_kernel_rollup(
    rollups: Dict[int, PhaseRollup],
    aggregator: Optional[MetricsAggregator] = None,
) -> str:
    """A text table of the per-phase launch-cost rollups.

    With an ``aggregator`` of the same records, a last line gives the
    seconds injected faults burned per backend.
    """
    if not rollups:
        return "(no kernel_launch events — nothing to attribute)\n"
    lines: List[str] = []
    for pass_index in sorted(rollups):
        phase = rollups[pass_index]
        lines.append(
            "pass %d: %d launch(es), %d iteration(s), %d wavefront(s)"
            % (pass_index, phase.launches, phase.iterations, phase.wavefronts)
        )
        lines.append(
            "  time split: kernel %.1f us, transfer %.1f us, launch %.1f us"
            % (
                phase.kernel_seconds * 1e6,
                phase.transfer_seconds * 1e6,
                phase.launch_seconds * 1e6,
            )
        )
        total = phase.kernel_seconds or 1.0
        parts = ", ".join(
            "%s %.1f us (%.0f%%)"
            % (name, seconds * 1e6, 100.0 * seconds / total)
            for name, seconds in sorted(phase.seconds.items(), key=lambda kv: -kv[1])
        )
        lines.append("  kernel attribution: %s" % parts)
        if phase.backend_seconds:
            lines.append("  backend mix: %s" % _share_mix(phase.backend_seconds, total))
        lines.append(
            "  divergence: %d selection wave(s), %d stall wave(s), %d dead ant(s)"
            % (
                phase.serialized_selection_waves,
                phase.serialized_stall_waves,
                phase.dead_ants,
            )
        )
        if phase.batches:
            lines.append("  execution batches: %d" % phase.batches)
    lost = _counters(aggregator, "kernel.lost_seconds.") if aggregator else {}
    if lost:
        lines.append(
            "fault-lost seconds by backend: %s" % _share_mix(lost, sum(lost.values()))
        )
    return "\n".join(lines) + "\n"


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


@dataclass(frozen=True)
class TraceView:
    """One read of a trace and its two folds, which every view reads."""

    records: List[Dict]
    #: Unparsable or schema-invalid records the lenient read skipped.
    skipped: int
    aggregator: MetricsAggregator
    rollups: Dict[int, PhaseRollup]

    @classmethod
    def read(
        cls, source: TraceSource, slo_target: float = DEFAULT_SLO_TARGET
    ) -> "TraceView":
        """Read ``source`` (a JSONL path or a record iterable) leniently:
        a trace truncated by a killed run, or a file that is not a trace
        at all, yields the valid records and a skip count."""
        records, skipped = read_trace_lenient(source)
        aggregator = MetricsAggregator(slo_target=slo_target)
        aggregator.consume_many(records)
        return cls(records, skipped, aggregator, kernel_phase_rollup(records))

    def kernels(self) -> str:
        """The per-pass kernel rollup (see :func:`render_kernel_rollup`)."""
        return render_kernel_rollup(self.rollups, self.aggregator)

    def summary(self, top: int = 10) -> str:
        """The trace profile; ``top`` (at least 1) regions are ranked."""
        if top < 1:
            raise ValueError("top must be >= 1, got %r" % top)
        if not self.records:
            line = "trace summary: no valid records"
            if self.skipped:
                line += " (skipped %d invalid or truncated line(s))" % self.skipped
            return line + "\n"

        by_type: Dict[str, int] = {}
        region_seconds: Dict[str, float] = {}
        region_iterations: Dict[str, int] = {}
        convergence: Dict[int, Dict[int, int]] = {1: {}, 2: {}}
        for record in self.records:
            event = record["event"]
            by_type[event] = by_type.get(event, 0) + 1
            if event == "pass_end" and record["invoked"]:
                region = record["region"]
                region_seconds[region] = region_seconds.get(region, 0.0) + record["seconds"]
                region_iterations[region] = (
                    region_iterations.get(region, 0) + record["iterations"]
                )
                counts = convergence[record["pass_index"]]
                counts[record["iterations"]] = counts.get(record["iterations"], 0) + 1

        lines: List[str] = []
        lines.append("trace summary: %d record(s)" % len(self.records))
        if self.skipped:
            lines.append("  skipped %d invalid or truncated line(s)" % self.skipped)
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

        counters = self.aggregator.counters
        launches = int(counters.get("kernel.launches", 0))
        if launches:
            kernel = sum(_counters(self.aggregator, "kernel.seconds.").values())
            transfer = counters["kernel.transfer_seconds"]
            launch = counters["kernel.launch_seconds"]
            total = kernel + transfer + launch
            lines.append("")
            lines.append("GPU time split over %d simulated launch(es):" % launches)
            for label, value in (("kernel", kernel), ("transfer", transfer), ("launch", launch)):
                lines.append(
                    "  %-8s %12.1f us  |%s|"
                    % (label, value * 1e6, _bar(value / total if total else 0.0))
                )
            phases = self.rollups.values()
            lines.append("divergence breakdown:")
            lines.append(
                "  serialized explore/exploit wavefront-steps: %d"
                % sum(p.serialized_selection_waves for p in phases)
            )
            lines.append(
                "  serialized stall-path wavefront-steps:      %d"
                % sum(p.serialized_stall_waves for p in phases)
            )
            constructions = sum(p.constructions for p in phases)
            if constructions:
                dead_ants = int(counters["kernel.dead_ants"])
                lines.append(
                    "  dead ants: %d of %d constructions (%.2f%%)"
                    % (dead_ants, constructions, 100.0 * dead_ants / constructions)
                )

        for pass_index in (1, 2):
            if convergence[pass_index]:
                lines.append("")
                lines.extend(
                    _histogram_lines(convergence[pass_index], "pass %d" % pass_index)
                )

        decisions = _counters(self.aggregator, "regions.decision.")
        if decisions:
            lines.append("")
            lines.append("pipeline decisions:")
            for name in sorted(decisions):
                lines.append("  %-20s %6d" % (name, decisions[name]))

        return "\n".join(lines) + "\n"


def summarize_trace(source: TraceSource, top: int = 10) -> str:
    """The summary of one trace (a JSONL path or a record iterable).

    Reading is lenient (see :meth:`TraceView.read`); an empty trace
    yields a one-line summary. ``top`` must be at least 1.
    """
    return TraceView.read(source).summary(top)
