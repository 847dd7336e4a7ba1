"""The metrics aggregation engine: fold the event stream into distributions.

:class:`MetricsAggregator` consumes schema-v1 telemetry records — live
through an :class:`AggregatingSink`, or offline from a recorded JSONL
trace — and folds them into counters, gauges and exponential-bucket
histograms denominated in **cost-model seconds**. Everything it produces
is deterministic: the events carry no wall clock, the histogram bucket
bounds are exact binary floats, and :meth:`MetricsAggregator.snapshot_json`
serializes with sorted keys, so two identical seeded runs yield
byte-identical snapshots (the property the CI golden diff gates).

The aggregator is an *observer*: it reads event dicts and never imports a
scheduler, touches an RNG or charges a cost model, so enabling it cannot
perturb a run ("observability observes, never steers").

Overhead is modelled, like every other second in the reproduction: one
histogram/counter update is a dict lookup plus an add
(:data:`MODELED_UPDATE_SECONDS`), while the telemetry bus already pays a
JSON serialization per event (:data:`MODELED_EMIT_SECONDS`); the
``bench_obs`` baseline gates the ratio (< 5%).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

from ..telemetry.schema import TraceSource, read_trace_lenient
from ..telemetry.sinks import Sink
from .slo import DEFAULT_SLO_TARGET, SLOReport

#: Version of the aggregator snapshot layout.
SNAPSHOT_SCHEMA = 1

#: Modelled host cost of one aggregator metric update (dict lookup + add).
MODELED_UPDATE_SECONDS = 50e-9

#: Modelled host cost the telemetry bus already pays per emitted event
#: (schema validation + JSON serialization to the sink).
MODELED_EMIT_SECONDS = 5e-6

#: Per-octave sub-step mantissas of the exponential bucket layout:
#: 2**(0/4), 2**(1/4), 2**(2/4), 2**(3/4) as exact literals. Bucket
#: bounds are ``mantissa * 2.0**octave`` — scaling by powers of two is
#: exact in IEEE 754, so the bounds are bit-identical on every platform
#: (no libm ``pow`` in sight).
_SUBSTEPS: Tuple[float, ...] = (
    1.0,
    1.189207115002721,
    1.4142135623730951,
    1.681792830507429,
)

#: 2**(1/8) as an exact literal: the geometric half-step used for
#: mid-bucket quantile estimates.
_HALF_STEP = 1.0905077326652577

#: Maximum relative error of a quantile estimate for in-range values:
#: the estimate sits at the geometric middle of a growth-2**(1/4) bucket,
#: so it is off by at most a half-step (about 9.05%).
QUANTILE_ERROR_BOUND = _HALF_STEP - 1.0


class ExpHistogram:
    """An exponential-bucket histogram with bounded-relative-error quantiles.

    Bucket upper bounds grow by ``2**(1/4)`` per bucket, spanning octaves
    ``[lo_octave, hi_octave)`` (defaults cover ~0.9 ns .. ~4096 s — every
    latency the cost models produce). Bucket 0 is ``(0, bounds[0]]``;
    values above the last bound, and non-finite values, land in the
    overflow bucket. Zero and negative observations count but occupy no
    bucket (they have no order of magnitude).

    :meth:`quantile` walks the cumulative counts and returns the geometric
    middle of the selected bucket, clamped into the observed ``[min, max]``
    range — the relative error for in-range values is at most
    :data:`QUANTILE_ERROR_BOUND`.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max", "zeros", "overflow")

    def __init__(self, lo_octave: int = -30, hi_octave: int = 12):
        if hi_octave <= lo_octave:
            raise ValueError("empty octave range [%d, %d)" % (lo_octave, hi_octave))
        self.bounds: Tuple[float, ...] = tuple(
            m * 2.0 ** octave
            for octave in range(lo_octave, hi_octave)
            for m in _SUBSTEPS
        )
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zeros = 0
        self.overflow = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if not math.isfinite(value):
            self.overflow += 1
            return
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= 0.0:
            self.zeros += 1
            return
        if value > self.bounds[-1]:
            self.overflow += 1
            return
        index = self._bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1

    def _bucket_index(self, value: float) -> int:
        """Binary search: the first bucket whose bound is >= value."""
        lo, hi = 0, len(self.bounds) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bounds[mid] >= value:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) of the observations."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        seen = self.zeros
        if rank <= seen:
            return 0.0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if rank <= seen:
                estimate = self.bounds[index] / _HALF_STEP
                return self._clamp(estimate)
        # Overflow bucket: the best deterministic estimate is the max.
        return self.max if self.max is not None else self.bounds[-1]

    def _clamp(self, value: float) -> float:
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` for every occupied bucket, in order."""
        return [(self.bounds[i], self.counts[i]) for i in sorted(self.counts)]

    def snapshot(self) -> Dict[str, object]:
        """A plain, deterministic dict (sparse bucket encoding)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zeros": self.zeros,
            "overflow": self.overflow,
            "buckets": {str(i): self.counts[i] for i in sorted(self.counts)},
        }


#: Quantiles reported per histogram in snapshots and exports.
REPORTED_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


class MetricsAggregator:
    """Folds schema-v1 telemetry records into a deterministic snapshot."""

    def __init__(self, slo_target: float = DEFAULT_SLO_TARGET):
        if not 0.0 < slo_target <= 1.0:
            raise ValueError("SLO target must be in (0, 1], got %r" % slo_target)
        self.slo_target = slo_target
        self.events = 0
        #: Metric mutations performed — the bench's overhead numerator.
        self.updates = 0
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, ExpHistogram] = {}
        self._traces: set = set()
        self._violations: set = set()
        self._regions: set = set()
        #: Regions that ended unrecoverable, in event order. A name list,
        #: not a metric: :meth:`snapshot` leaves it out.
        self.unrecoverable_regions: List[str] = []

    # -- primitive updates (each counts toward the overhead model) ----------

    def _inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount
        self.updates += 1

    def _set(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)
        self.updates += 1

    def _observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = ExpHistogram()
        hist.observe(value)
        self.updates += 1

    # -- folding ------------------------------------------------------------

    def consume(self, record: Dict) -> None:
        """Fold one telemetry record (unknown event types are counted only)."""
        self.events += 1
        trace_id = record.get("trace_id")
        if trace_id is not None:
            self._traces.add(trace_id)
        handler = _HANDLERS.get(record.get("event"))
        if handler is not None:
            handler(self, record)

    def consume_many(self, records: Iterable[Dict]) -> None:
        for record in records:
            self.consume(record)

    @staticmethod
    def _region_key(record: Dict) -> object:
        """Stable identity of a record's region (trace id when stamped)."""
        return record.get("trace_id") or record.get("region")

    def _on_region_end(self, record: Dict) -> None:
        self._regions.add(self._region_key(record))
        decision = record["decision"]
        self._inc("regions.total")
        self._inc("regions.decision.%s" % decision)
        if record["aco_invoked"]:
            self._inc("regions.aco_invoked")
        self._observe("region.latency_seconds", record["scheduling_seconds"])
        gained = record["final_occupancy"] - record["heuristic_occupancy"]
        if gained:
            self._inc("regions.occupancy_gained", gained)
        if decision in ("degraded", "unrecoverable"):
            self._violations.add(self._region_key(record))
        if decision == "unrecoverable":
            self.unrecoverable_regions.append(record["region"])

    def _on_pass_end(self, record: Dict) -> None:
        if not record["invoked"]:
            return
        prefix = "pass%d" % record["pass_index"]
        self._inc("%s.regions" % prefix)
        self._inc("%s.iterations" % prefix, record["iterations"])
        self._observe("%s.latency_seconds" % prefix, record["seconds"])

    def _on_kernel_launch(self, record: Dict) -> None:
        backend = record.get("backend", "unknown")
        self._inc("kernel.launches")
        self._inc(
            "kernel.seconds.pass%d.%s" % (record["pass_index"], backend),
            record["kernel_seconds"],
        )
        self._inc("kernel.transfer_seconds", record["transfer_seconds"])
        self._inc("kernel.launch_seconds", record["launch_seconds"])
        self._inc("kernel.dead_ants", record["dead_ants"])

    def _on_transfer(self, record: Dict) -> None:
        self._inc("transfer.bytes", record["bytes"])
        self._inc("transfer.calls", record["calls"])

    def _on_fault(self, record: Dict) -> None:
        self._inc("resilience.faults.total")
        self._inc("resilience.faults.%s" % record["fault_class"])
        self._observe("fault.lost_seconds", record["seconds"])
        # Attribute burned seconds to the engine that burned them — fault
        # events carry the attempt's backend (the ladder's current rung, or
        # the scheduler backend on single-attempt faults).
        backend = record.get("backend") or record.get("rung") or "unknown"
        self._inc("kernel.lost_seconds.%s" % backend, record["seconds"])

    def _on_retry(self, record: Dict) -> None:
        self._inc("resilience.retries")
        if record["resumed"]:
            self._inc("resilience.checkpoint_resumes")

    def _on_degrade(self, record: Dict) -> None:
        self._inc("resilience.degrades")
        self._inc(
            "resilience.degrade.%s_to_%s"
            % (record["from_rung"], record["to_rung"])
        )

    def _on_deadline(self, record: Dict) -> None:
        self._inc("resilience.deadline_trips")
        deadline = record["deadline_seconds"]
        if deadline > 0:
            self._observe(
                "deadline.budget_consumed_fraction",
                record["spent_seconds"] / deadline,
            )
        self._violations.add(self._region_key(record))

    def _on_suite_end(self, record: Dict) -> None:
        self._inc("suite.runs")
        self._inc("suite.scheduling_seconds", record["scheduling_seconds"])
        self._inc("suite.base_seconds", record["base_seconds"])

    def _on_batch_end(self, record: Dict) -> None:
        self._inc("batch.launches")
        self._inc("batch.regions", record["num_regions"])
        self._inc("batch.seconds", record["seconds"])
        self._inc("batch.unbatched_seconds", record["unbatched_seconds"])
        self._set("batch.amortization_speedup", record["amortization_speedup"])
        failed = record.get("failed_regions", 0)
        if failed:
            self._inc("batch.failed_regions", failed)

    def _on_verify(self, record: Dict) -> None:
        self._inc("verify.checks", record["checks"])
        self._inc("verify.violations", record["violations"])

    def _on_fleet_end(self, record: Dict) -> None:
        self._inc("fleet.batches")
        self._inc("fleet.regions", record["num_regions"])
        self._inc("fleet.seconds", record["seconds"])
        self._inc("fleet.reassignments", record["reassignments"])
        recovered = record.get("recovered_regions", 0)
        if recovered:
            self._inc("fleet.recovered_regions", recovered)
        self._set("fleet.shards", record["num_shards"])

    def _on_shard_dispatch(self, record: Dict) -> None:
        self._inc("fleet.dispatches")
        self._inc("fleet.worker.%d.dispatches" % record["worker"])

    def _on_worker_fault(self, record: Dict) -> None:
        self._inc("fleet.worker_faults.total")
        self._inc("fleet.worker_faults.%s" % record["fault_class"])
        self._inc("fleet.worker.%d.faults" % record["worker"])
        self._observe("fleet.fault_lost_seconds", record["seconds"])

    def _on_worker_restart(self, record: Dict) -> None:
        self._inc("fleet.restarts")
        self._inc("fleet.backoff_seconds", record["backoff_seconds"])

    def _on_straggler(self, record: Dict) -> None:
        self._inc("fleet.stragglers")
        self._inc("fleet.worker.%d.straggles" % record["worker"])

    # -- derived views ------------------------------------------------------

    @property
    def traces(self) -> int:
        return len(self._traces)

    @property
    def regions(self) -> int:
        return len(self._regions) or int(self.counters.get("regions.total", 0))

    def slo_report(self) -> SLOReport:
        return SLOReport(
            target=self.slo_target,
            regions=self.regions,
            violations=len(self._violations),
        )

    def throughput(self) -> Dict[str, float]:
        """Regions per *simulated* second of scheduling time."""
        seconds = 0.0
        hist = self.histograms.get("region.latency_seconds")
        if hist is not None:
            seconds = hist.sum
        regions = self.counters.get("regions.total", 0.0)
        return {
            "regions": regions,
            "simulated_seconds": seconds,
            "regions_per_simulated_second": regions / seconds if seconds > 0 else 0.0,
        }

    def quantiles(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            out[name] = {label: hist.quantile(q) for label, q in REPORTED_QUANTILES}
        return out

    def modeled_overhead_pct(self) -> float:
        """Aggregation cost over the telemetry bus's own cost, modelled.

        Uses the repository's cost-model convention (no wall clock): each
        metric update costs :data:`MODELED_UPDATE_SECONDS`, each emitted
        event already cost :data:`MODELED_EMIT_SECONDS` on the bus.
        """
        if self.events == 0:
            return 0.0
        return 100.0 * (self.updates * MODELED_UPDATE_SECONDS) / (
            self.events * MODELED_EMIT_SECONDS
        )

    def snapshot(self) -> Dict[str, object]:
        """The full deterministic state dump (plain dicts, sorted keys)."""
        return {
            "snapshot_schema": SNAPSHOT_SCHEMA,
            "slo_target": self.slo_target,
            "events": self.events,
            "updates": self.updates,
            "traces": self.traces,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].snapshot() for k in sorted(self.histograms)
            },
            "quantiles": self.quantiles(),
            "throughput": self.throughput(),
            "slo": self.slo_report().as_dict(),
        }

    def snapshot_json(self) -> str:
        """Byte-stable JSON: sorted keys, fixed separators, one trailing \\n."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"


_HANDLERS = {
    "region_end": MetricsAggregator._on_region_end,
    "pass_end": MetricsAggregator._on_pass_end,
    "kernel_launch": MetricsAggregator._on_kernel_launch,
    "transfer": MetricsAggregator._on_transfer,
    "fault": MetricsAggregator._on_fault,
    "retry": MetricsAggregator._on_retry,
    "degrade": MetricsAggregator._on_degrade,
    "deadline": MetricsAggregator._on_deadline,
    "suite_end": MetricsAggregator._on_suite_end,
    "batch_end": MetricsAggregator._on_batch_end,
    "verify": MetricsAggregator._on_verify,
    "fleet_end": MetricsAggregator._on_fleet_end,
    "shard_dispatch": MetricsAggregator._on_shard_dispatch,
    "worker_fault": MetricsAggregator._on_worker_fault,
    "worker_restart": MetricsAggregator._on_worker_restart,
    "straggler": MetricsAggregator._on_straggler,
}


class AggregatingSink(Sink):
    """A telemetry sink that folds records into an aggregator as they flow.

    Compose it with a :class:`~repro.telemetry.sinks.TeeSink` to aggregate
    live alongside a JSONL trace file — the CLI's ``--watch`` wiring.
    """

    def __init__(self, aggregator: Optional[MetricsAggregator] = None):
        self.aggregator = aggregator if aggregator is not None else MetricsAggregator()

    def write(self, record: Dict) -> None:
        self.aggregator.consume(record)


def aggregate_trace(
    source: TraceSource, slo_target: float = DEFAULT_SLO_TARGET
) -> Tuple[MetricsAggregator, int]:
    """Fold a recorded trace (a JSONL path or a record iterable); returns
    ``(aggregator, skipped_records)``.

    Reading is lenient (truncated or foreign lines are skipped, not
    fatal), matching :class:`repro.obs.report.TraceView`.
    """
    records, skipped = read_trace_lenient(source)
    aggregator = MetricsAggregator(slo_target=slo_target)
    aggregator.consume_many(records)
    return aggregator, skipped
