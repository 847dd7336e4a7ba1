"""``repro.obs``: every view of the event stream.

The observability layer is split three ways: :mod:`repro.telemetry` is
the event *stream*, this package holds every *view* of it, and
:mod:`repro.profile` is the span profiler. The views:

* :mod:`repro.obs.context` — deterministic trace-context propagation
  (``trace_id``/``span_id``/``parent_id`` derived from the region
  fingerprint + seed; no wall clock). The telemetry tracer stamps every
  event and the span profiler keys merges with the ambient context, so
  one region's retries, checkpoint resumes and backend downgrades
  reconstruct as a single causal trace.
* :mod:`repro.obs.aggregate` — the metrics aggregation engine: counters,
  gauges and exponential-bucket histograms in cost-model seconds, with
  byte-stable snapshots (p50/p95/p99 region latency, kernel seconds by
  pass/backend, fault/retry/degrade rates, deadline-budget consumption).
* :mod:`repro.obs.report` — the trace summary, the per-pass kernel
  rollup and kernel cost attribution, read from one
  :class:`TraceView` (one read, one aggregator fold, one rollup).
* :mod:`repro.obs.export` — OpenMetrics/Prometheus text (plus an offline
  format linter), JSON snapshots, the ``--metrics`` text table, and a
  Perfetto/Chrome trace-event export of the simulated timeline.
* :mod:`repro.obs.dashboard` — the terminal dashboard with the
  deadline-SLO/error-budget panel (:mod:`repro.obs.slo`).
* :mod:`repro.obs.record` / :mod:`repro.obs.diff` — canonical run
  bundles and their differ.

A run writes only primary artifacts (``--trace``, ``--record``,
``--profile-stacks``); one offline command derives the rest from a
trace::

    python -m repro.obs TRACE.jsonl [--top N] [--kernels]
        [--dashboard [--follow] [--interval S]] [--slo-target F]
        [--openmetrics PATH] [--snapshot PATH] [--perfetto PATH]
    python -m repro.obs --lint METRICS.txt

Like every observability layer in this repository, ``repro.obs`` only
*observes*: it consumes event dicts, never imports a scheduler, and
seeded results are bit-identical with it on or off.
"""

# NOTE: import order matters — ``context`` is a stdlib-only leaf that
# ``repro.telemetry.core`` and ``repro.profile.spans`` import back; it
# must be fully initialized before ``aggregate`` pulls in telemetry.
from .context import TraceContext, current_trace, region_trace, trace_scope
from .aggregate import (
    AggregatingSink,
    ExpHistogram,
    MetricsAggregator,
    QUANTILE_ERROR_BOUND,
    aggregate_trace,
)
from .dashboard import render_dashboard
from .export import (
    lint_openmetrics,
    render_metrics,
    render_resilience,
    to_openmetrics,
    to_perfetto,
    write_perfetto,
)
from .report import TraceView, summarize_trace
from .slo import DEFAULT_SLO_TARGET, SLOReport

__all__ = [
    "TraceContext",
    "current_trace",
    "trace_scope",
    "region_trace",
    "MetricsAggregator",
    "AggregatingSink",
    "ExpHistogram",
    "QUANTILE_ERROR_BOUND",
    "aggregate_trace",
    "SLOReport",
    "DEFAULT_SLO_TARGET",
    "TraceView",
    "summarize_trace",
    "to_openmetrics",
    "to_perfetto",
    "write_perfetto",
    "render_metrics",
    "render_resilience",
    "lint_openmetrics",
    "render_dashboard",
]
