"""``repro.obs``: traces, metric aggregation, exporters and the dashboard.

The production-observability layer on top of :mod:`repro.telemetry`'s
event bus. Four pieces:

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
* :mod:`repro.obs.export` — OpenMetrics/Prometheus text (plus an offline
  format linter), JSON snapshots, the ``--metrics`` text table, and a
  Perfetto/Chrome trace-event export of the simulated timeline.
* :mod:`repro.obs.dashboard` — the terminal dashboard (``--watch`` on
  runs, or ``python -m repro.obs.dashboard TRACE.jsonl``) with the
  deadline-SLO/error-budget panel (:mod:`repro.obs.slo`).

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
from .slo import DEFAULT_SLO_TARGET, SLOReport

# ``export`` and ``dashboard`` load lazily (PEP 562): both are runnable
# modules (``python -m repro.obs.export --lint``), and an eager import
# here would make runpy warn about re-executing an already-imported
# module on every CLI invocation.
_LAZY = {
    "lint_openmetrics": "export",
    "to_openmetrics": "export",
    "to_perfetto": "export",
    "render_metrics": "export",
    "render_resilience": "export",
    "to_snapshot_json": "export",
    "write_perfetto": "export",
    "render_dashboard": "dashboard",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    return getattr(import_module("." + module, __name__), name)


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
    "to_openmetrics",
    "to_snapshot_json",
    "to_perfetto",
    "write_perfetto",
    "render_metrics",
    "render_resilience",
    "lint_openmetrics",
    "render_dashboard",
]
