"""Structured telemetry: typed trace events and pluggable sinks.

The observability layer of the reproduction (see the "Observability"
sections of README.md and DESIGN.md). The paper's speedup story lives in
*mechanisms* — iterations to convergence, wavefront serialization,
launch/copy overheads, ready-list occupancy against the transitive-closure
bound — and this package makes them visible without perturbing them:

* :class:`Telemetry` — the event tracer, injected into each component
  at construction (``telemetry=``; there is no process-wide instance);
* sinks — :class:`NullSink` (inert default), :class:`MemorySink` (tests),
  :class:`JSONLSink` (the ``--trace`` file format, schema-versioned in
  :mod:`repro.telemetry.schema`);
* :mod:`repro.telemetry.report` — human-readable profiles from traces.

There is no second metrics engine: counters, gauges and histograms are
views of the event stream, folded by :class:`repro.obs.MetricsAggregator`
(live through :class:`repro.obs.AggregatingSink`, or offline from a
trace).

Disabled telemetry (the default) is a single attribute check per
instrumentation site and never touches an RNG or a cost model, so seeded
runs are bit-identical with it on or off.
"""

from .core import PassScope, Telemetry
from .schema import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    iter_trace,
    read_trace,
    validate_event,
    validate_trace,
)
from .sinks import JSONLSink, MemorySink, NullSink, Sink, TeeSink

__all__ = [
    "Telemetry",
    "PassScope",
    "Sink",
    "NullSink",
    "MemorySink",
    "JSONLSink",
    "TeeSink",
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "validate_event",
    "validate_trace",
    "read_trace",
    "iter_trace",
]
