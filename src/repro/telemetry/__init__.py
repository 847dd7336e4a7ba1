"""Structured telemetry: the event stream of a run.

The observability layer of the reproduction is split three ways (see
the "Observability" section of DESIGN.md): this package is the *stream*,
:mod:`repro.obs` holds every *view* of it, and :mod:`repro.profile` is
the span profiler. The paper's speedup story lives in *mechanisms* —
iterations to convergence, wavefront serialization, launch/copy
overheads, ready-list occupancy against the transitive-closure bound —
and the stream records them without perturbing them:

* :class:`Telemetry` — the event tracer, injected into each component
  at construction (``telemetry=``; there is no process-wide instance);
* sinks — :class:`NullSink` (inert default), :class:`MemorySink` (tests),
  :class:`JSONLSink` (the ``--trace`` file format), :class:`TeeSink`;
* :mod:`repro.telemetry.schema` — the versioned event schema and the
  trace readers (:func:`read_trace` strict, ``read_trace_lenient``
  best-effort), each taking a JSONL path or a record iterable.

Summaries, metrics, dashboards and exports are views, folded from the
stream by :mod:`repro.obs` (live through
:class:`repro.obs.AggregatingSink`, or offline with
``python -m repro.obs TRACE.jsonl``).

Disabled telemetry (the default) is a single attribute check per
instrumentation site and never touches an RNG or a cost model, so seeded
runs are bit-identical with it on or off.
"""

from .core import PassScope, Telemetry
from .schema import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    read_trace,
    read_trace_lenient,
    validate_event,
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
    "read_trace",
    "read_trace_lenient",
]
