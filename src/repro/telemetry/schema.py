"""The versioned trace-event schema.

Every record emitted by :class:`repro.telemetry.Telemetry` is a flat JSON
object with three envelope fields —

* ``v``     — the schema version (:data:`SCHEMA_VERSION`),
* ``seq``   — a monotonically increasing per-telemetry sequence number
  (the reproduction is deterministic, so traces carry no wall-clock
  timestamps; ``seq`` is the causal order),
* ``event`` — the record type, one of :data:`EVENT_TYPES` —

plus the type's required fields listed below. Producers may add extra
fields; consumers must ignore fields they do not know (the usual
forward-compatibility rule). ``winner_cost: null`` in an ``iteration``
record means the iteration produced no feasible schedule (every ant died);
readers should treat it as +infinity.

Under that rule, records emitted while a :mod:`repro.obs.context` trace
context is installed carry three *optional* envelope extras —
``trace_id``, ``span_id`` and ``parent_id`` (see
:data:`TRACE_CONTEXT_FIELDS`) — correlating every event of one region's
journey (passes, launches, faults, retries, checkpoint resumes,
downgrades) under one deterministic trace id. They are additive in schema
v1: no version bump, and traces recorded without a context stay valid.

Event types (schema v1):

========================  ====================================================
``suite_start/_end``      one compilation of the whole suite
``region_start/_end``     one region through the pipeline (decision, quality)
``pass_start/_end``       one ACO pass on one region (bounds, convergence)
``iteration``             one ACO iteration (the winner's cost)
``kernel_launch``         one simulated GPU launch (time + divergence split)
``transfer``              one host<->device copy set (bytes, calls)
``batch_start/_end``      one multi-region batched launch
``verify``                one independent verification pass (checks, violations)
``reinit``                one MMAS pheromone reinitialization (stagnation restart)
``fault``                 one injected fault detected (class, attempt, cost)
``retry``                 one retry attempt starting (seed, resumed or fresh)
``degrade``               one degradation-ladder step (from rung -> to rung)
``deadline``              one soft-deadline stop (budget spent, partial result)
``fleet_start/_end``      one sharded batch under the fleet supervisor
``shard_dispatch``        one region handed to one shard worker
``worker_fault``          one worker-level fault (crash/hang/corrupt result)
``worker_restart``        one dead worker brought back after backoff
``reassign``              one region re-dispatched after a worker fault
``straggler``             one worker flagged slow relative to the fleet
========================  ====================================================

Records emitted while a :func:`repro.obs.context.worker_scope` is
installed additionally carry a ``worker`` field (the shard worker id), so
a fleet run's kernel launches, iterations and faults attribute to the
worker that produced them — same forward-compatibility rule as the trace
context extras.

The resilience events (``fault``/``retry``/``degrade``/``deadline``) are
additive in schema v1: old consumers never see them unless the resilience
layer is active, and the forward-compatibility rule covers new readers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Tuple, Union

from ..errors import TelemetryError

#: A trace: a JSONL file path, or the records themselves.
TraceSource = Union[str, Iterable[Dict]]

#: Version stamped into every record; bump on incompatible field changes.
SCHEMA_VERSION = 1

#: Envelope fields present on every record.
ENVELOPE_FIELDS: Tuple[str, ...] = ("v", "seq", "event")

#: Optional envelope extras stamped when a trace context is installed
#: (``parent_id`` is omitted on a trace's root span).
TRACE_CONTEXT_FIELDS: Tuple[str, ...] = ("trace_id", "span_id", "parent_id")

#: event type -> required (non-envelope) field names.
EVENT_TYPES: Dict[str, Tuple[str, ...]] = {
    "suite_start": ("scheduler", "num_kernels"),
    "suite_end": ("scheduler", "num_kernels", "scheduling_seconds", "base_seconds"),
    "region_start": ("region", "size", "scheduler"),
    "region_end": (
        "region",
        "size",
        "decision",
        "aco_invoked",
        "heuristic_length",
        "final_length",
        "heuristic_occupancy",
        "final_occupancy",
        "scheduling_seconds",
    ),
    "pass_start": ("region", "pass_index", "scheduler", "lower_bound", "initial_cost"),
    "iteration": ("region", "pass_index", "iteration", "winner_cost", "best_cost"),
    "pass_end": (
        "region",
        "pass_index",
        "invoked",
        "iterations",
        "final_cost",
        "hit_lower_bound",
        "seconds",
    ),
    "kernel_launch": (
        "region",
        "pass_index",
        "wavefronts",
        "ants",
        "iterations",
        "kernel_seconds",
        "transfer_seconds",
        "launch_seconds",
        "compute_cycles",
        "memory_cycles",
        "alloc_cycles",
        "uniform_cycles",
        "serialized_selection_waves",
        "serialized_stall_waves",
        "dead_ants",
        "ready_peak",
        "ready_capacity",
    ),
    "transfer": ("region", "pass_index", "bytes", "calls", "seconds"),
    "batch_start": ("num_regions", "blocks_per_region"),
    "batch_end": ("num_regions", "seconds", "unbatched_seconds", "amortization_speedup"),
    "verify": ("region", "checks", "violations"),
    "reinit": ("region", "pass_index", "iteration", "tau_max"),
    "fault": ("region", "fault_class", "attempt", "seconds"),
    "retry": ("region", "attempt", "seed", "resumed"),
    "degrade": ("region", "from_rung", "to_rung", "attempt"),
    "deadline": ("region", "pass_index", "deadline_seconds", "spent_seconds"),
    "fleet_start": ("num_shards", "num_regions"),
    "fleet_end": (
        "num_shards",
        "num_regions",
        "seconds",
        "recovered_regions",
        "reassignments",
    ),
    "shard_dispatch": ("worker", "region", "dispatch", "blocks"),
    "worker_fault": ("worker", "fault_class", "dispatch", "seconds"),
    "worker_restart": ("worker", "restarts", "backoff_seconds"),
    "reassign": ("region", "from_worker", "epoch"),
    "straggler": ("worker", "epoch", "busy_seconds", "median_seconds"),
}


def validate_event(record: Dict) -> None:
    """Raise :class:`TelemetryError` unless ``record`` is schema-valid."""
    if not isinstance(record, dict):
        raise TelemetryError("trace record must be an object, got %r" % type(record))
    for field in ENVELOPE_FIELDS:
        if field not in record:
            raise TelemetryError("trace record missing envelope field %r" % field)
    if record["v"] != SCHEMA_VERSION:
        raise TelemetryError(
            "unsupported schema version %r (supported: %d)"
            % (record["v"], SCHEMA_VERSION)
        )
    event = record["event"]
    required = EVENT_TYPES.get(event)
    if required is None:
        raise TelemetryError("unknown event type %r" % event)
    missing = [f for f in required if f not in record]
    if missing:
        raise TelemetryError(
            "event %r missing required field(s): %s" % (event, ", ".join(missing))
        )


def _lines(source: TraceSource) -> Iterator[Tuple[str, Any]]:
    """``(location, record)`` pairs of a trace path or record iterable.

    A file's lines are parsed as JSON; an unparsable line yields the
    :class:`ValueError` in place of its record.
    """
    if not isinstance(source, str):
        for index, record in enumerate(source):
            yield "record %d" % index, record
        return
    with open(source) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record: Any = json.loads(line)
            except ValueError as exc:
                record = exc
            yield "%s:%d" % (source, lineno), record


def read_trace(source: TraceSource) -> List[Dict]:
    """All records of a JSONL trace file (or a record iterable), validated.

    Raises :class:`TelemetryError` on the first unparsable line or
    schema-invalid record, naming its location.
    """
    records: List[Dict] = []
    for where, record in _lines(source):
        if isinstance(record, ValueError):
            raise TelemetryError("%s: not valid JSON: %s" % (where, record)) from record
        try:
            validate_event(record)
        except TelemetryError as exc:
            raise TelemetryError("%s: %s" % (where, exc)) from exc
        records.append(record)
    return records


def read_trace_lenient(source: TraceSource) -> Tuple[List[Dict], int]:
    """Best-effort trace reading: ``(valid records, skipped count)``.

    ``source`` is a JSONL path or a record iterable. Unparsable or
    schema-invalid records are counted and skipped instead of raising, so
    a truncated trace (a run killed mid-write) still yields the records
    that made it to disk. Use :func:`read_trace` when corruption should
    be an error.
    """
    records: List[Dict] = []
    skipped = 0
    for _where, record in _lines(source):
        try:
            validate_event(record)
        except TelemetryError:
            skipped += 1
            continue
        records.append(record)
    return records, skipped
