"""The :class:`Telemetry` object: one structured event tracer.

Injected, never ambient: every instrumented component takes its telemetry
at construction (``telemetry=``) and keeps it; a component built without
one gets its own inert instance. With the default
:class:`~repro.telemetry.sinks.NullSink` the whole layer reduces to one
boolean attribute check per instrumentation site, and — crucially for
reproducibility — it never touches an RNG or a cost model, so enabling
it cannot change schedules, costs or simulated timings. Metrics are
views of the event stream: fold it with
:class:`repro.obs.MetricsAggregator` (live via
:class:`repro.obs.AggregatingSink`). A run bundle rides the same object:
``Telemetry(recorder=...)`` tees the events into a
:class:`repro.obs.record.RunRecorder` and carries it, as
:attr:`Telemetry.recorder`, to the schedule and RNG-draw hooks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs.context import current_trace, current_worker
from .schema import SCHEMA_VERSION, validate_event
from .sinks import NullSink, Sink, TeeSink

if TYPE_CHECKING:
    from ..obs.record import RunRecorder


class Telemetry:
    """A structured event tracer writing schema-v1 records to one sink."""

    def __init__(
        self,
        sink: Optional[Sink] = None,
        recorder: Optional["RunRecorder"] = None,
    ):
        if recorder is not None:
            sink = recorder if sink is None else TeeSink(sink, recorder)
        self.sink = sink or NullSink()
        #: The run bundle's recorder (schedules and RNG draws), or None.
        self.recorder = recorder
        self._seq = 0

    @property
    def active(self) -> bool:
        """True when emitted events reach a live sink (sites may skip work)."""
        return self.sink.enabled

    # -- events -------------------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        """Emit one schema-validated event record (no-op when not tracing).

        When a trace context is installed (see :mod:`repro.obs.context`)
        the record is stamped with ``trace_id``/``span_id``/``parent_id``
        — optional envelope extras under schema v1's forward-compatibility
        rule. Explicitly passed ids win over the ambient context (scopes
        stamp their own child span ids).
        """
        if not self.sink.enabled:
            return
        record = {"v": SCHEMA_VERSION, "seq": self._seq, "event": event}
        record.update(fields)
        context = current_trace()
        if context is not None:
            record.setdefault("trace_id", context.trace_id)
            record.setdefault("span_id", context.span_id)
            if context.parent_id is not None:
                record.setdefault("parent_id", context.parent_id)
        worker = current_worker()
        if worker is not None:
            record.setdefault("worker", worker)
        validate_event(record)
        self._seq += 1
        self.sink.write(record)

    def pass_scope(
        self,
        region: str,
        pass_index: int,
        scheduler: str,
        lower_bound: float,
        initial_cost: float,
        strategy: Optional[str] = None,
    ) -> "PassScope":
        """Open a per-pass scope (emits ``pass_start`` when tracing).

        ``strategy`` labels the pass with its pheromone-update strategy
        ("as"/"mmas") — an optional schema-v1 extra on ``pass_start``.
        """
        return PassScope(
            self, region, pass_index, scheduler, lower_bound, initial_cost,
            strategy=strategy,
        )

    def close(self) -> None:
        self.sink.close()


class PassScope:
    """Recorder for one ACO pass on one region.

    The scope *always* records its iteration events locally — the
    schedulers derive the backward-compatible ``PassResult.trace`` tuple
    from them — and forwards each to the telemetry sink when tracing. A
    ``winner_cost`` of None marks an iteration where every ant died
    (trace derivation maps it back to +infinity).
    """

    def __init__(
        self,
        telemetry: Telemetry,
        region: str,
        pass_index: int,
        scheduler: str,
        lower_bound: float,
        initial_cost: float,
        strategy: Optional[str] = None,
    ):
        self.telemetry = telemetry
        self.region = region
        self.pass_index = pass_index
        self.events: List[Dict] = []
        # One child span per pass: pass_start/iteration/pass_end share a
        # span id under the ambient region span (empty when no context).
        context = current_trace()
        self._trace_fields: Dict[str, str] = (
            context.child("pass%d" % pass_index).fields() if context is not None else {}
        )
        extra: Dict[str, str] = {} if strategy is None else {"strategy": strategy}
        telemetry.emit(
            "pass_start",
            region=region,
            pass_index=pass_index,
            scheduler=scheduler,
            lower_bound=float(lower_bound),
            initial_cost=float(initial_cost),
            **extra,
            **self._trace_fields,
        )

    def iteration(self, winner_cost: float, best_cost: float) -> None:
        """Record one iteration's winner (None/inf when every ant died)."""
        dead = winner_cost is None or not math.isfinite(winner_cost)
        record = {
            "region": self.region,
            "pass_index": self.pass_index,
            "iteration": len(self.events),
            "winner_cost": None if dead else float(winner_cost),
            "best_cost": float(best_cost),
        }
        self.events.append(record)
        self.telemetry.emit("iteration", **record, **self._trace_fields)

    @property
    def trace(self) -> Tuple[float, ...]:
        """The per-iteration winner costs, derived from the recorded events."""
        return tuple(
            float("inf") if e["winner_cost"] is None else e["winner_cost"]
            for e in self.events
        )

    def end(
        self,
        invoked: bool,
        iterations: int,
        final_cost: float,
        hit_lower_bound: bool,
        seconds: float,
        **extra,
    ) -> None:
        """Close the scope: emit ``pass_end``."""
        self.telemetry.emit(
            "pass_end",
            region=self.region,
            pass_index=self.pass_index,
            invoked=bool(invoked),
            iterations=int(iterations),
            final_cost=float(final_cost),
            hit_lower_bound=bool(hit_lower_bound),
            seconds=float(seconds),
            **self._trace_fields,
            **extra,
        )

