"""The fleet supervisor: epochs, heartbeats, recovery, deterministic merge.

:class:`FleetSupervisor` partitions one region batch across N simulated
:class:`~repro.fleet.worker.ShardWorker` processes and supervises them to
completion. All supervision time is **cost-model seconds** — heartbeat
detection latency, restart backoff, epoch makespans — there is no wall
clock anywhere (DET-004 holds here like everywhere else).

The loop is an epoch state machine:

1. Alive workers are ordered (straggler-demoted ones last) and the
   pending slots are round-robined over them in slot order
   (:func:`~repro.fleet.partition.partition_shards`).
2. Each worker drains its queue. Per dispatch the worker-level fault
   sites fire deterministically at ``(worker, dispatch)``:
   a **crash** kills the worker (detection = one missed heartbeat; the
   in-flight slot and the unattempted queue go back to pending), a
   **hang** wedges it (the heartbeat watchdog pays the same detection
   latency, then the worker is killed), a **corrupt** return completes
   but fails the supervisor's integrity digest / PR 2 verifier check and
   the slot is re-dispatched while the worker survives.
3. The epoch's fleet time is the *maximum* worker busy time (workers run
   concurrently); a worker whose busy time exceeds
   :data:`STRAGGLER_FACTOR` x median is flagged and demoted.
4. Dead workers restart after :data:`BACKOFF_SECONDS` while they have
   restarts left (:data:`MAX_WORKER_RESTARTS`). A slot that exhausts
   :data:`MAX_SLOT_REDISPATCHES` — or a fleet with no revivable worker —
   falls back to **serial host execution** of the very same slot runner.

The supervision timings are fixed constants of this module; the only
fleet setting is :attr:`repro.config.FleetParams.num_shards`, and worker
faults come from the ``worker_faults`` plan
(:meth:`repro.gpusim.faults.FaultPlan.worker_plan`).

Correctness rests on one invariant, enforced upstream: a slot's outcome
is a pure function of ``(ddg, seed, blocks, params, fault_plan,
resilience)`` and the block partition is computed once over the whole
batch. Re-dispatch therefore *re-runs*, never *re-computes differently*;
the merge (:func:`~repro.fleet.partition.merge_shard_results`) reassembles
slots in stable index order; and the final
:class:`~repro.parallel.multi_region.BatchResult` is assembled by the same
reduce the single-device path uses — so for any shard count and any
eventually-recovering fault plan the fleet result is bit-identical to the
single-device run. Fleet-specific timing lives on :class:`FleetResult`,
outside the differential surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.verifier import verify_schedule
from ..config import FleetParams, ResilienceParams
from ..errors import GPUSimError, WorkerCrash, WorkerHang
from ..gpusim.faults import WORKER_FAULT_CLASSES, FaultPlan
from ..parallel.multi_region import (
    BatchItem,
    BatchResult,
    MultiRegionScheduler,
    SlotOutcome,
)
from ..profile import get_profiler
from ..timing import HostSecondsLedger
from .partition import merge_shard_results, partition_shards
from .worker import ShardReturn, ShardWorker, outcome_digest

__all__ = ["FleetSupervisor", "FleetResult"]

#: Worker id recorded for slots rescued by the serial host fallback.
HOST_WORKER = -1

#: Supervisor heartbeat interval in cost-model seconds: the detection
#: latency charged when a worker crashes or hangs mid-dispatch.
HEARTBEAT_SECONDS = 2e-3
#: A worker whose epoch busy time exceeds this multiple of the fleet
#: median is flagged a straggler (telemetry + dispatch demotion).
STRAGGLER_FACTOR = 2.0
#: Restarts granted to a dead worker before it stays dead.
MAX_WORKER_RESTARTS = 1
#: Cost-model seconds a restarted worker spends coming back.
BACKOFF_SECONDS = 1e-3
#: Re-dispatches granted per region across the whole fleet before the
#: region falls back to serial host execution.
MAX_SLOT_REDISPATCHES = 4


def _median(values: Sequence[float]) -> float:
    """Deterministic median (mean of middle pair on even counts)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class FleetResult:
    """One supervised fleet run: the merged batch plus the recovery story.

    ``batch`` is bit-identical to what the single-device path produces
    for the same inputs — everything fleet-specific (makespan, recovery
    accounting) lives in the other fields, outside the differential
    surface.
    """

    batch: BatchResult
    num_shards: int
    #: Supervised makespan in cost-model seconds: epoch maxima plus
    #: detection/backoff penalties plus the serial host fallback.
    fleet_seconds: float
    #: Serial host-fallback seconds (subset of ``fleet_seconds``).
    serial_seconds: float
    epochs: int
    dispatches: int
    reassignments: int
    #: Regions that needed recovery (re-dispatch or host fallback).
    recovered_regions: int
    host_fallback_regions: int
    worker_faults: Dict[str, int] = field(default_factory=dict)
    stragglers: int = 0
    restarts: int = 0

    @property
    def scaling_efficiency(self) -> float:
        """Fault-free ideal: unbatched work divided by shards x makespan."""
        denominator = self.num_shards * self.fleet_seconds
        if denominator <= 0.0:
            return 1.0
        return self.batch.unbatched_seconds / denominator


class FleetSupervisor:
    """Supervises N shard workers over one batch (see module docstring)."""

    def __init__(
        self,
        scheduler: MultiRegionScheduler,
        params: Optional[FleetParams] = None,
        worker_faults: Optional[FaultPlan] = None,
    ):
        self.scheduler = scheduler
        self.params = params or FleetParams()
        self.params.validate()
        self.worker_faults = worker_faults

    # -- result acceptance ---------------------------------------------------

    def _returned_corrupt(self, ret: ShardReturn, item: BatchItem) -> bool:
        """Integrity + semantic screening of one shard return.

        The digest compare catches any in-transit perturbation; the PR 2
        verifier independently re-certifies the schedule against the
        region's DDG, so a corrupt payload can never merge silently.
        """
        if ret.digest != outcome_digest(ret.outcome):
            return True
        result = ret.outcome.result
        if result is None:
            return False
        report = verify_schedule(result.schedule, item.ddg, self.scheduler.machine)
        return not report.ok

    # -- the supervised run --------------------------------------------------

    def schedule_batch(
        self,
        items: Sequence[BatchItem],
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceParams] = None,
    ) -> FleetResult:
        """Run ``items`` across the fleet; always returns a complete merge."""
        if not items:
            raise GPUSimError("empty batch")
        params = self.params
        # The block partition is computed ONCE over the whole batch — the
        # single most load-bearing line for bit-identity (see module doc).
        blocks = self.scheduler._partition_blocks(items)
        tele = self.scheduler.telemetry
        tele.emit(
            "fleet_start", num_shards=params.num_shards, num_regions=len(items)
        )
        tele.emit(
            "batch_start", num_regions=len(items), blocks_per_region=list(blocks)
        )

        workers = [
            ShardWorker(i, self.scheduler, self.worker_faults)
            for i in range(params.num_shards)
        ]
        recorder = tele.recorder
        resolved: List[Tuple[int, SlotOutcome]] = []
        redispatches = [0] * len(items)
        pending = list(range(len(items)))
        host_slots: List[int] = []
        fleet_seconds = 0.0
        epoch = 0
        dispatches = 0
        reassignments = 0
        stragglers = 0
        restarts = 0
        fault_counts = {name: 0 for name in WORKER_FAULT_CLASSES}

        def reassign(slot: int, from_worker: int) -> None:
            nonlocal reassignments
            reassignments += 1
            tele.emit(
                "reassign",
                region=items[slot].ddg.region.name,
                from_worker=from_worker,
                epoch=epoch,
            )

        prof = get_profiler()
        with prof.span("fleet", "batch"):
            while pending:
                alive = [w for w in workers if w.alive]
                if not alive:
                    # Fleet exhausted: everything left goes to the host.
                    for slot in pending:
                        reassign(slot, HOST_WORKER)
                    host_slots.extend(pending)
                    pending = []
                    break
                epoch += 1
                order = sorted(alive, key=lambda w: (w.demoted, w.id))
                queues = partition_shards(pending, len(order))
                pending = []
                busys: List[float] = []
                for worker, queue in zip(order, queues):
                    busy = worker.head_start
                    worker.head_start = 0.0
                    for position, slot in enumerate(queue):
                        item = items[slot]
                        dispatches += 1
                        tele.emit(
                            "shard_dispatch",
                            worker=worker.id,
                            region=item.ddg.region.name,
                            dispatch=worker.dispatches,
                            blocks=blocks[slot],
                        )
                        try:
                            ret = worker.run_dispatch(
                                slot,
                                item,
                                blocks[slot],
                                fault_plan=fault_plan,
                                resilience=resilience,
                            )
                        except (WorkerCrash, WorkerHang) as exc:
                            # Detection latency: one missed heartbeat — the
                            # crash is silent, the hang stops answering.
                            busy += HEARTBEAT_SECONDS
                            fault_counts[exc.fault_class] += 1
                            tele.emit(
                                "worker_fault",
                                worker=worker.id,
                                fault_class=exc.fault_class,
                                dispatch=worker.dispatches - 1,
                                seconds=HEARTBEAT_SECONDS,
                            )
                            worker.alive = False
                            # The in-flight slot burned a dispatch; the
                            # unattempted rest of the queue did not.
                            redispatches[slot] += 1
                            for lost in [slot] + list(queue[position + 1:]):
                                reassign(lost, worker.id)
                                pending.append(lost)
                            break
                        busy += ret.outcome.seconds
                        if self._returned_corrupt(ret, item):
                            fault_counts["worker_corrupt"] += 1
                            tele.emit(
                                "worker_fault",
                                worker=worker.id,
                                fault_class="worker_corrupt",
                                dispatch=ret.dispatch,
                                seconds=ret.outcome.seconds,
                            )
                            redispatches[slot] += 1
                            reassign(slot, worker.id)
                            pending.append(slot)
                            continue
                        resolved.append((slot, ret.outcome))
                        if recorder is not None:
                            recorder.record_schedule(
                                "shard",
                                region=item.ddg.region.name,
                                seed=item.seed,
                                slot=slot,
                                worker=worker.id,
                                dispatch=ret.dispatch,
                                blocks=blocks[slot],
                                error=ret.outcome.error,
                            )
                    busys.append(busy)
                fleet_seconds += max(busys) if busys else 0.0
                # Straggler screening: epoch busy time far above the fleet
                # median flags the worker and demotes it in dispatch order
                # (identity-only — demotion never changes results).
                median = _median(busys)
                if median > 0.0 and len(busys) > 1:
                    for worker, busy in zip(order, busys):
                        if busy > STRAGGLER_FACTOR * median:
                            stragglers += 1
                            worker.demoted = True
                            tele.emit(
                                "straggler",
                                worker=worker.id,
                                epoch=epoch,
                                busy_seconds=busy,
                                median_seconds=median,
                            )
                # Bounded restarts: a dead worker comes back next epoch
                # after its backoff, until its restart budget runs dry.
                for worker in workers:
                    if not worker.alive and worker.restarts < MAX_WORKER_RESTARTS:
                        worker.restarts += 1
                        worker.alive = True
                        worker.head_start = BACKOFF_SECONDS
                        restarts += 1
                        tele.emit(
                            "worker_restart",
                            worker=worker.id,
                            restarts=worker.restarts,
                            backoff_seconds=BACKOFF_SECONDS,
                        )
                # Slots out of re-dispatch budget fall back to the host.
                still_pending: List[int] = []
                for slot in sorted(pending):
                    if redispatches[slot] >= MAX_SLOT_REDISPATCHES:
                        host_slots.append(slot)
                    else:
                        still_pending.append(slot)
                pending = still_pending

        # Serial host fallback: the same pure slot runner, no workers —
        # the last rung under the per-region resilience ladder.
        host = HostSecondsLedger()
        for slot in sorted(host_slots):
            item = items[slot]
            outcome = self.scheduler.run_slot(
                item, blocks[slot], fault_plan=fault_plan, resilience=resilience
            )
            host.charge(outcome.seconds)
            resolved.append((slot, outcome))
            if recorder is not None:
                recorder.record_schedule(
                    "shard",
                    region=item.ddg.region.name,
                    seed=item.seed,
                    slot=slot,
                    worker=HOST_WORKER,
                    dispatch=0,
                    blocks=blocks[slot],
                    error=outcome.error,
                )
        fleet_seconds += host.total

        outcomes = merge_shard_results(len(items), resolved)
        batch = self.scheduler.assemble_batch(items, blocks, outcomes)

        host_set = [False] * len(items)
        for slot in host_slots:
            host_set[slot] = True
        recovered = sum(
            1
            for slot in range(len(items))
            if redispatches[slot] > 0 or host_set[slot]
        )
        tele.emit(
            "fleet_end",
            num_shards=params.num_shards,
            num_regions=len(items),
            seconds=fleet_seconds,
            recovered_regions=recovered,
            reassignments=reassignments,
        )
        return FleetResult(
            batch=batch,
            num_shards=params.num_shards,
            fleet_seconds=fleet_seconds,
            serial_seconds=host.total,
            epochs=epoch,
            dispatches=dispatches,
            reassignments=reassignments,
            recovered_regions=recovered,
            host_fallback_regions=len(host_slots),
            worker_faults=dict(
                (name, fault_counts[name]) for name in WORKER_FAULT_CLASSES
            ),
            stragglers=stragglers,
            restarts=restarts,
        )
