"""The simulated shard worker: one device, one fault surface, zero identity
leakage into results.

A :class:`ShardWorker` owns its own :class:`~repro.gpusim.device.GPUDevice`
clone (identical geometry and cost model — a fleet is N copies of the same
card) and runs batch slots through the shared slot runner
(:meth:`repro.parallel.MultiRegionScheduler.run_slot`) under a
:func:`~repro.obs.context.worker_scope`, so every event the slot emits is
stamped with the worker's id while the slot's *result* stays a pure
function of the region inputs. That separation — identity in telemetry,
never in computation — is what lets the supervisor re-dispatch a slot to
any other worker (or the serial host) and get a bit-identical outcome.

Worker-level hazards come from the :class:`~repro.gpusim.faults.FaultPlan`
worker sites, keyed by ``(worker_id, dispatch_index)``:

* ``worker_crash`` — raised as :class:`~repro.errors.WorkerCrash` before
  any slot work happens (the process died);
* ``worker_hang``  — raised as :class:`~repro.errors.WorkerHang` (wedged;
  the supervisor's heartbeat watchdog pays the detection latency);
* ``worker_corrupt`` — the slot *completes* but its returned payload is
  perturbed after the integrity digest was taken, so the supervisor's
  checksum compare and the PR 2 schedule verifier both catch it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

from ..config import ResilienceParams
from ..errors import WorkerCrash, WorkerHang
from ..gpusim.faults import FaultPlan
from ..obs.context import worker_scope
from ..parallel.multi_region import BatchItem, MultiRegionScheduler, SlotOutcome
from ..schedule.schedule import Schedule

__all__ = ["ShardWorker", "ShardReturn", "outcome_digest"]


def outcome_digest(outcome: SlotOutcome) -> str:
    """Integrity checksum of one slot outcome (order-insensitive of caller).

    Covers everything the merge consumes — the schedule's cycle vector,
    the error string, the attempt count and the shipping backend — so any
    in-transit perturbation of the payload flips the digest even when the
    perturbed schedule happens to still be *legal*.
    """
    parts = [
        outcome.error or "",
        str(outcome.attempts),
        outcome.final_backend or "",
    ]
    result = outcome.result
    if result is not None:
        parts.append(",".join(str(c) for c in result.schedule.cycles))
        parts.append(str(result.rp_cost_value))
    payload = "\x1f".join(parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _corrupt(outcome: SlotOutcome) -> SlotOutcome:
    """A deterministically perturbed copy of ``outcome`` (simulated bit rot).

    A result's schedule gets its cycle vector reversed — for any region
    with at least one dependency that is an illegal schedule the verifier
    rejects; the integrity digest catches the degenerate dependency-free
    case. A result-less outcome gets its error string garbled instead.
    """
    result = outcome.result
    if result is not None:
        schedule = result.schedule
        bad = Schedule(schedule.region, tuple(reversed(schedule.cycles)))
        return replace(outcome, result=replace(result, schedule=bad))
    return replace(outcome, error=(outcome.error or "") + " \x00corrupt")


@dataclass
class ShardReturn:
    """What one dispatch hands back to the supervisor.

    ``digest`` was computed by the worker *before* any in-transit
    corruption — the supervisor recomputes it from ``outcome`` and a
    mismatch convicts the payload.
    """

    slot: int
    worker: int
    dispatch: int
    outcome: SlotOutcome
    digest: str


class ShardWorker:
    """One supervised shard worker (simulated process + device).

    Mutable supervisor-side bookkeeping lives here — aliveness, restart
    count, the lifetime dispatch counter the fault sites key on, and the
    straggler demotion flag. None of it is visible to slot computation.
    """

    def __init__(
        self,
        worker_id: int,
        scheduler: MultiRegionScheduler,
        worker_faults: Optional[FaultPlan] = None,
    ):
        self.id = int(worker_id)
        # The worker's own device: identical geometry/cost model, separate
        # object — a fleet is N copies of the same card.
        self.scheduler = MultiRegionScheduler(
            scheduler.machine,
            params=scheduler.params,
            gpu_params=scheduler.gpu_params,
            device=replace(scheduler.device),
            telemetry=scheduler.telemetry,
        )
        self.worker_faults = worker_faults
        self.alive = True
        self.restarts = 0
        self.dispatches = 0
        self.demoted = False
        #: Busy-time head start in the next epoch (a restart's backoff).
        self.head_start = 0.0

    def run_dispatch(
        self,
        slot: int,
        item: BatchItem,
        blocks: int,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceParams] = None,
    ) -> ShardReturn:
        """Run one slot on this worker; raise on a worker-level fault.

        ``fault_plan`` is the *region-level* plan (shared fleet-wide, sites
        keyed by region — worker-independent); ``self.worker_faults`` is
        the worker-level plan keyed by ``(worker, dispatch)``. Crash and
        hang fire before slot work; corruption fires after, perturbing the
        payload but not the digest.
        """
        dispatch = self.dispatches
        self.dispatches += 1
        plan = self.worker_faults
        if plan is not None and plan.worker_crashes(self.id, dispatch):
            raise WorkerCrash(
                "injected worker crash: worker %d dispatch %d" % (self.id, dispatch)
            )
        if plan is not None and plan.worker_hangs(self.id, dispatch):
            raise WorkerHang(
                "injected worker hang: worker %d dispatch %d" % (self.id, dispatch)
            )
        with worker_scope(self.id):
            outcome = self.scheduler.run_slot(
                item, blocks, fault_plan=fault_plan, resilience=resilience
            )
        digest = outcome_digest(outcome)
        if plan is not None and plan.worker_corrupts(self.id, dispatch):
            outcome = _corrupt(outcome)
        return ShardReturn(
            slot=slot, worker=self.id, dispatch=dispatch,
            outcome=outcome, digest=digest,
        )
