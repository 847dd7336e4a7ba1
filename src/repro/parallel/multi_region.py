"""Multi-region batch scheduling — the paper's stated future work.

Section VII: *"we will work on maximizing the utilization of the GPU by
scheduling multiple regions in parallel."* With one region per launch, a
small region leaves most of the device idle and still pays the full kernel
launch and transfer overheads; those fixed costs are exactly what limits
the speedup on the [1-49] size class (Table 3).

:class:`MultiRegionScheduler` batches several regions into one cooperative
launch:

* the launch overhead is paid **once** per batch;
* every region's device image travels in **one** batched transfer;
* the batch's wavefronts are partitioned across regions (at least one
  block each, more for bigger regions), and regions run concurrently on
  the device — the batch's kernel time is the *maximum* of its regions'
  kernel times per capacity wave, not their sum.

The trade-off is ants-per-region: a region in a batch of eight gets an
eighth of the colony, which can cost schedule quality on hard regions.
``python -m repro.bench --bench extensions`` gates the amortization side.

Sharded execution (``repro.fleet``) rides on two invariants this module
maintains:

* the block partition is a pure function of the batch — computed **once**
  over all items via :func:`partition_blocks`, never per shard — so a
  region's block count (and hence its schedule) is independent of how the
  batch is split across workers;
* each slot runs through one shared runner (:meth:`MultiRegionScheduler
  .run_slot`) whose outcome depends only on ``(ddg, seed, blocks, params,
  fault_plan, resilience)`` — never on which worker ran it or when.

Together they make the fleet's merged result bit-identical to the
single-device run for any shard count. ``schedule_batch`` delegates to the
fleet supervisor when its ``fleet`` argument asks for more than one shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import ACOParams, FleetParams, GPUParams, ResilienceParams, replace_params
from ..ddg.graph import DDG
from ..errors import GPUSimError, InjectedFault, RegionUnrecoverable
from ..gpusim.device import GPUDevice
from ..gpusim.faults import FaultPlan
from ..machine.model import MachineModel
from ..obs.context import region_trace
from ..profile import get_profiler
from ..schedule.schedule import Schedule
from ..telemetry import Telemetry
from ..timing import HostSecondsLedger
from ..aco.driver import ACOResult
from .scheduler import ParallelACOScheduler


def partition_blocks(sizes: Sequence[int], total_blocks: int) -> List[int]:
    """Proportional-to-size split of a launch's blocks, >= 1 each.

    Pure function of ``(sizes, total_blocks)`` — the fleet layer relies on
    that: the partition is computed once over the whole batch, so every
    shard sees the same per-region block counts the single-device run
    would use. Remainder blocks go to the largest regions first; the
    trim loop shrinks the smallest multi-block regions when the floor of
    one-block-each overshoots.
    """
    if not sizes:
        raise GPUSimError("empty batch")
    if len(sizes) > total_blocks:
        raise GPUSimError(
            "batch of %d regions needs at least %d blocks (have %d)"
            % (len(sizes), len(sizes), total_blocks)
        )
    total_size = sum(sizes)
    blocks = [max(1, (total_blocks * size) // total_size) for size in sizes]
    # Distribute the remainder to the largest regions first.
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    index = 0
    while sum(blocks) < total_blocks:
        blocks[order[index % len(order)]] += 1
        index += 1
    while sum(blocks) > total_blocks:
        candidates = [i for i in order if blocks[i] > 1]
        if not candidates:
            break
        blocks[candidates[-1]] -= 1
    return blocks


@dataclass
class BatchItem:
    """One region's scheduling request within a batch."""

    ddg: DDG
    seed: int = 0
    initial_order: Optional[Tuple[int, ...]] = None
    reference_schedule: Optional[Schedule] = None


@dataclass
class SlotOutcome:
    """One batch slot's full outcome (the shared slot-runner's return).

    ``attempts`` counts engine attempts (1 on the fault-free fast path;
    the ladder's total across rungs when resilience is active).
    ``final_backend`` names the engine that shipped the region —
    ``vectorized``/``loop``/``sequential``/``heuristic`` — or None when
    the slot failed outright. ``seconds`` is the slot's charged simulated
    time (retry overhead included under resilience).
    """

    result: Optional[ACOResult]
    error: Optional[str]
    attempts: int
    final_backend: Optional[str]
    seconds: float


@dataclass
class BatchResult:
    """Outcome of one batched launch.

    A failed region does not take the batch down: its slot in ``results``
    is None and ``errors`` carries the per-region failure description
    (aligned index-for-index with the batch items). Fault-free batches
    keep the historical shape — every slot a result, ``errors`` all None.
    A slot rescued by the resilience ladder's CPU rung (``final_backends``
    entry ``"sequential"``) holds a result with no device time; its
    seconds count as host-side work serial with the batch.

    ``attempts``/``final_backends`` extend the per-region error records:
    aligned index-for-index with ``results``, they say how many engine
    attempts each slot took and which engine finally shipped it (None for
    a slot that failed outright). Both default empty for compatibility
    with callers constructing historical-shape results.
    """

    results: Tuple[Optional[ACOResult], ...]
    #: Wavefronts assigned to each region.
    blocks_per_region: Tuple[int, ...]
    #: Modelled GPU seconds for the whole batch (shared launch + transfer +
    #: concurrent kernels).
    seconds: float
    #: What the same regions would cost as individual launches (the paper's
    #: current design) — the amortization baseline.
    unbatched_seconds: float
    #: Per-region error description, or None where the region scheduled.
    errors: Tuple[Optional[str], ...] = ()
    #: Per-region engine attempts (1 = first try; empty when untracked).
    attempts: Tuple[int, ...] = ()
    #: Per-region shipping engine, or None for a failed slot.
    final_backends: Tuple[Optional[str], ...] = ()

    @property
    def amortization_speedup(self) -> float:
        return self.unbatched_seconds / self.seconds if self.seconds > 0 else 1.0

    @property
    def failed_regions(self) -> int:
        return sum(1 for r in self.results if r is None)

    @property
    def scheduled(self) -> Tuple[ACOResult, ...]:
        """The successful results only (order preserved)."""
        return tuple(r for r in self.results if r is not None)

    @property
    def retried_regions(self) -> int:
        """Regions that needed more than one engine attempt."""
        return sum(1 for a in self.attempts if a > 1)


class MultiRegionScheduler:
    """Schedules batches of regions in single launches."""

    name = "parallel-aco-multi-region"

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams] = None,
        gpu_params: Optional[GPUParams] = None,
        device: Optional[GPUDevice] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.machine = machine
        self.params = params or ACOParams()
        self.device = device or GPUDevice()
        self.gpu_params = gpu_params or GPUParams()
        self.gpu_params.validate()
        self.telemetry = telemetry or Telemetry()

    def _partition_blocks(self, items: Sequence[BatchItem]) -> List[int]:
        """Proportional-to-size split of the launch's blocks, >= 1 each."""
        return partition_blocks(
            [item.ddg.num_instructions for item in items], self.gpu_params.blocks
        )

    def _region_scheduler(self, blocks: int) -> ParallelACOScheduler:
        gpu = replace_params(self.gpu_params, blocks=blocks)
        return ParallelACOScheduler(
            self.machine,
            params=self.params,
            gpu_params=gpu,
            device=self.device,
            telemetry=self.telemetry,
        )

    def run_slot(
        self,
        item: BatchItem,
        blocks: int,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceParams] = None,
    ) -> SlotOutcome:
        """Schedule one batch slot (the shared slot runner).

        With ``resilience`` active the slot runs the full retry ladder
        (its own blocks partition, shared fault plan); with only a
        ``fault_plan`` a single attempt is made and an injected fault
        becomes the slot's error instead of aborting the batch.

        Each slot gets its own trace context (unless the caller already
        installed one): a batch of N regions is N traces, and each slot's
        faults/retries/downgrades correlate under that slot's trace id.

        The outcome is a pure function of ``(ddg, seed, blocks, params,
        fault_plan, resilience)`` — region-level fault sites are keyed by
        (region, pass, attempt), never by caller identity — which is the
        contract the fleet layer's re-dispatch correctness rests on: any
        worker (or the serial host fallback) re-running a slot reproduces
        it bit-identically.
        """
        with region_trace(item.ddg.region.name, item.ddg.num_instructions, item.seed):
            return self._run_slot_traced(item, blocks, fault_plan, resilience)

    def _run_slot_traced(
        self,
        item: BatchItem,
        blocks: int,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceParams] = None,
    ) -> SlotOutcome:
        scheduler = self._region_scheduler(blocks)
        region_name = item.ddg.region.name
        if resilience is not None and resilience.active:
            from ..resilience.ladder import schedule_with_resilience

            try:
                outcome = schedule_with_resilience(
                    scheduler,
                    item.ddg,
                    item.seed,
                    resilience,
                    initial_order=item.initial_order,
                    reference_schedule=item.reference_schedule,
                    telemetry=self.telemetry,
                    fault_plan=fault_plan,
                )
            except RegionUnrecoverable as exc:
                return SlotOutcome(
                    result=None,
                    error="unrecoverable: %s" % exc,
                    attempts=max(1, len(exc.causes)),
                    final_backend=None,
                    seconds=exc.spent_seconds,
                )
            if outcome.result is None:
                return SlotOutcome(
                    result=None,
                    error="degraded: ladder shipped no ACO schedule",
                    attempts=max(1, outcome.attempts),
                    final_backend=outcome.final_backend,
                    seconds=outcome.spent_seconds,
                )
            return SlotOutcome(
                result=outcome.result,
                error=None,
                attempts=outcome.attempts,
                final_backend=outcome.final_backend,
                seconds=outcome.spent_seconds,
            )
        try:
            result = scheduler.schedule(
                item.ddg,
                seed=item.seed,
                initial_order=item.initial_order,
                reference_schedule=item.reference_schedule,
                fault_plan=fault_plan,
            )
            return SlotOutcome(
                result=result,
                error=None,
                attempts=1,
                final_backend=scheduler.backend,
                seconds=result.seconds,
            )
        except InjectedFault as exc:
            self.telemetry.emit(
                "fault",
                region=region_name,
                fault_class=exc.fault_class,
                attempt=0,
                seconds=exc.seconds,
                backend=scheduler.backend,
            )
            return SlotOutcome(
                result=None,
                error="%s: %s" % (exc.fault_class, exc),
                attempts=1,
                final_backend=None,
                seconds=exc.seconds,
            )

    @staticmethod
    def _kernel_and_transfer(result: ACOResult) -> Tuple[float, float, int]:
        """(kernel seconds, transfer bytes-time, invoked passes) of a result."""
        kernel = 0.0
        transfer = 0.0
        passes = 0
        for p in (result.pass1, result.pass2):
            if p.invoked:
                kernel += p.kernel_seconds
                transfer += p.transfer_seconds
                passes += 1
        return kernel, transfer, passes

    def schedule_batch(
        self,
        items: Sequence[BatchItem],
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceParams] = None,
        fleet: Optional[FleetParams] = None,
    ) -> BatchResult:
        """Schedule all ``items`` as one batched launch (per invoked pass).

        A region that faults (chaos mode) no longer aborts the batch: the
        other regions still schedule, the failed slot reports its error,
        and the batch's time accounting covers the work that ran. Pass
        ``resilience`` to give each slot the full retry ladder instead of
        a single attempt.

        Pass a ``fleet`` with ``num_shards`` > 1 to shard the batch
        across supervised workers — the merged result is bit-identical to
        this single-device path; only the fleet's own wall-model timing
        differs, reported separately on the supervisor's FleetResult.
        """
        if not items:
            raise GPUSimError("empty batch")
        fleet_params = fleet or FleetParams()
        if fleet_params.num_shards > 1:
            from ..fleet.supervisor import FleetSupervisor

            supervised = FleetSupervisor(self, fleet_params).schedule_batch(
                items, fault_plan=fault_plan, resilience=resilience
            )
            return supervised.batch
        blocks = self._partition_blocks(items)
        tele = self.telemetry
        tele.emit(
            "batch_start",
            num_regions=len(items),
            blocks_per_region=list(blocks),
        )
        prof = get_profiler()
        outcomes: List[SlotOutcome] = []
        with prof.span("batch", "batch"):
            for item, b in zip(items, blocks):
                outcomes.append(
                    self.run_slot(item, b, fault_plan=fault_plan, resilience=resilience)
                )
        return self.assemble_batch(items, blocks, outcomes)

    def assemble_batch(
        self,
        items: Sequence[BatchItem],
        blocks: Sequence[int],
        outcomes: Sequence[SlotOutcome],
    ) -> BatchResult:
        """Reduce per-slot outcomes (in slot order) into one BatchResult.

        Shared by the local path and the fleet supervisor's merge — the
        batch's derived timing is a pure function of the slot outcomes and
        the block partition, so a fleet run reduces to the *same* numbers
        as the single-device run. Also records the per-slot ``batch``
        schedule entries and publishes the ``batch_end`` telemetry.
        """
        results = [outcome.result for outcome in outcomes]
        errors = [outcome.error for outcome in outcomes]
        recorder = self.telemetry.recorder
        if recorder is not None:
            for item, b, outcome in zip(items, blocks, outcomes):
                recorder.record_schedule(
                    "batch",
                    region=item.ddg.region.name,
                    seed=item.seed,
                    blocks=b,
                    error=outcome.error,
                )

        cost = self.device.cost
        launch = cost.launch_overhead
        # Batched transfer: one call for all images; byte time adds up. The
        # per-region transfer model already used one call + bytes, so strip
        # the per-call component down to a single shared call.
        total_kernel = 0.0
        max_kernel = 0.0
        total_transfer = 0.0
        unbatched = 0.0
        host = HostSecondsLedger()
        any_invoked = 0
        for result, outcome in zip(results, outcomes):
            if result is None:
                continue
            if outcome.final_backend == "sequential":
                # A CPU rescue (resilience ladder's sequential rung): no
                # device work to batch; its time is serial host time.
                host.charge(result.seconds)
                unbatched += result.seconds
                continue
            kernel, transfer, passes = self._kernel_and_transfer(result)
            total_kernel += kernel
            max_kernel = max(max_kernel, kernel)
            total_transfer += max(0.0, transfer - 2 * cost.per_copy_call * passes)
            unbatched += result.seconds
            any_invoked += passes

        tele = self.telemetry
        attempts = tuple(outcome.attempts for outcome in outcomes)
        backends = tuple(outcome.final_backend for outcome in outcomes)
        if any_invoked == 0:
            batch = BatchResult(
                results=tuple(results),
                blocks_per_region=tuple(blocks),
                seconds=host.total,
                unbatched_seconds=unbatched,
                errors=tuple(errors),
                attempts=attempts,
                final_backends=backends,
            )
            self._publish_batch(tele, batch)
            return batch

        # Regions run concurrently: with the block partition summing to the
        # configured launch size, every wavefront is resident at once (up to
        # device capacity), so the batch kernel time is the slowest region's
        # kernel time, scaled by how many capacity waves the launch needs.
        waves = self.device.batches(self.gpu_params.blocks)
        batch_seconds = (
            2 * launch  # one launch per pass (RP pass + ILP pass)
            + 2 * cost.per_copy_call
            + total_transfer
            + waves * max_kernel
        )
        batch = BatchResult(
            results=tuple(results),
            blocks_per_region=tuple(blocks),
            seconds=batch_seconds,
            unbatched_seconds=unbatched,
            errors=tuple(errors),
            attempts=attempts,
            final_backends=backends,
        )
        self._publish_batch(tele, batch)
        return batch

    def _publish_batch(self, tele: Telemetry, batch: BatchResult) -> None:
        """Export one batch outcome as a ``batch_end`` event."""
        if not tele.active:
            return
        tele.emit(
            "batch_end",
            num_regions=len(batch.results),
            seconds=batch.seconds,
            unbatched_seconds=batch.unbatched_seconds,
            amortization_speedup=batch.amortization_speedup,
            failed_regions=batch.failed_regions,
        )
