"""The two-pass GPU-parallel ACO scheduler (Section IV-B).

Runs the same two-pass algorithm as
:class:`~repro.aco.sequential.SequentialACOScheduler` — the shared
:class:`~repro.aco.driver.TwoPassDriver` owns the lower bounds,
termination, pheromone rules, deadline, checkpoint and resume — but each
iteration constructs ``blocks * 64`` schedules at once with the colony,
and scheduling time comes from the simulated device: one kernel launch per
invoked pass (the paper launches a single cooperative kernel whose main
loop runs all iterations on-device), one host->device transfer of the
region image and the preallocated per-ant state, per-iteration reduction
and pheromone-update costs, and the per-step lockstep cycle charges
accumulated by the colony. This module is only that device engine: the
region image, colony, transfer and launch, the injected device faults
(launch, preallocation, corruption, hang), and the launch's profile and
telemetry.

Memory-optimization toggles map onto the simulation as follows
(Section V-A): with ``soa_layout`` off, the naive baseline is simulated —
array-of-structures state (uncoalesced transactions) with linked lists kept
through device-side dynamic allocation; with ``tight_ready_list_bound`` off
the per-ant buffers are sized by the trivial bound ``n``; with
``batched_transfers`` off every device array is copied with its own call.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..aco.driver import PassCost, PassEngine, TwoPassDriver, Winner
from ..analysis.sanitizer import ColonySanitizer
from ..config import ACOParams, GPUParams
from ..ddg.graph import DDG
from ..errors import CorruptionDetected, DeviceHangError, KernelLaunchError
from ..gpusim.device import GPUDevice
from ..gpusim.faults import FaultPlan
from ..gpusim.kernel import KernelAccounting, TransferAccounting
from ..gpusim.reduction import reduction_cycles
from ..machine.model import MachineModel
from ..profile import get_profiler
from ..resilience.checkpoint import RegionCheckpoint
from ..telemetry import Telemetry
from .colony import resolve_backend
from .divergence import DivergencePolicy
from .layouts import RegionDeviceData
from .rng import AntRngStreams, check_seed
from .vectorized import VectorizedColony

#: Simulated seconds a hung kernel burns before the watchdog declares it
#: dead (one missed heartbeat). Charged to the attempt and to the region's
#: deadline budget.
HANG_SECONDS = 2e-3


class _DeviceRegion(NamedTuple):
    """Per-region state shared by both passes' launches."""

    data: RegionDeviceData
    faults: Optional[FaultPlan]
    seed: int
    attempt: int


class _DevicePass(PassEngine):
    """One invoked pass: a single simulated kernel launch.

    Opening the pass makes the launch API call (which an injected fault
    can fail), builds the colony (pass 2's streams are seeded ``seed + 1``)
    and the host->device transfer, and draws this attempt's silent
    hazards: a corrupted transfer stays hidden until the integrity check at
    copy-back (:meth:`finish`); a hang fires after a fixed number of this
    attempt's iterations (:meth:`construct`).
    """

    def __init__(self, scheduler, region: _DeviceRegion, region_name, pass_index,
                 budget, resume, target, max_length):
        self.scheduler = scheduler
        self.region_name = region_name
        self.pass_index = pass_index
        self.budget = budget
        self.data = region.data
        faults = region.faults
        self.attempt = attempt = region.attempt
        self.target = target
        self.max_length = max_length
        self.cost = cost = scheduler.device.cost
        if faults is not None:
            try:
                faults.check_launch(
                    region_name, pass_index, attempt, cost.launch_overhead
                )
            except KernelLaunchError:
                # A failed launch still burns its fixed overhead.
                if budget is not None:
                    budget.charge(cost.launch_overhead)
                raise
        seed = region.seed if pass_index == 1 else region.seed + 1
        self.colony, self.accounting = scheduler._make_colony(self.data, seed)
        self.transfer = scheduler._transfer(self.data)
        self.corrupted = (
            faults is not None
            and faults.transfer_corrupted(region_name, pass_index, attempt)
        )
        hang_after = (
            faults.hang_iteration(region_name, pass_index, attempt)
            if faults is not None
            else None
        )
        # Pheromone and tracker state carry over in the driver; the per-ant
        # streams continue draw-for-draw only when the population matches
        # (:meth:`RegionCheckpoint.exact_rng_resume`) — otherwise the
        # resumed attempt re-explores with fresh streams.
        start = 0
        if resume is not None:
            start = resume.iteration
            if resume.exact_rng_resume(self.colony.num_ants):
                self.colony.streams.restore(resume.rng_state)
        self.hang_at = None if hang_after is None else start + hang_after
        self.launch_charged = False
        self.charged_kernel = 0.0

    def construct(self, iteration, pheromone, checkpoint):
        if self.hang_at is not None and iteration >= self.hang_at:
            raise self._hang(checkpoint())
        recorder = self.scheduler.telemetry.recorder
        if recorder is not None:
            recorder.begin_iteration(self.region_name, self.pass_index, iteration)
        if self.pass_index == 1:
            result = self.colony.run_rp_iteration(pheromone.tau)
        else:
            result = self.colony.run_ilp_iteration(
                pheromone.tau, self.target, self.max_length
            )
        self.accounting.charge_uniform_cycles(
            self.scheduler._iteration_overhead_cycles(self.data, self.colony.num_ants)
        )
        if result.winner_order is None:
            return None
        return Winner(
            result.winner_cost, result.winner_order,
            result.winner_peak, result.winner_cycles,
        )

    def uncharged_seconds(self) -> float:
        """The launch's transfer and fixed overhead first, then the kernel
        time accumulated since the previous call."""
        if not self.launch_charged:
            self.launch_charged = True
            return self.transfer.seconds() + self.cost.launch_overhead
        kernel_now = self.accounting.kernel_seconds()
        seconds = kernel_now - self.charged_kernel
        self.charged_kernel = kernel_now
        return seconds

    def checkpoint_fields(self) -> Dict:
        return {
            "backend": self.colony.backend_name,
            "rng_state": self.colony.streams.state(),
            "num_ants": self.colony.num_ants,
        }

    def _hang(self, checkpoint: RegionCheckpoint) -> DeviceHangError:
        """Build the watchdog's hang error: charge the heartbeat timeout,
        report everything the dead attempt burned, attach the checkpoint."""
        penalty = HANG_SECONDS
        if self.budget is not None:
            self.budget.charge(penalty)
        burned = (
            self.accounting.kernel_seconds()
            + self.transfer.seconds()
            + self.cost.launch_overhead
            + penalty
        )
        return DeviceHangError(
            "watchdog: injected hang in region %r pass %d attempt %d at iteration %d"
            % (
                checkpoint.region,
                checkpoint.pass_index,
                self.attempt,
                checkpoint.iteration,
            ),
            seconds=burned,
            checkpoint=checkpoint,
        )

    def finish(self) -> PassCost:
        kernel_seconds = self.accounting.kernel_seconds()
        transfer_seconds = self.transfer.seconds()
        launch_seconds = self.cost.launch_overhead
        seconds = kernel_seconds + transfer_seconds + launch_seconds
        if self.corrupted:
            raise CorruptionDetected(
                "integrity check at copy-back: corrupted transfer in region %r "
                "pass %d attempt %d" % (self.region_name, self.pass_index, self.attempt),
                seconds=seconds,
            )
        self._profile_launch(transfer_seconds, launch_seconds)
        return PassCost(
            seconds=seconds,
            device={
                "kernel_seconds": kernel_seconds,
                "transfer_seconds": transfer_seconds,
                "launch_seconds": launch_seconds,
            },
        )

    def _profile_launch(self, transfer_seconds: float, launch_seconds: float) -> None:
        """Charge the launch to the span profiler.

        The pass's whole modelled time lands on leaf spans: transfer and
        launch overhead directly, kernel time split per cost category by
        cycle share (so region -> pass -> kernel/compute etc. nest under
        whatever span the caller — usually the pipeline's region span —
        has open). Inside the kernel span, the ant-construction hot path
        (compute/memory/alloc — the per-step work the backends execute
        differently) is grouped under a ``construct`` span so profiles and
        ``repro.bench``'s backend comparison can read it off directly;
        wavefront-uniform overhead (reductions, pheromone, barriers) stays
        a direct kernel leaf.
        """
        prof = get_profiler()
        if not prof.enabled:
            return
        attributed = self.accounting.attributed_seconds()
        with prof.span("pass%d" % self.pass_index, "pass"):
            prof.charge_leaf("transfer", transfer_seconds, "transfer")
            prof.charge_leaf("launch", launch_seconds, "launch")
            with prof.span("kernel", "kernel"):
                with prof.span("construct", "kernel"):
                    for category in ("compute", "memory", "alloc"):
                        prof.charge_leaf(category, attributed[category], "kernel")
                prof.charge_leaf("uniform", attributed["uniform"], "kernel")

    def publish(self, iterations: int) -> None:
        """Export the launch as ``kernel_launch`` and ``transfer`` events
        (cost split, divergence, dead ants, ready-list bound)."""
        tele = self.scheduler.telemetry
        if not tele.active:
            return
        colony, accounting, data = self.colony, self.accounting, self.data
        kernel_seconds = accounting.kernel_seconds()
        transfer_seconds = self.transfer.seconds()
        launch_seconds = self.cost.launch_overhead
        totals = accounting.charge_totals()
        # Optional (schema-v1 extra) attribution fields: the full cost
        # breakdown travels with the event so a trace alone can attribute
        # every launch's seconds (see repro.obs.report).
        attributed = {
            name + "_seconds": value
            for name, value in accounting.attributed_seconds().items()
        }
        tele.emit(
            "kernel_launch",
            region=self.region_name,
            pass_index=self.pass_index,
            backend=colony.backend_name,
            strategy=self.scheduler.params.strategy,
            wavefronts=accounting.num_wavefronts,
            ants=colony.num_ants,
            iterations=iterations,
            kernel_seconds=kernel_seconds,
            transfer_seconds=transfer_seconds,
            launch_seconds=launch_seconds,
            serialized_selection_waves=colony.serialized_selection_waves,
            serialized_stall_waves=colony.serialized_stall_waves,
            dead_ants=colony.dead_ants_total,
            ready_peak=colony.ready_peak,
            ready_capacity=data.ready_capacity,
            batches=accounting.batches(),
            coalesced=accounting.coalesced,
            coalescing_factor=(
                1.0 if accounting.coalesced else self.cost.uncoalesced_factor
            ),
            **totals,
            **attributed,
        )
        tele.emit(
            "transfer",
            region=self.region_name,
            pass_index=self.pass_index,
            bytes=self.transfer.total_bytes,
            calls=self.transfer.array_count,
            seconds=transfer_seconds,
        )


class ParallelACOScheduler(TwoPassDriver):
    """Two-pass ACO scheduling on the simulated GPU."""

    name = "parallel-aco"

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams] = None,
        gpu_params: Optional[GPUParams] = None,
        device: Optional[GPUDevice] = None,
        telemetry: Optional[Telemetry] = None,
        verify: bool = False,
        backend: Optional[str] = None,
    ):
        self.device = device or GPUDevice()
        self.gpu_params = gpu_params or GPUParams()
        self.gpu_params.validate()
        super().__init__(machine, params, telemetry, verify)
        #: Construction engine: the argument, else ``gpu_params.backend``.
        self.backend = backend or self.gpu_params.backend
        resolve_backend(self.backend)  # fail fast on unknown names

    # -- device plumbing -----------------------------------------------------

    def _transfer(self, data: RegionDeviceData) -> TransferAccounting:
        """Host->device copy of the region image.

        The per-ant state is *not* copied: the kernel's threads initialize
        their own preallocated buffers on the device (Section V-A allocates
        on the host but a single contiguous block, and re-initialization
        between iterations happens in the kernel) — its cost is charged as
        cycles in :meth:`_iteration_overhead_cycles`.
        """
        transfer = TransferAccounting(self.device, self.gpu_params.batched_transfers)
        for array in data.device_arrays():
            transfer.add_ndarray(np.asarray(array))
        return transfer

    def _iteration_overhead_cycles(self, data: RegionDeviceData, num_ants: int) -> float:
        """Per-iteration costs outside construction: per-ant state reset,
        the winner reduction, the pheromone decay/deposit and the barriers."""
        cost = self.device.cost
        n = data.num_instructions
        entries = (n + 1) * n
        per_thread_rows = math.ceil(entries / num_ants)
        pheromone = per_thread_rows * (2 * cost.cycles_per_op + cost.cycles_per_transaction / 8.0)
        barriers = 3 * cost.cycles_per_transaction
        # Lane-local state reset: one coalesced store per word row.
        init = data.per_ant_state_words * (cost.cycles_per_transaction / 4.0)
        return reduction_cycles(num_ants, cost) + pheromone + barriers + init

    def _make_colony(
        self, data: RegionDeviceData, seed: int
    ) -> Tuple[VectorizedColony, KernelAccounting]:
        policy = DivergencePolicy.from_params(
            self.gpu_params, self.device.wavefront_size
        )
        accounting = KernelAccounting(
            self.device,
            policy.num_wavefronts,
            coalesced=self.gpu_params.soa_layout,
            dynamic_alloc=not self.gpu_params.soa_layout,
        )
        rng = AntRngStreams(seed, policy.num_ants, recorder=self.telemetry.recorder)
        # In verify mode, sanitize the colony too.
        sanitizer = ColonySanitizer() if self.verify_enabled else None
        colony_cls = resolve_backend(self.backend)
        colony = colony_cls(
            data, self.params, policy, accounting, rng, sanitizer=sanitizer
        )
        return colony, accounting

    # -- the engine seam -------------------------------------------------------

    def _open_region(
        self, ddg: DDG, seed: int, fault_plan: Optional[FaultPlan], attempt: int
    ) -> _DeviceRegion:
        # Both passes' streams derive from the seed (pass 2 from seed + 1).
        seed = check_seed(seed)
        data = RegionDeviceData(
            ddg, self.machine, tight_ready_bound=self.gpu_params.tight_ready_list_bound
        )
        if fault_plan is not None:
            # Section V-A preallocates the whole per-ant state in one block;
            # that is the allocation that can fail.
            policy = DivergencePolicy.from_params(
                self.gpu_params, self.device.wavefront_size
            )
            fault_plan.check_preallocation(
                ddg.region.name,
                attempt,
                requested_bytes=4 * data.per_ant_state_words * policy.num_ants,
            )
        return _DeviceRegion(data, fault_plan, seed, attempt)

    def _open_pass(self, region_state, ddg, pass_index, budget, resume, target, max_length):
        return _DevicePass(
            self, region_state, ddg.region.name, pass_index, budget, resume,
            target, max_length,
        )
