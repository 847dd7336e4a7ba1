"""The compile pipeline (Section VI's experimental flow).

For every scheduling region:

1. the AMD baseline produces the heuristic schedule;
2. the invocation filter compares it against the lower bounds — if it is
   provably optimal (or within the cycle threshold on length), ACO is
   skipped and the heuristic schedule ships;
3. otherwise the configured ACO scheduler (sequential on the CPU or
   parallel on the simulated GPU) runs both passes;
4. the post-scheduling filter picks the better-balanced of the ACO and
   heuristic schedules.

The pipeline records, per region, everything the evaluation consumes:
which passes ran and for how many iterations, the modelled scheduling
times, and the heuristic/ACO/final schedule qualities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..analysis.ddg_lint import lint_ddg
from ..analysis.verifier import verify_schedule
from ..config import FilterParams, ResilienceParams
from ..aco.driver import PassResult
from ..aco.sequential import SequentialACOScheduler
from ..ddg.graph import DDG
from ..ddg.lower_bounds import RegionBounds, region_bounds
from ..errors import PipelineError, RegionUnrecoverable
from ..heuristics.amd_max_occupancy import AMDMaxOccupancyScheduler
from ..machine.model import MachineModel
from ..obs.context import region_trace
from ..parallel.scheduler import ParallelACOScheduler
from ..profile import get_profiler
from ..resilience.ladder import schedule_with_resilience
from ..rp.cost import ScheduleQuality, evaluate_schedule, rp_cost_lower_bound
from ..schedule.schedule import Schedule
from ..suite.rocprim import KernelSpec, Suite
from ..suite.rng import derive_seed
from ..telemetry import Telemetry
from ..timing import DEFAULT_COMPILE_TIME, CompileTimeModel, HostSecondsLedger
from .filters import FilterDecision, InvocationFilter, PostSchedulingFilter

ACOScheduler = Union[SequentialACOScheduler, ParallelACOScheduler]


@dataclass
class RegionOutcome:
    """Everything recorded about scheduling one region."""

    region_name: str
    size: int
    bounds: RegionBounds
    heuristic: ScheduleQuality
    final: ScheduleQuality
    decision: FilterDecision
    schedule: Schedule
    aco: Optional[ScheduleQuality] = None
    pass1: Optional[PassResult] = None
    pass2: Optional[PassResult] = None
    #: Modelled scheduling time: heuristic + (when invoked) ACO.
    ledger: HostSecondsLedger = field(default_factory=HostSecondsLedger)

    @property
    def scheduling_seconds(self) -> float:
        return self.ledger.total

    @property
    def aco_invoked(self) -> bool:
        return self.pass1 is not None

    @property
    def pass1_processed(self) -> bool:
        return self.pass1 is not None and self.pass1.invoked

    @property
    def pass2_processed(self) -> bool:
        return self.pass2 is not None and self.pass2.invoked

    @property
    def aco_seconds(self) -> float:
        """Modelled ACO scheduling time (0 when ACO was not invoked)."""
        total = 0.0
        if self.pass1 is not None:
            total += self.pass1.seconds
        if self.pass2 is not None:
            total += self.pass2.seconds
        return total

    @property
    def length_gap(self) -> int:
        """Heuristic schedule length minus the length lower bound."""
        return self.heuristic.length - self.bounds.length


@dataclass
class KernelOutcome:
    """Per-kernel aggregate: region outcomes plus kernel-level occupancy."""

    kernel: KernelSpec
    regions: Tuple[RegionOutcome, ...]

    def _occupancy(self, pick) -> int:
        return min(pick(r).occupancy for r in self.regions)

    @property
    def final_occupancy(self) -> int:
        """Kernel occupancy of the shipped build (min across regions)."""
        return self._occupancy(lambda r: r.final)

    @property
    def heuristic_occupancy(self) -> int:
        return self._occupancy(lambda r: r.heuristic)

    def weighted_length(self, pick, weights: Optional[Tuple[float, ...]] = None) -> float:
        """Dynamic-execution-weighted schedule length (exec-model input).

        ``weights`` overrides the kernel's own region weights — benchmarks
        invoking the kernel with different parameters pass theirs.
        """
        if not weights:
            weights = self.kernel.region_weights
        return sum(w * pick(r).length for w, r in zip(weights, self.regions))

    @property
    def scheduling_seconds(self) -> float:
        return sum(r.scheduling_seconds for r in self.regions)


@dataclass
class CompileRun:
    """One compilation of the whole suite with one scheduler configuration."""

    scheduler_name: str
    kernels: Tuple[KernelOutcome, ...]
    base_seconds: float

    @property
    def scheduling_seconds(self) -> float:
        return sum(k.scheduling_seconds for k in self.kernels)

    @property
    def total_seconds(self) -> float:
        return self.base_seconds + self.scheduling_seconds

    def all_regions(self):
        for kernel in self.kernels:
            for outcome in kernel.regions:
                yield kernel, outcome

    def kernel_outcome(self, name: str) -> KernelOutcome:
        for kernel in self.kernels:
            if kernel.kernel.name == name:
                return kernel
        raise PipelineError("no kernel outcome named %r" % name)


class CompilePipeline:
    """Heuristic-first compilation with selective ACO scheduling."""

    def __init__(
        self,
        machine: MachineModel,
        scheduler: Optional[ACOScheduler] = None,
        filters: Optional[FilterParams] = None,
        compile_time_model: CompileTimeModel = DEFAULT_COMPILE_TIME,
        baseline: Optional[AMDMaxOccupancyScheduler] = None,
        telemetry: Optional[Telemetry] = None,
        verify: bool = False,
        resilience: Optional[ResilienceParams] = None,
    ):
        self.machine = machine
        self.scheduler = scheduler
        self.filters = filters or FilterParams()
        self.filters.validate()
        self.invocation = InvocationFilter(self.filters)
        self.post_filter = PostSchedulingFilter()
        self.compile_time_model = compile_time_model
        self.baseline = baseline or AMDMaxOccupancyScheduler(machine)
        self.telemetry = telemetry or Telemetry()
        #: Lint every DDG and recheck every shipped schedule.
        self.verify_enabled = bool(verify)
        #: Deadline/retry/chaos settings; the inert defaults leave the direct
        #: scheduling path (and its bit-identical outputs) untouched.
        self.resilience = resilience or ResilienceParams()
        self.resilience.validate()

    @property
    def scheduler_name(self) -> str:
        return self.scheduler.name if self.scheduler is not None else "baseline"

    # -- region level -----------------------------------------------------------

    def compile_region(self, ddg: DDG, seed: int = 0) -> RegionOutcome:
        tele = self.telemetry
        # One trace per region journey: every event and span below —
        # passes, launches, and the resilience ladder's faults, retries
        # and downgrades — shares this deterministic trace id.
        with region_trace(ddg.region.name, ddg.num_instructions, seed):
            if tele.active:
                tele.emit(
                    "region_start",
                    region=ddg.region.name,
                    size=len(ddg.region),
                    scheduler=self.scheduler_name,
                )
            with get_profiler().span(ddg.region.name, "region"):
                outcome = self._compile_region(ddg, seed)
            if self.verify_enabled:
                self._verify_region(tele, ddg, outcome)
            if tele.active:
                self._publish_region(tele, outcome)
            recorder = tele.recorder
            if recorder is not None:
                recorder.record_schedule(
                    "shipped",
                    region=outcome.region_name,
                    seed=seed,
                    scheduler=self.scheduler_name,
                    decision=outcome.decision.name.lower(),
                    order=list(outcome.schedule.order),
                    cycles=list(outcome.schedule.cycles),
                    length=outcome.final.length,
                    rp_cost=outcome.final.rp_cost,
                )
        return outcome

    def _verify_region(self, tele: Telemetry, ddg: DDG, outcome: RegionOutcome) -> None:
        """Recheck the DDG and the shipped schedule against every claim.

        The shipped schedule is latency-legal whichever way the filters
        decided, and the recorded quality (``outcome.final``) must match an
        independent recomputation of peak pressure and RP cost.
        """
        report = lint_ddg(ddg)
        report.merge(
            verify_schedule(
                outcome.schedule,
                ddg,
                self.machine,
                expected_peak=outcome.final.pressure_dict,
                expected_rp_cost=outcome.final.rp_cost,
            )
        )
        report.publish(tele, outcome.region_name)
        report.raise_if_failed()

    def _publish_region(self, tele: Telemetry, outcome: RegionOutcome) -> None:
        """Export one region's outcome as a ``region_end`` event."""
        decision = outcome.decision.name.lower()
        tele.emit(
            "region_end",
            region=outcome.region_name,
            size=outcome.size,
            decision=decision,
            aco_invoked=outcome.aco_invoked,
            heuristic_length=outcome.heuristic.length,
            final_length=outcome.final.length,
            heuristic_occupancy=outcome.heuristic.occupancy,
            final_occupancy=outcome.final.occupancy,
            scheduling_seconds=outcome.scheduling_seconds,
        )

    def _compile_region(self, ddg: DDG, seed: int) -> RegionOutcome:
        region = ddg.region
        bounds = region_bounds(ddg)
        heuristic_schedule = self.baseline.schedule(ddg)
        heuristic_quality = evaluate_schedule(heuristic_schedule, self.machine)
        heuristic_seconds = self.compile_time_model.heuristic_seconds(len(region))
        prof = get_profiler()
        if prof.enabled:
            prof.charge_leaf("heuristic", heuristic_seconds, "heuristic")

        outcome = RegionOutcome(
            region_name=region.name,
            size=len(region),
            bounds=bounds,
            heuristic=heuristic_quality,
            final=heuristic_quality,
            decision=FilterDecision.SKIPPED_OPTIMAL,
            schedule=heuristic_schedule,
            ledger=HostSecondsLedger(heuristic_seconds),
        )
        if self.scheduler is None:
            return outcome

        # Both gates compare the heuristic's actual (latency-aware) schedule
        # against the lower bounds, and ACO starts from its order.
        if not self.invocation.should_invoke(
            heuristic_quality.rp_cost,
            rp_cost_lower_bound(bounds, self.machine),
            heuristic_quality.length,
            bounds.length,
        ):
            outcome.decision = self.invocation.decision_for_skip(
                heuristic_quality.length, bounds.length
            )
            return outcome

        resilience = self.resilience
        if resilience.active:
            # Route through the retry-with-degradation ladder. A region
            # that exhausts its rungs ships the (already verified-legal)
            # heuristic schedule instead of failing the compile; the time
            # burned by faulted attempts still counts as scheduling time.
            try:
                ladder = schedule_with_resilience(
                    self.scheduler,
                    ddg,
                    seed,
                    resilience,
                    initial_order=heuristic_schedule.order,
                    bounds=bounds,
                    reference_schedule=heuristic_schedule,
                    telemetry=self.telemetry,
                )
            except RegionUnrecoverable as exc:
                outcome.decision = FilterDecision.UNRECOVERABLE
                outcome.ledger.charge(exc.spent_seconds)
                return outcome
            if ladder.result is None:
                outcome.decision = FilterDecision.DEGRADED
                outcome.ledger.charge(ladder.spent_seconds)
                return outcome
            aco_result = ladder.result
            aco_seconds = ladder.spent_seconds
        else:
            aco_result = self.scheduler.schedule(
                ddg,
                seed=seed,
                initial_order=heuristic_schedule.order,
                bounds=bounds,
                reference_schedule=heuristic_schedule,
            )
            aco_seconds = aco_result.seconds
        aco_quality = evaluate_schedule(aco_result.schedule, self.machine, peak=aco_result.peak)
        outcome.aco = aco_quality
        outcome.pass1 = aco_result.pass1
        outcome.pass2 = aco_result.pass2
        outcome.ledger.charge(aco_seconds)

        if self.post_filter.keep_aco(
            aco_quality.occupancy,
            aco_quality.length,
            heuristic_quality.occupancy,
            heuristic_quality.length,
        ):
            outcome.final = aco_quality
            outcome.schedule = aco_result.schedule
            outcome.decision = FilterDecision.ACO_APPLIED
        else:
            outcome.decision = FilterDecision.REVERTED
        return outcome

    # -- kernel / suite level ------------------------------------------------------

    def compile_kernel(self, kernel: KernelSpec, suite_seed: int = 0) -> KernelOutcome:
        outcomes = []
        for index, region in enumerate(kernel.regions):
            seed = derive_seed(suite_seed, "schedule", kernel.name, index)
            outcomes.append(self.compile_region(DDG(region), seed=seed))
        return KernelOutcome(kernel=kernel, regions=tuple(outcomes))

    def compile_suite(self, suite: Suite) -> CompileRun:
        tele = self.telemetry
        if tele.active:
            tele.emit(
                "suite_start",
                scheduler=self.scheduler_name,
                num_kernels=len(suite.kernels),
            )
        prof = get_profiler()
        prof.push("suite:%s" % self.scheduler_name, "suite")
        kernels = tuple(
            self.compile_kernel(kernel, suite.params.seed) for kernel in suite.kernels
        )
        total_instructions = sum(k.kernel.total_instructions for k in kernels)
        base = self.compile_time_model.base_seconds(total_instructions, len(kernels))
        if prof.enabled:
            prof.charge_leaf("base_compile", base, "base")
        prof.pop()
        run = CompileRun(
            scheduler_name=self.scheduler_name, kernels=kernels, base_seconds=base
        )
        if tele.active:
            tele.emit(
                "suite_end",
                scheduler=self.scheduler_name,
                num_kernels=len(run.kernels),
                scheduling_seconds=run.scheduling_seconds,
                base_seconds=run.base_seconds,
            )
        return run
