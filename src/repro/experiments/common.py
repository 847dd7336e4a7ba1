"""Shared experiment infrastructure.

An :class:`ExperimentScale` fixes the suite size, the region-size cap and
the parallel launch geometry. The paper's full scale (341 benchmarks,
181,883 regions, 180 blocks x 64 threads) would take days in a Python
simulation, so the default bench scale is a proportional reduction; the
`paper` column of every table records the published values for shape
comparison. The CLI selects one with ``--scale`` (``test`` / ``default`` /
``large``).

The expensive artifacts — the suite compiled under the baseline, the
sequential ACO, the parallel ACO and the CP heuristic — are computed once
per :class:`ExperimentContext` and cached on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..aco.sequential import SequentialACOScheduler
from ..config import (
    ACOParams,
    FilterParams,
    GPUParams,
    ResilienceParams,
    SIZE_CLASS_LABELS,
    SuiteParams,
    size_class_index,
)
from ..heuristics.amd_max_occupancy import AMDMaxOccupancyScheduler
from ..heuristics.cp_scheduler import CriticalPathListScheduler
from ..machine.model import MachineModel
from ..machine.targets import amd_vega20
from ..parallel.scheduler import ParallelACOScheduler
from ..pipeline.compiler import CompilePipeline, CompileRun
from ..pipeline.filters import InvocationFilter
from ..suite.rocprim import Suite, generate_suite
from ..telemetry import Telemetry


@dataclass(frozen=True)
class ExperimentScale:
    """One experiment configuration (suite size + launch geometry)."""

    name: str
    suite: SuiteParams
    max_region_size: int
    gpu: GPUParams
    aco: ACOParams = field(default_factory=ACOParams)
    #: "Large region" floor for experiments the paper restricts to >= 100
    #: instructions (Tables 4.b column 3 and 6); scaled suites lower it.
    large_region_floor: int = 100


SCALES: Dict[str, ExperimentScale] = {
    "test": ExperimentScale(
        name="test",
        suite=SuiteParams(num_benchmarks=8, num_kernels=8, regions_per_kernel=3),
        max_region_size=90,
        gpu=GPUParams(blocks=3),
        large_region_floor=50,
    ),
    "default": ExperimentScale(
        name="default",
        suite=SuiteParams(num_benchmarks=48, num_kernels=24, regions_per_kernel=6),
        max_region_size=300,
        gpu=GPUParams(blocks=8),
        large_region_floor=100,
    ),
    "large": ExperimentScale(
        name="large",
        suite=SuiteParams(num_benchmarks=96, num_kernels=48, regions_per_kernel=8),
        max_region_size=600,
        gpu=GPUParams(blocks=30),
        large_region_floor=100,
    ),
}


@dataclass
class SpeedupRecord:
    """One comparable region's sequential-vs-parallel timing (Table 3)."""

    region_name: str
    size: int
    pass_index: int  # 1 or 2
    seq_seconds: float
    par_seconds: float
    iterations: int

    @property
    def speedup(self) -> float:
        return self.seq_seconds / self.par_seconds

    @property
    def size_class(self) -> int:
        return size_class_index(self.size)


class ExperimentContext:
    """Lazily-computed shared artifacts for one run configuration.

    The configuration is the ``scale`` (its ``aco.strategy`` and
    ``gpu.backend`` included), ``verify`` (handed to every scheduler and
    pipeline the context builds) and ``resilience`` (handed to its
    pipelines).

    ``telemetry`` is the observability hook: pass an instance (e.g. one
    with a JSONL sink) and every compile run, scheduler pass and simulated
    kernel launch the context triggers reports through it; leave it None
    for an inert one. The context hands it to every scheduler and pipeline
    it builds; the caller owns it and closes it.
    """

    def __init__(
        self,
        scale: ExperimentScale,
        machine: Optional[MachineModel] = None,
        telemetry: Optional[Telemetry] = None,
        verify: bool = False,
        resilience: Optional[ResilienceParams] = None,
    ):
        self.scale = scale
        self.machine = machine or amd_vega20()
        self.filters_for_stats = FilterParams(cycle_threshold=0)
        self.telemetry = telemetry or Telemetry()
        self.verify = verify
        self.resilience = resilience
        self._suite: Optional[Suite] = None
        self._runs: Dict[str, CompileRun] = {}

    # -- building blocks -------------------------------------------------------

    @property
    def suite(self) -> Suite:
        if self._suite is None:
            self._suite = generate_suite(
                self.scale.suite, max_region_size=self.scale.max_region_size
            )
        return self._suite

    def baseline_scheduler(self) -> AMDMaxOccupancyScheduler:
        return AMDMaxOccupancyScheduler(self.machine)

    def sequential_scheduler(self) -> SequentialACOScheduler:
        return SequentialACOScheduler(
            self.machine,
            params=self.scale.aco,
            telemetry=self.telemetry,
            verify=self.verify,
        )

    def parallel_scheduler(
        self, gpu: Optional[GPUParams] = None
    ) -> ParallelACOScheduler:
        return ParallelACOScheduler(
            self.machine,
            params=self.scale.aco,
            gpu_params=gpu or self.scale.gpu,
            telemetry=self.telemetry,
            verify=self.verify,
        )

    def _pipeline(self, kind: str, filters: FilterParams) -> CompilePipeline:
        if kind == "baseline":
            scheduler = None
            baseline = self.baseline_scheduler()
        elif kind == "cp":
            scheduler = None
            baseline = CriticalPathListScheduler(self.machine)
        elif kind == "sequential":
            scheduler = self.sequential_scheduler()
            baseline = self.baseline_scheduler()
        elif kind == "parallel":
            scheduler = self.parallel_scheduler()
            baseline = self.baseline_scheduler()
        else:
            raise ValueError("unknown run kind %r" % kind)
        return CompilePipeline(
            self.machine,
            scheduler=scheduler,
            filters=filters,
            baseline=baseline,
            telemetry=self.telemetry,
            verify=self.verify,
            resilience=self.resilience,
        )

    def run(self, kind: str, cycle_threshold: Optional[int] = None) -> CompileRun:
        """The suite compiled under one scheduler configuration (cached)."""
        threshold = (
            self.filters_for_stats.cycle_threshold
            if cycle_threshold is None
            else cycle_threshold
        )
        key = "%s@%d" % (kind, threshold)
        if key not in self._runs:
            filters = FilterParams(cycle_threshold=threshold)
            self._runs[key] = self._pipeline(kind, filters).compile_suite(self.suite)
        return self._runs[key]

    def computed_runs(self) -> Dict[str, CompileRun]:
        """Snapshot of the compile runs computed so far (``kind@threshold``
        keys). The bench harness reads it to reconcile profiled seconds
        against the runs that actually executed."""
        return dict(self._runs)

    # -- derived data ----------------------------------------------------------

    def speedup_records(self) -> List[SpeedupRecord]:
        """Per-region, per-pass speedups over *comparable* regions.

        Comparable (Section VI-C): both algorithms processed the region in
        the same pass with the same number of iterations.
        """
        seq = self.run("sequential")
        par = self.run("parallel")
        records: List[SpeedupRecord] = []
        seq_by_name = {o.region_name: o for _k, o in seq.all_regions()}
        for _kernel, par_outcome in par.all_regions():
            seq_outcome = seq_by_name.get(par_outcome.region_name)
            if seq_outcome is None:
                continue
            for pass_index in (1, 2):
                sp = seq_outcome.pass1 if pass_index == 1 else seq_outcome.pass2
                pp = par_outcome.pass1 if pass_index == 1 else par_outcome.pass2
                if sp is None or pp is None or not (sp.invoked and pp.invoked):
                    continue
                if sp.iterations != pp.iterations or pp.seconds <= 0:
                    continue
                records.append(
                    SpeedupRecord(
                        region_name=par_outcome.region_name,
                        size=par_outcome.size,
                        pass_index=pass_index,
                        seq_seconds=sp.seconds,
                        par_seconds=pp.seconds,
                        iterations=pp.iterations,
                    )
                )
        return records


def threshold_pick(context: ExperimentContext, threshold: int):
    """A region-outcome picker that re-applies a cycle threshold post hoc,
    through the pipeline's own :class:`InvocationFilter` rule.

    A region compiled with threshold 0 recorded both its heuristic and its
    ACO schedules; under a larger threshold, ACO simply would not have been
    invoked on regions whose length gap is within the threshold (and whose
    heuristic pressure is at the RP lower bound), so the build ships the
    heuristic schedule there. This makes the Table 7 sweep a cheap
    post-processing of one compile run instead of six recompilations.
    """
    from ..rp.cost import rp_cost_lower_bound

    machine = context.machine
    rule = InvocationFilter(FilterParams(cycle_threshold=threshold))

    def invoked(outcome) -> bool:
        return outcome.aco_invoked and rule.should_invoke(
            outcome.heuristic.rp_cost,
            rp_cost_lower_bound(outcome.bounds, machine),
            outcome.heuristic.length,
            outcome.bounds.length,
        )

    def pick(outcome):
        return outcome.final if invoked(outcome) else outcome.heuristic

    return pick, invoked


def thresholded_compile_seconds(
    context: ExperimentContext, run: CompileRun, threshold: int
) -> float:
    """Total compile time under a post-hoc cycle threshold."""
    from ..timing import DEFAULT_COMPILE_TIME

    _pick, invoked = threshold_pick(context, threshold)
    total = run.base_seconds
    for _kernel, outcome in run.all_regions():
        total += DEFAULT_COMPILE_TIME.heuristic_seconds(outcome.size)
        if invoked(outcome):
            total += outcome.aco_seconds
    return total


#: Re-export for the experiment modules.
LABELS = SIZE_CLASS_LABELS
