"""Suite-level aggregation: the inputs of Tables 1 and 2.

* :func:`suite_statistics` — the Table 1 rows: benchmark/kernel/region
  counts, how many regions each ACO pass processed, and the average and
  maximum processed region sizes.
* :func:`improvement_statistics` — the Table 2 rows: overall and maximum
  occupancy increase (kernel level) and schedule-length reduction (region
  level) of an ACO build relative to the baseline build.
"""

from __future__ import annotations

from dataclasses import dataclass
from .compiler import CompileRun


@dataclass(frozen=True)
class SuiteStatistics:
    """Table 1: benchmark statistics for one compile run."""

    num_benchmarks: int
    num_kernels: int
    num_regions: int
    pass1_regions: int
    pass2_regions: int
    avg_pass1_size: float
    avg_pass2_size: float
    max_pass1_size: int
    max_pass2_size: int


def suite_statistics(run: CompileRun, num_benchmarks: int) -> SuiteStatistics:
    pass1_sizes = []
    pass2_sizes = []
    num_regions = 0
    for _kernel, outcome in run.all_regions():
        num_regions += 1
        if outcome.pass1_processed:
            pass1_sizes.append(outcome.size)
        if outcome.pass2_processed:
            pass2_sizes.append(outcome.size)

    def _avg(values):
        return sum(values) / len(values) if values else 0.0

    return SuiteStatistics(
        num_benchmarks=num_benchmarks,
        num_kernels=len(run.kernels),
        num_regions=num_regions,
        pass1_regions=len(pass1_sizes),
        pass2_regions=len(pass2_sizes),
        avg_pass1_size=_avg(pass1_sizes),
        avg_pass2_size=_avg(pass2_sizes),
        max_pass1_size=max(pass1_sizes, default=0),
        max_pass2_size=max(pass2_sizes, default=0),
    )


@dataclass(frozen=True)
class ImprovementStatistics:
    """Table 2: ACO improvement over the baseline scheduler."""

    pass1_regions: int
    pass2_regions: int
    overall_occupancy_increase_pct: float
    max_occupancy_increase_pct: float
    overall_length_reduction_pct: float
    max_length_reduction_pct: float


def improvement_statistics(aco_run: CompileRun) -> ImprovementStatistics:
    """Compare the ACO build's final schedules against its own heuristic
    baselines (the heuristic schedule of every region is recorded in the
    same run, so no second compilation is needed)."""
    heur_occ_sum = 0
    final_occ_sum = 0
    max_occ_gain = 0.0
    for kernel in aco_run.kernels:
        heuristic_occupancy = kernel.heuristic_occupancy
        final_occupancy = kernel.final_occupancy
        heur_occ_sum += heuristic_occupancy
        final_occ_sum += final_occupancy
        if heuristic_occupancy > 0:
            gain = 100.0 * (final_occupancy - heuristic_occupancy) / heuristic_occupancy
            max_occ_gain = max(max_occ_gain, gain)

    heur_len_sum = 0
    final_len_sum = 0
    max_len_reduction = 0.0
    pass1_regions = 0
    pass2_regions = 0
    for _kernel, outcome in aco_run.all_regions():
        heur_len_sum += outcome.heuristic.length
        final_len_sum += outcome.final.length
        if outcome.heuristic.length > 0:
            reduction = (
                100.0
                * (outcome.heuristic.length - outcome.final.length)
                / outcome.heuristic.length
            )
            max_len_reduction = max(max_len_reduction, reduction)
        if outcome.pass1_processed:
            pass1_regions += 1
        if outcome.pass2_processed:
            pass2_regions += 1

    return ImprovementStatistics(
        pass1_regions=pass1_regions,
        pass2_regions=pass2_regions,
        overall_occupancy_increase_pct=(
            100.0 * (final_occ_sum - heur_occ_sum) / heur_occ_sum if heur_occ_sum else 0.0
        ),
        max_occupancy_increase_pct=max_occ_gain,
        overall_length_reduction_pct=(
            100.0 * (heur_len_sum - final_len_sum) / heur_len_sum if heur_len_sum else 0.0
        ),
        max_length_reduction_pct=max_len_reduction,
    )
