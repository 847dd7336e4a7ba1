"""The continuous-benchmark registry and BENCH_*.json writer.

Each bench extracts a handful of *scalar* metrics from the shared
:class:`repro.experiments.common.ExperimentContext` — the same cached
compile runs the tables and figures read — and the runner serializes them
to a versioned ``BENCH_<name>.json``. Because every simulated second in
this reproduction is deterministic, the files are bit-stable for a given
scale and code revision: any diff against a committed baseline is a real
behavior change, not noise, which is what makes threshold-based CI gating
(see :mod:`repro.bench.compare`) meaningful at all.

Metric schema (``bench_schema`` 1)::

    {"bench_schema": 1, "name": "table2", "scale": "test",
     "fingerprint": {...}, "metrics": {"<metric>": {
         "value": <float>, "unit": "<unit>", "direction": "lower|higher|info"}}}

``direction`` drives regression comparison: ``lower`` means smaller is
better (times), ``higher`` means bigger is better (speedups, improvement
percentages) and ``info`` is recorded but never gated (counts, coverage).
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import Callable, Dict, List, Optional

from ..config import geometric_mean, replace_params
from ..errors import BenchError
from ..experiments.common import (
    ExperimentContext,
    thresholded_compile_seconds,
)
from ..pipeline.stats import improvement_statistics
from ..profile import NullProfiler, attribution, get_profiler, profile_session
from ..telemetry import MemorySink, Telemetry
from .fingerprint import environment_fingerprint

#: Version of the BENCH_*.json layout.
BENCH_SCHEMA = 1

#: The production cycle threshold used by the compile-time and
#: execution-time experiments (Table 5 / Figure 4).
PRODUCTION_THRESHOLD = 21


def metric(value: float, unit: str, direction: str = "info") -> Dict[str, object]:
    if direction not in ("lower", "higher", "info"):
        raise BenchError("bad metric direction %r" % direction)
    return {"value": float(value), "unit": unit, "direction": direction}


def isolated(bench):
    """Run a bench that builds its own workload apart from the run-wide state.

    :func:`bench_profile` reconciles the run-wide span profile and kernel
    launches against the context's compile runs, so nothing else may add
    to them. The bench gets an inert profiler and a fresh context of the
    same configuration with its own inert telemetry; a component the
    bench builds without ``telemetry=`` is inert too.
    """

    @functools.wraps(bench)
    def run(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
        own = ExperimentContext(
            context.scale,
            machine=context.machine,
            verify=context.verify,
            resilience=context.resilience,
        )
        with profile_session(NullProfiler()):
            return bench(own)

    return run


# -- bench extractors ----------------------------------------------------------


def bench_table2(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Table 2: schedule-quality improvement of parallel ACO vs. AMD."""
    stats = improvement_statistics(context.run("parallel"))
    return {
        "pass1_regions": metric(stats.pass1_regions, "regions"),
        "pass2_regions": metric(stats.pass2_regions, "regions"),
        "overall_occupancy_increase_pct": metric(
            stats.overall_occupancy_increase_pct, "pct", "higher"
        ),
        "max_occupancy_increase_pct": metric(
            stats.max_occupancy_increase_pct, "pct", "higher"
        ),
        "overall_length_reduction_pct": metric(
            stats.overall_length_reduction_pct, "pct", "higher"
        ),
        "max_length_reduction_pct": metric(
            stats.max_length_reduction_pct, "pct", "higher"
        ),
    }


def bench_table3(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Table 3: parallel-over-sequential scheduling speedup per pass."""
    records = context.speedup_records()
    out: Dict[str, Dict[str, object]] = {}
    for pass_index in (1, 2):
        speedups = [r.speedup for r in records if r.pass_index == pass_index]
        out["pass%d_comparable_regions" % pass_index] = metric(
            len(speedups), "regions"
        )
        if speedups:
            out["pass%d_geomean_speedup" % pass_index] = metric(
                geometric_mean(speedups), "x", "higher"
            )
            out["pass%d_max_speedup" % pass_index] = metric(
                max(speedups), "x", "higher"
            )
    return out


def bench_table5(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Table 5: total compile times at the production cycle threshold."""
    base = context.run("baseline").total_seconds
    seq = thresholded_compile_seconds(
        context, context.run("sequential"), PRODUCTION_THRESHOLD
    )
    par = thresholded_compile_seconds(
        context, context.run("parallel"), PRODUCTION_THRESHOLD
    )
    out = {
        "base_compile_seconds": metric(base, "s", "lower"),
        "sequential_compile_seconds": metric(seq, "s", "lower"),
        "parallel_compile_seconds": metric(par, "s", "lower"),
    }
    if base > 0:
        out["sequential_overhead_pct"] = metric(
            100.0 * (seq - base) / base, "pct", "lower"
        )
        out["parallel_overhead_pct"] = metric(
            100.0 * (par - base) / base, "pct", "lower"
        )
    if seq > 0:
        out["parallel_vs_sequential_reduction_pct"] = metric(
            100.0 * (seq - par) / seq, "pct", "higher"
        )
    return out


def bench_fig4(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Figure 4: modelled execution-time speedup of the benchmarks."""
    from ..experiments.common import threshold_pick
    from ..perf.exec_model import (
        ExecutionModel,
        benchmark_results,
        sensitive_benchmarks,
    )

    suite = context.suite
    model = ExecutionModel()
    runs = [context.run("baseline"), context.run("parallel"), context.run("cp")]
    sensitive = sensitive_benchmarks(suite, runs, model)
    pick, _invoked = threshold_pick(context, PRODUCTION_THRESHOLD)
    results = benchmark_results(
        suite, context.run("parallel"), model, benchmarks=sensitive, pick_aco=pick
    )
    significant = [r for r in results if r.significant]
    ratios = [r.aco_throughput / r.base_throughput for r in significant]
    geomean_pct = (
        100.0 * (math.exp(sum(math.log(x) for x in ratios) / len(ratios)) - 1.0)
        if ratios
        else 0.0
    )
    improvements = [r.improvement_pct for r in significant if r.improvement_pct > 0]
    regressions = [-r.improvement_pct for r in results if r.improvement_pct < 0]
    return {
        "significant_benchmarks": metric(len(significant), "benchmarks"),
        "geomean_improvement_pct": metric(geomean_pct, "pct", "higher"),
        "max_improvement_pct": metric(
            max(improvements, default=0.0), "pct", "higher"
        ),
        "max_regression_pct": metric(max(regressions, default=0.0), "pct", "lower"),
    }


#: Table-2-scale duel regions for ``bench_backend``: one per paper size
#: class (1-49, 50-99, and the >=100 band clipped to the scale's cap).
_BACKEND_DUEL_REGIONS = (("reduce", 3, 30), ("sort", 5, 55), ("stencil", 1, 80))


def _construct_stats(context: ExperimentContext, backend: str):
    """Schedule the duel regions with one backend; return the construction
    hot path's cost-model totals (summed over launches).

    "Construction" is the per-step work the backends execute differently —
    the compute/memory/alloc attribution of each kernel launch; the
    wavefront-uniform overhead (reduction, pheromone, barriers) is
    identical by construction and excluded.
    """
    import random

    from ..ddg import DDG
    from ..parallel import ParallelACOScheduler
    from ..suite.patterns import pattern_region

    sink = MemorySink()
    scheduler = ParallelACOScheduler(
        context.machine,
        params=context.scale.aco,
        gpu_params=context.scale.gpu,
        telemetry=Telemetry(sink=sink),
        backend=backend,
    )
    orders = []
    for pattern, seed, size in _BACKEND_DUEL_REGIONS:
        region = pattern_region(pattern, random.Random(seed), size)
        result = scheduler.schedule(DDG(region), seed=context.scale.suite.seed)
        orders.append(tuple(result.schedule.order))
    construct = sum(
        r["compute_seconds"] + r["memory_seconds"] + r["alloc_seconds"]
        for r in sink.by_type("kernel_launch")
    )
    iterations = sum(r["iterations"] for r in sink.by_type("kernel_launch"))
    return construct, iterations, orders


@isolated
def bench_backend(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Backend duel: vectorized vs. loop ant construction on Table-2-scale
    regions — same decisions, different simulated kernels.

    ``construct_speedup`` is the headline: cost-model seconds per
    iteration of the loop backend's divergent serialized-lane kernel over
    the vectorized backend's lockstep kernel (the paper's Section V
    argument as a measurement; the acceptance floor is 3x).
    """
    vec_seconds, vec_iters, vec_orders = _construct_stats(context, "vectorized")
    loop_seconds, loop_iters, loop_orders = _construct_stats(context, "loop")
    vec_per_iter = vec_seconds / max(vec_iters, 1)
    loop_per_iter = loop_seconds / max(loop_iters, 1)
    return {
        "duel_regions": metric(len(_BACKEND_DUEL_REGIONS), "regions"),
        "iterations": metric(vec_iters, "iterations"),
        "schedules_identical": metric(
            1.0 if (vec_orders == loop_orders and vec_iters == loop_iters) else 0.0,
            "bool",
            "higher",
        ),
        "vectorized_construct_seconds_per_iteration": metric(
            vec_per_iter, "s", "lower"
        ),
        "loop_construct_seconds_per_iteration": metric(loop_per_iter, "s"),
        "construct_speedup": metric(
            loop_per_iter / vec_per_iter if vec_per_iter > 0 else 0.0,
            "x",
            "higher",
        ),
    }


@isolated
def bench_resilience(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Resilience: chaos-sweep recovery rate and retry overhead.

    Runs the chaos harness's pinned mixed-rate sweep on its own small
    region set (independent of the shared compile runs — fault handling,
    not search quality). Deterministic like everything else here: the
    same seeds inject the same faults, so ``recovery_rate_pct`` dropping
    below baseline means a recovery path broke.
    """
    from ..resilience.chaos import LADDER, chaos_sweep

    # Doubled fault rates vs. the default chaos profile: the bench wants a
    # dense, still-deterministic fault sample, not a realistic one.
    report = chaos_sweep(
        LADDER,
        seeds=(11, 23, 37),
        sizes=(10, 12),
        rates={"launch": 0.25, "corruption": 0.25, "hang": 0.25, "oom": 0.15},
    )
    faulted = report.faulted_trials
    return {
        "trials": metric(len(report.trials), "regions"),
        "faulted_trials": metric(len(faulted), "regions"),
        "faults_injected": metric(
            sum(report.faults_by_class.values()), "faults"
        ),
        "recovery_rate_pct": metric(
            100.0 * report.recovery_rate, "pct", "higher"
        ),
        "degraded_regions": metric(report.total("degraded"), "regions", "lower"),
        "retry_overhead_seconds": metric(
            report.total("retry_overhead_seconds"), "s", "lower"
        ),
        "schedules_valid": metric(
            1.0 if report.all_ok else 0.0, "bool", "higher"
        ),
    }


@isolated
def bench_obs(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Observability: aggregation overhead and trace-context coverage.

    Compiles the shared suite once with a :class:`repro.obs` aggregating
    sink attached and reports what the observability layer *cost* (in
    modeled seconds — the aggregator has no wall clock) and what it
    *covered* (every region one trace, every event stamped). The gate is
    the overhead ratio: aggregation must stay well under the telemetry
    emit cost it piggybacks on (<5% is the design target). The pipeline
    reports to the aggregator; its scheduler keeps the context's inert
    telemetry.
    """
    from ..obs.aggregate import AggregatingSink, MetricsAggregator
    from ..pipeline.compiler import CompilePipeline

    aggregator = MetricsAggregator()
    telemetry = Telemetry(sink=AggregatingSink(aggregator))
    pipeline = CompilePipeline(
        context.machine,
        scheduler=context.parallel_scheduler(),
        filters=context.filters_for_stats,
        baseline=context.baseline_scheduler(),
        telemetry=telemetry,
    )
    pipeline.compile_suite(context.suite)

    snapshot_bytes = len(aggregator.snapshot_json().encode("utf-8"))
    updates_per_event = (
        aggregator.updates / aggregator.events if aggregator.events else 0.0
    )
    return {
        "trace_events": metric(aggregator.events, "events"),
        "aggregator_updates": metric(aggregator.updates, "updates"),
        "updates_per_event": metric(updates_per_event, "ratio", "lower"),
        "modeled_overhead_pct": metric(
            aggregator.modeled_overhead_pct(), "pct", "lower"
        ),
        "snapshot_bytes": metric(snapshot_bytes, "bytes"),
        "distinct_traces": metric(aggregator.traces, "traces"),
        "regions_aggregated": metric(aggregator.regions, "regions"),
    }


#: Scenario-diversity regions: one pinned (family, seed, size) per hostile
#: generator family, sized to stress the advertised failure mode while
#: staying fast at test scale (``giant`` is clipped well below its 1024
#: default; the nightly pytest sweep covers the full-size regions).
_SCENARIO_REGIONS = (
    ("giant", 0, 160),
    ("pressure_cliff", 0, 64),
    ("long_chain", 0, 48),
    ("fanout", 0, 96),
)


@isolated
def bench_scenarios(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Scenario diversity: hostile-workload families under AS and MMAS.

    Schedules every hostile family with both pheromone strategies on the
    parallel scheduler and records the landing costs. Two gates fall out:
    per-family cost regressions (a generator or strategy change that makes
    any hostile region schedule worse), and the AS-vs-MMAS duel summary
    (how often MMAS matches or beats the Ant System floor on rp cost).
    Everything is pinned-seed deterministic, so the committed baseline is
    byte-stable.
    """
    from ..ddg import DDG
    from ..parallel import ParallelACOScheduler
    from ..suite.hostile import hostile_region

    strategies = ("as", "mmas")
    schedulers = {
        name: ParallelACOScheduler(
            context.machine,
            params=replace_params(context.scale.aco, strategy=name),
            gpu_params=context.scale.gpu,
        )
        for name in strategies
    }
    out: Dict[str, Dict[str, object]] = {
        "families": metric(len(_SCENARIO_REGIONS), "families"),
    }
    mmas_ties_or_wins = 0
    for family, seed, size in _SCENARIO_REGIONS:
        ddg = DDG(hostile_region(family, seed=seed, size=size))
        costs = {}
        for name in strategies:
            result = schedulers[name].schedule(ddg, seed=context.scale.suite.seed)
            costs[name] = result
            out["%s_%s_rp_cost" % (family, name)] = metric(
                result.rp_cost_value, "cost", "lower"
            )
            out["%s_%s_length" % (family, name)] = metric(
                result.length, "cycles", "lower"
            )
        if costs["mmas"].rp_cost_value <= costs["as"].rp_cost_value:
            mmas_ties_or_wins += 1
    out["mmas_ties_or_wins_rp"] = metric(
        mmas_ties_or_wins, "families", "higher"
    )
    return out


@isolated
def bench_fleet(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Fleet sharding: scaling efficiency, chaos recovery, bit-identity.

    Runs the fleet harness batch fault-free at N in {1, 2, 4} and records
    the makespans and scaling efficiencies, then replays the pinned
    worker-chaos sweep and records recovery statistics and the recovery
    overhead in simulated seconds (chaotic makespan minus the fault-free
    makespan at the same shard count). ``identical_to_single_device`` is
    the headline gate: every fleet merge — fault-free or chaotic — must
    be bit-identical to the single-device run.
    """
    from ..config import FleetParams
    from ..fleet import FleetSupervisor
    from ..fleet.chaos import (
        DEFAULT_SHARDS,
        FLEET,
        batches_identical,
        fleet_items,
        fleet_scheduler,
    )
    from ..resilience.chaos import chaos_sweep

    machine = context.machine
    out: Dict[str, Dict[str, object]] = {}
    items = fleet_items(machine)
    single = fleet_scheduler(machine).schedule_batch(items)
    out["regions"] = metric(len(items), "regions")
    out["single_device_seconds"] = metric(single.seconds, "s", "lower")

    identical = True
    faultfree_makespans: Dict[int, float] = {}
    for num_shards in DEFAULT_SHARDS:
        fleet = FleetSupervisor(
            fleet_scheduler(machine), FleetParams(num_shards=num_shards)
        ).schedule_batch(items)
        identical = identical and batches_identical(single, fleet.batch)
        faultfree_makespans[num_shards] = fleet.fleet_seconds
        out["shards%d_makespan_seconds" % num_shards] = metric(
            fleet.fleet_seconds, "s", "lower"
        )
        out["shards%d_scaling_efficiency" % num_shards] = metric(
            fleet.scaling_efficiency, "ratio", "higher"
        )

    sweep = chaos_sweep(FLEET, seeds=(11, 23), machine=machine)
    identical = identical and sweep.all_ok
    overhead = sum(
        max(0.0, t.fleet_seconds - faultfree_makespans[t.num_shards])
        for t in sweep.trials
    )
    out["chaos_trials"] = metric(len(sweep.trials), "runs")
    out["worker_faults_injected"] = metric(
        sum(sweep.faults_by_class.values()), "faults"
    )
    out["reassignments"] = metric(sweep.total("reassignments"), "reassignments")
    out["recovery_rate_pct"] = metric(
        100.0 * sweep.recovery_rate, "pct", "higher"
    )
    out["chaos_recovery_overhead_seconds"] = metric(overhead, "s", "lower")
    out["identical_to_single_device"] = metric(
        1.0 if identical else 0.0, "bool", "higher"
    )
    return out


def bench_ablations(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Ablations: the ready-list bound's state saving and the post filter.

    Reads only the shared suite and the ``parallel`` run ``table2``
    computed, so it adds no compile run, span or launch. The Section V-A
    ready-list bound sizes each ant's ready list by the transitive closure
    instead of the trivial ``n``; the post-scheduling filter reverts ACO
    schedules that do not pay for themselves.
    """
    from ..ddg import DDG
    from ..gpusim import GPUDevice
    from ..parallel import RegionDeviceData
    from ..pipeline.filters import FilterDecision

    ants = context.scale.gpu.total_threads(GPUDevice().wavefront_size)
    tight_bytes = trivial_bytes = 0
    ratios = []
    for _kernel, region in context.suite.all_regions():
        ddg = DDG(region)
        tight = RegionDeviceData(ddg, context.machine, tight_ready_bound=True)
        trivial = RegionDeviceData(ddg, context.machine, tight_ready_bound=False)
        tight_bytes += tight.per_ant_state_bytes(ants)
        trivial_bytes += trivial.per_ant_state_bytes(ants)
        ratios.append(tight.ready_capacity / max(1, trivial.ready_capacity))

    kept = reverted = 0
    len_heuristic = len_filtered = len_unfiltered = 0
    for _kernel, outcome in context.run("parallel").all_regions():
        len_heuristic += outcome.heuristic.length
        len_filtered += outcome.final.length
        if outcome.aco is None:
            len_unfiltered += outcome.heuristic.length
            continue
        len_unfiltered += outcome.aco.length
        if outcome.decision is FilterDecision.REVERTED:
            reverted += 1
        else:
            kept += 1
    return {
        "ready_list_regions": metric(len(ratios), "regions"),
        "ready_capacity_ratio": metric(sum(ratios) / len(ratios), "ratio"),
        "tight_bound_state_mb": metric(tight_bytes / 1e6, "MB"),
        "trivial_bound_state_mb": metric(trivial_bytes / 1e6, "MB"),
        "ready_list_saving_pct": metric(
            100.0 * (1 - tight_bytes / trivial_bytes), "pct", "higher"
        ),
        "post_filter_kept": metric(kept, "regions"),
        "post_filter_reverted": metric(reverted, "regions"),
        "filtered_length_vs_heuristic_pct": metric(
            100.0 * (len_filtered - len_heuristic) / len_heuristic, "pct"
        ),
        "unfiltered_length_vs_heuristic_pct": metric(
            100.0 * (len_unfiltered - len_heuristic) / len_heuristic, "pct"
        ),
    }


#: (pattern, seed, size) of the cost-function duel's regions.
_COST_FUNCTION_REGIONS = (
    ("reduce", 3, 60), ("reduce", 11, 90), ("gemm_tile", 31, 74),
    ("sort", 2, 50), ("stencil", 7, 60), ("transform", 5, 70),
)


@isolated
def bench_extensions(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Extensions: cost functions, pass-2 convergence, multi-region batching.

    * Section II-A: the two-pass scheduler against weighted-sum scoring at
      three pressure weights, scored on summed occupancy and length of six
      pinned regions. ``two_pass_occupancy_margin`` is the gate: two-pass
      must keep beating the best weighted variant on occupancy.
    * Convergence: the sequential (10 ants) and parallel (384 ants)
      colonies on one hard region under relaxed termination.
    * Section VII: the amortization speedup of batching 2, 4 and 8 small
      regions into one launch.
    """
    import random

    from ..aco import SequentialACOScheduler, WeightedSumACOScheduler
    from ..config import ACOParams, GPUParams
    from ..ddg import DDG
    from ..parallel import BatchItem, MultiRegionScheduler, ParallelACOScheduler
    from ..suite.patterns import pattern_region

    machine = context.machine
    out: Dict[str, Dict[str, object]] = {}

    regions = [
        DDG(pattern_region(pattern, random.Random(seed), size))
        for pattern, seed, size in _COST_FUNCTION_REGIONS
    ]
    schedulers = [("two_pass", SequentialACOScheduler(machine))] + [
        ("weighted_%s" % label, WeightedSumACOScheduler(machine, pressure_weight=w))
        for label, w in (("1e-4", 1e-4), ("1e-3", 1e-3), ("1e-2", 1e-2))
    ]
    occupancy = {}
    for name, scheduler in schedulers:
        results = [
            scheduler.schedule(ddg, seed=index) for index, ddg in enumerate(regions)
        ]
        occupancy[name] = sum(
            machine.occupancy_for_pressure(r.peak) for r in results
        )
        out[name + "_occupancy_sum"] = metric(occupancy[name], "waves")
        out[name + "_length_sum"] = metric(
            sum(r.length for r in results), "cycles"
        )
    out["two_pass_occupancy_margin"] = metric(
        occupancy.pop("two_pass") - max(occupancy.values()), "waves", "higher"
    )

    ddg = DDG(pattern_region("reduce", random.Random(11), 110))
    relaxed = ACOParams(termination_conditions=(5, 5, 5), max_iterations=8)
    for name, scheduler in (
        ("sequential", SequentialACOScheduler(machine, params=relaxed)),
        (
            "parallel",
            ParallelACOScheduler(
                machine, params=relaxed, gpu_params=GPUParams(blocks=6)
            ),
        ),
    ):
        result = scheduler.schedule(ddg, seed=1)
        out["convergence_%s_length" % name] = metric(result.length, "cycles")
        out["convergence_%s_iterations" % name] = metric(
            result.pass2.iterations, "iterations"
        )

    for batch_size in (2, 4, 8):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=8))
        items = [
            BatchItem(
                ddg=DDG(pattern_region("reduce", random.Random(seed), 30)), seed=seed
            )
            for seed in range(batch_size)
        ]
        batch = scheduler.schedule_batch(items)
        out["batch%d_amortization_speedup" % batch_size] = metric(
            batch.amortization_speedup, "x", "higher"
        )
    return out


class LaunchSink(MemorySink):
    """Keeps only the ``kernel_launch`` records (a few dozen per test-scale
    run): the simulated-device totals :func:`bench_profile` folds."""

    def write(self, record: Dict) -> None:
        if record["event"] == "kernel_launch":
            self.records.append(record)


def _launch_records(context: ExperimentContext) -> List[Dict]:
    """The launches a :class:`LaunchSink` on the context's telemetry kept."""
    sink = context.telemetry.sink
    for candidate in getattr(sink, "sinks", (sink,)):
        if isinstance(candidate, LaunchSink):
            return candidate.records
    return []


def bench_profile(context: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Profiler self-check plus kernel cost attribution rollups.

    Runs last: it reads the span profiler and the kernel launches the
    runner recorded before the other benches populated the context, and
    reconciles the profiled seconds against the compile runs that actually
    executed.
    """
    prof = get_profiler()
    runs = context.computed_runs().values()
    out: Dict[str, Dict[str, object]] = {}
    if prof.enabled:
        att = attribution(prof.root)
        run_seconds = sum(run.total_seconds for run in runs)
        out["profiled_total_seconds"] = metric(att.total_seconds, "s")
        out["leaf_attribution_fraction"] = metric(att.fraction, "ratio", "higher")
        if run_seconds > 0:
            out["profile_coverage_fraction"] = metric(
                att.total_seconds / run_seconds, "ratio", "higher"
            )
    launches = _launch_records(context)
    if launches:
        totals = dict.fromkeys(
            ("kernel_us", "transfer_us", "launch_us", "compute_cycles",
             "memory_cycles", "uniform_cycles"),
            0.0,
        )
        for record in launches:
            totals["kernel_us"] += record["kernel_seconds"] * 1e6
            totals["transfer_us"] += record["transfer_seconds"] * 1e6
            totals["launch_us"] += record["launch_seconds"] * 1e6
            for name in ("compute_cycles", "memory_cycles", "uniform_cycles"):
                totals[name] += record[name]
        out["gpusim_launches"] = metric(len(launches), "count")
        for name, value in totals.items():
            out["gpusim_" + name] = metric(value, "count")
    # The CPU engine's construction counts (the GPU engine reports none).
    steps = ready_scans = 0
    for run in runs:
        for _kernel, outcome in run.all_regions():
            for result in (outcome.pass1, outcome.pass2):
                if result is not None:
                    steps += result.stats.steps
                    ready_scans += result.stats.ready_scans
    if steps:
        out["seq_steps"] = metric(steps, "count")
        out["seq_ready_scans"] = metric(ready_scans, "count")
    return out


#: Name -> extractor. Order matters: ``profile`` reconciles against the
#: context state the earlier benches produced, so it stays last.
BENCHES: Dict[str, Callable[[ExperimentContext], Dict[str, Dict[str, object]]]] = {
    "table2": bench_table2,
    "table3": bench_table3,
    "table5": bench_table5,
    "fig4": bench_fig4,
    "backend": bench_backend,
    "resilience": bench_resilience,
    "obs": bench_obs,
    "scenarios": bench_scenarios,
    "fleet": bench_fleet,
    "ablations": bench_ablations,
    "extensions": bench_extensions,
    "profile": bench_profile,
}


# -- serialization -------------------------------------------------------------


def bench_payload(
    name: str,
    context: ExperimentContext,
    metrics: Dict[str, Dict[str, object]],
    fingerprint: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    return {
        "bench_schema": BENCH_SCHEMA,
        "name": name,
        "scale": context.scale.name,
        "fingerprint": fingerprint
        if fingerprint is not None
        else environment_fingerprint(context.scale),
        "metrics": metrics,
    }


def bench_filename(name: str) -> str:
    return "BENCH_%s.json" % name


def write_bench(out_dir: str, payload: Dict[str, object]) -> str:
    """Write one bench payload; returns the file path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(str(payload["name"])))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_benches(
    context: ExperimentContext,
    names: Optional[List[str]] = None,
    fingerprint: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Run the selected benches (all by default, registry order)."""
    selected = list(BENCHES) if not names else list(names)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise BenchError(
            "unknown bench(es): %s (choose from %s)"
            % (", ".join(unknown), ", ".join(BENCHES))
        )
    if fingerprint is None:
        fingerprint = environment_fingerprint(context.scale)
    payloads = []
    for name in BENCHES:  # registry order, not selection order
        if name not in selected:
            continue
        metrics = BENCHES[name](context)
        payloads.append(bench_payload(name, context, metrics, fingerprint))
    return payloads
