#!/usr/bin/env python3
"""Occupancy rescue: the scenario that motivates the paper's two-pass ACO.

A reduction front end (a wide wave of long-latency loads feeding a
combine tree) floods the ready list
with loads. A greedy non-stalling scheduler must keep issuing
loads while the combines wait on memory latency, so live ranges pile up and the
kernel loses occupancy. The two-pass ACO scheduler finds a low-pressure
order in pass 1 and then, constrained to that pressure, uses optional
stalls in pass 2 to recover schedule length — often strictly dominating the
greedy schedule.

The script also shows the post-scheduling filter's economics and the
modelled execution-time impact.

Run:  python examples/occupancy_rescue.py
"""

import random

from repro import DDG, AMDMaxOccupancyScheduler, ParallelACOScheduler, amd_vega20, evaluate_schedule
from repro.config import GPUParams
from repro.pipeline.filters import PostSchedulingFilter
from repro.suite.patterns import reduction_region


def main():
    machine = amd_vega20()
    region = reduction_region(random.Random(11), 140, "reduce_140")
    ddg = DDG(region)

    amd = AMDMaxOccupancyScheduler(machine)
    heuristic = amd.schedule(ddg)
    hq = evaluate_schedule(heuristic, machine)
    print("Greedy AMD-style baseline:")
    print(
        "  length %d cycles, VGPR peak %d -> occupancy %d/10"
        % (hq.length, hq.pressure_dict[list(hq.pressure_dict)[-1]], hq.occupancy)
    )

    scheduler = ParallelACOScheduler(machine, gpu_params=GPUParams(blocks=8))
    result = scheduler.schedule(
        ddg, seed=1, initial_order=heuristic.order, reference_schedule=heuristic
    )
    aq = evaluate_schedule(result.schedule, machine)
    print("Two-pass parallel ACO:")
    print(
        "  length %d cycles, peak %s -> occupancy %d/10"
        % (aq.length, {str(c): v for c, v in aq.peak_pressure}, aq.occupancy)
    )
    print(
        "  pass 1: %d iterations (invoked=%s); pass 2: %d iterations (invoked=%s)"
        % (
            result.pass1.iterations,
            result.pass1.invoked,
            result.pass2.iterations,
            result.pass2.invoked,
        )
    )

    post = PostSchedulingFilter()
    keep = post.keep_aco(aq.occupancy, aq.length, hq.occupancy, hq.length)
    print(
        "Post-scheduling filter: occupancy %+d for %+d cycles -> %s"
        % (
            aq.occupancy - hq.occupancy,
            aq.length - hq.length,
            "keep the ACO schedule" if keep else "revert to the heuristic",
        )
    )

    # Modelled execution impact for a memory-bound kernel built from this
    # region: exposed stalls scale with 10/occupancy.
    mu = 1.5
    def exec_time(q):
        return q.length * (1.0 + 0.9 * mu * (10.0 / max(1, q.occupancy) - 1.0))

    base_time, aco_time = exec_time(hq), exec_time(aq)
    print(
        "Modelled kernel time (memory intensity %.1f): baseline %.0f units, "
        "ACO %.0f units -> %.1f%% faster"
        % (mu, base_time, aco_time, 100.0 * (base_time - aco_time) / base_time)
    )


if __name__ == "__main__":
    main()
