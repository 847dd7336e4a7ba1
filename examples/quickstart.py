#!/usr/bin/env python3
"""Quickstart: schedule one region three ways.

Builds the paper's Figure 1 running example plus a custom region, then
schedules each with the AMD-style greedy baseline, the sequential two-pass
ACO scheduler (CPU) and the GPU-parallel ACO scheduler (simulated device),
printing the schedules and their quality metrics.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace quickstart.jsonl

With ``--trace`` the run also records a JSONL telemetry trace (every ACO
iteration and simulated kernel launch) and prints its profile — the
smallest end-to-end demo of the observability layer.
"""

from repro import (
    DDG,
    AMDMaxOccupancyScheduler,
    ParallelACOScheduler,
    RegionBuilder,
    SequentialACOScheduler,
    amd_vega20,
    evaluate_schedule,
    format_schedule,
    simple_test_target,
)
from repro.config import GPUParams
from repro.ir.builder import figure1_region
from repro.telemetry import JSONLSink, Telemetry


def build_custom_region():
    """A small load/compute block: four loads feeding a combine tree."""
    b = RegionBuilder("custom")
    for i in range(4):
        b.inst("global_load", defs=["v%d" % i])
    b.inst("v_add_f32", defs=["v4"], uses=["v0", "v1"])
    b.inst("v_add_f32", defs=["v5"], uses=["v2", "v3"])
    b.inst("v_mul_f32", defs=["v6"], uses=["v4", "v5"])
    b.inst("global_store", uses=["v6"])
    return b.build()


def show(name, schedule, machine):
    quality = evaluate_schedule(schedule, machine)
    print("--- %s ---" % name)
    print(format_schedule(schedule))
    print(
        "length %d | peak pressure %s | occupancy %d/%d\n"
        % (
            quality.length,
            {str(cls): prp for cls, prp in quality.peak_pressure},
            quality.occupancy,
            machine.max_occupancy,
        )
    )


def main(telemetry=None):
    """Schedule both regions; every ACO scheduler reports to ``telemetry``."""
    # The tiny test target makes the RP/ILP trade-off visible on a
    # 7-instruction example (occupancy steps at 3/4/6/8 VGPRs).
    machine = simple_test_target()
    region = figure1_region()
    ddg = DDG(region)
    print("=== Figure 1 of the paper, on the tiny target ===\n")

    amd = AMDMaxOccupancyScheduler(machine)
    show("AMD max-occupancy baseline", amd.schedule(ddg), machine)

    seq = SequentialACOScheduler(machine, telemetry=telemetry).schedule(ddg, seed=42)
    show("Sequential two-pass ACO (CPU)", seq.schedule, machine)
    print(
        "pass 1: invoked=%s iterations=%d | pass 2: invoked=%s iterations=%d | "
        "modelled CPU time %.1f us\n"
        % (
            seq.pass1.invoked,
            seq.pass1.iterations,
            seq.pass2.invoked,
            seq.pass2.iterations,
            seq.seconds * 1e6,
        )
    )

    par = ParallelACOScheduler(
        machine, gpu_params=GPUParams(blocks=4), telemetry=telemetry
    ).schedule(ddg, seed=42)
    show("Parallel ACO (256 ants on the simulated GPU)", par.schedule, machine)
    print(
        "modelled GPU time %.1f us (kernel %.1f + transfer %.1f + launch %.1f)\n"
        % (
            par.seconds * 1e6,
            (par.pass1.kernel_seconds + par.pass2.kernel_seconds) * 1e6,
            (par.pass1.transfer_seconds + par.pass2.transfer_seconds) * 1e6,
            (par.pass1.launch_seconds + par.pass2.launch_seconds) * 1e6,
        )
    )

    print("=== A custom region on the full Vega 20 model ===\n")
    vega = amd_vega20()
    custom = DDG(build_custom_region())
    show("AMD baseline", AMDMaxOccupancyScheduler(vega).schedule(custom), vega)
    result = ParallelACOScheduler(
        vega, gpu_params=GPUParams(blocks=4), telemetry=telemetry
    ).schedule(custom, seed=0)
    show("Parallel ACO", result.schedule, vega)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a JSONL telemetry trace of the run and print its profile",
    )
    args = parser.parse_args()

    if args.trace:
        from repro.obs import summarize_trace

        telemetry = Telemetry(sink=JSONLSink(args.trace))
        try:
            main(telemetry)
        finally:
            telemetry.close()
        print("=== Telemetry trace (%s) ===\n" % args.trace)
        print(summarize_trace(args.trace))
    else:
        main()
