"""repro — a full reproduction of *Instruction Scheduling for the GPU on
the GPU* (Shobaki et al., CGO 2024) in Python.

The package implements the paper's GPU-parallel Ant Colony Optimization
scheduler for the register-pressure-aware instruction scheduling problem,
together with every substrate it needs: a virtual-register IR, dependence
graphs with transitive closure and lower bounds, an AMD-Vega-like machine
model with occupancy tables and the APRP cost function, greedy baseline
schedulers, a lockstep SIMT simulator standing in for the Radeon VII, a
synthetic rocPRIM-like benchmark suite, the selective compile pipeline, and
an experiment harness that regenerates every table and figure of the
paper's evaluation.

Quickstart::

    from repro import (
        RegionBuilder, DDG, amd_vega20,
        AMDMaxOccupancyScheduler, SequentialACOScheduler, ParallelACOScheduler,
    )

    b = RegionBuilder("example")
    b.inst("global_load", defs=["v0"])
    b.inst("global_load", defs=["v1"])
    b.inst("v_add_f32", defs=["v2"], uses=["v0", "v1"])
    region = b.live_out("v2").build()

    machine = amd_vega20()
    ddg = DDG(region)
    result = ParallelACOScheduler(machine).schedule(ddg)
    print(result.schedule.length, result.peak)

See ``examples/`` for runnable end-to-end scenarios and ``python -m repro
all`` for the paper's evaluation.
"""

from .config import ACOParams, FilterParams, GPUParams, SuiteParams
from .ddg import DDG, TransitiveClosure, region_bounds
from .errors import ReproError
from .heuristics import (
    AMDMaxOccupancyScheduler,
    CriticalPathHeuristic,
    LastUseCountHeuristic,
    list_schedule,
    order_schedule,
)
from .ir import RegionBuilder, SchedulingRegion, format_region, format_schedule, parse_region
from .machine import MachineModel, OccupancyTable, amd_vega20, simple_test_target
from .aco import SequentialACOScheduler
from .parallel import ParallelACOScheduler
from .pipeline import CompilePipeline
from .rp import evaluate_schedule, peak_pressure
from .schedule import Schedule, validate_schedule
from .suite import generate_suite

__version__ = "1.0.0"

__all__ = [
    "ACOParams",
    "FilterParams",
    "GPUParams",
    "SuiteParams",
    "DDG",
    "TransitiveClosure",
    "region_bounds",
    "ReproError",
    "AMDMaxOccupancyScheduler",
    "CriticalPathHeuristic",
    "LastUseCountHeuristic",
    "list_schedule",
    "order_schedule",
    "RegionBuilder",
    "SchedulingRegion",
    "format_region",
    "format_schedule",
    "parse_region",
    "MachineModel",
    "OccupancyTable",
    "amd_vega20",
    "simple_test_target",
    "SequentialACOScheduler",
    "ParallelACOScheduler",
    "CompilePipeline",
    "evaluate_schedule",
    "peak_pressure",
    "Schedule",
    "validate_schedule",
    "generate_suite",
    "__version__",
]
