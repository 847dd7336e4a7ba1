"""End-to-end tests on non-SSA regions (redefinitions, anti/output deps).

The suite generator emits SSA-ish regions, so these hand-built regions
cover the other half of the DDG builder and the kill-before-def guards in
both pressure trackers: accumulators updated in place, registers
redefined after use, and write-after-write chains.
"""

import numpy as np
import pytest

from repro.aco import SequentialACOScheduler
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.ddg.graph import DepKind
from repro.gpusim import GPUDevice, KernelAccounting
from repro.heuristics import AMDMaxOccupancyScheduler, CriticalPathHeuristic, list_schedule
from repro.ir import RegionBuilder
from repro.ir.registers import VGPR
from repro.machine import amd_vega20, simple_test_target
from repro.parallel import DivergencePolicy, ParallelACOScheduler, RegionDeviceData, VectorizedColony
from repro.rp import PressureTracker, peak_pressure
from repro.schedule import validate_schedule


@pytest.fixture
def accumulate_in_place():
    """v0 += ... three times: flow+anti+output deps around one register."""
    b = RegionBuilder("accumulate")
    b.inst("v_mov", defs=["v0"])
    b.inst("global_load", defs=["v1"])
    b.inst("v_add", defs=["v0"], uses=["v0", "v1"])
    b.inst("global_load", defs=["v2"])
    b.inst("v_add", defs=["v0"], uses=["v0", "v2"])
    b.inst("global_store", uses=["v0"])
    return b.live_out().build()


@pytest.fixture
def redefinition_region():
    """v0 defined, used, then redefined for an unrelated computation."""
    b = RegionBuilder("redef")
    b.inst("op2", defs=["v0"])
    b.inst("op1", defs=["v1"], uses=["v0"])
    b.inst("op2", defs=["v0"])  # reuse the name
    b.inst("op1", defs=["v2"], uses=["v0", "v1"])
    return b.live_out("v2").build()


class TestDependences:
    def test_accumulator_chain_is_serialized(self, accumulate_in_place):
        ddg = DDG(accumulate_in_place)
        # The three defs of v0 form an output-dependence chain; the adds
        # also flow-depend on the previous value.
        kinds = {(e.src, e.dst, e.kind) for e in ddg.edges}
        assert (0, 2, DepKind.FLOW) in kinds
        assert (0, 2, DepKind.OUTPUT) in kinds
        assert (2, 4, DepKind.FLOW) in kinds

    def test_redefinition_creates_anti_dep(self, redefinition_region):
        ddg = DDG(redefinition_region)
        kinds = {(e.src, e.dst): e.kind for e in ddg.edges if e.kind is DepKind.ANTI}
        assert (1, 2) in kinds  # the reader of v0 must precede the redef

    def test_no_false_reordering(self, redefinition_region, vega):
        """Any legal schedule keeps the reader before the redefinition."""
        ddg = DDG(redefinition_region)
        schedule = list_schedule(ddg, vega, heuristic=CriticalPathHeuristic())
        assert schedule.cycles[1] < schedule.cycles[2]
        validate_schedule(schedule, ddg, vega)


class TestPressureOnNonSSA:
    def test_in_place_accumulation_uses_one_register(self, accumulate_in_place):
        ddg = DDG(accumulate_in_place)
        amd = AMDMaxOccupancyScheduler(amd_vega20())
        schedule = amd.schedule(ddg)
        # v0 is one live range through the region; loads add at most one
        # more concurrently under any legal order here.
        assert peak_pressure(schedule)[VGPR] <= 3

    def test_schedulers_agree_on_peak_accounting(self, redefinition_region):
        """Sequential and parallel pressure accounting must agree with the
        liveness recomputation on non-SSA inputs too."""
        machine = simple_test_target()
        ddg = DDG(redefinition_region)
        seq = SequentialACOScheduler(machine).schedule(ddg, seed=1)
        assert seq.peak == peak_pressure(seq.schedule)
        par = ParallelACOScheduler(machine, gpu_params=GPUParams(blocks=1)).schedule(
            ddg, seed=1
        )
        assert par.peak == peak_pressure(par.schedule)
        validate_schedule(par.schedule, ddg, machine)

    @pytest.mark.xfail(
        strict=True,
        reason="the pass-2 preview counts a def of an already-live register "
        "(defs_per_class) as opening a range; the tracker does not",
    )
    def test_preview_of_live_redefinition_matches_tracker(self, redefinition_region):
        """After 0 and 1, instruction 2 redefines v0 while v0 is still live
        (instruction 3 reads it): the tracker previews 2 VGPRs, the
        colonies' static def count previews 3."""
        vega = amd_vega20()
        ddg = DDG(redefinition_region)
        policy = DivergencePolicy.from_params(GPUParams(blocks=1), GPUDevice().wavefront_size)
        colony = VectorizedColony(
            RegionDeviceData(ddg, vega),
            ACOParams(),
            policy,
            KernelAccounting(GPUDevice(), policy.num_wavefronts, coalesced=True),
            1,
        )
        tracker = PressureTracker(redefinition_region)
        colony._reset()
        everyone = np.ones(colony.num_ants, dtype=bool)
        for step, inst in enumerate((0, 1)):
            tracker.schedule(redefinition_region[inst])
            sel = np.argmax(colony.avail_ids == inst, axis=1)
            chosen = colony._remove_from_avail(everyone, sel)
            colony._schedule_chosen(everyone, chosen, cycle=step)
        col = int(np.argmax(colony.avail_ids[0] == 2))
        target = np.zeros(colony.data.num_classes, dtype=np.int64)
        excess = colony._candidate_excess(colony.avail_ids >= 0, target)
        tracked = tracker.pressure_if_scheduled(redefinition_region[2])[VGPR]
        assert tracked == 2
        # With a zero target the excess is the previewed VGPR pressure.
        assert int(excess[0, col]) == tracked


class TestEndToEnd:
    def test_pipeline_compiles_non_ssa(self, accumulate_in_place):
        from repro.pipeline import CompilePipeline

        machine = simple_test_target()
        pipeline = CompilePipeline(
            machine, scheduler=SequentialACOScheduler(machine)
        )
        outcome = pipeline.compile_region(DDG(accumulate_in_place))
        validate_schedule(outcome.schedule, DDG(accumulate_in_place), machine)

    def test_exact_solver_handles_non_ssa(self, redefinition_region):
        from repro.exact import min_length_schedule, min_pressure_order
        from repro.rp import rp_cost
        from repro.schedule import Schedule

        machine = simple_test_target()
        ddg = DDG(redefinition_region)
        order, cost = min_pressure_order(ddg, machine)
        schedule = Schedule.from_order(ddg.region, order)
        validate_schedule(schedule, ddg, respect_latencies=False)
        assert rp_cost(peak_pressure(schedule), machine) == cost
        optimal = min_length_schedule(ddg, machine)
        validate_schedule(optimal, ddg, machine)
