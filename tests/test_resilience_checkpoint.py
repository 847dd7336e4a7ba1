"""Checkpoint serialization and resume-equivalence tests.

The load-bearing property: a run interrupted by a hang and resumed from
its checkpoint lands on the *same* final schedule as the uninterrupted
run — checkpoint/resume is a pure recovery mechanism, never a behavior
change. Serialization must round-trip bit-identically for that to hold
across process boundaries.
"""

import numpy as np
import pytest

from repro.aco import SequentialACOScheduler
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.errors import DeviceHangError, ResilienceError
from repro.gpusim.faults import FaultPlan
from repro.machine import amd_vega20
from repro.parallel import ParallelACOScheduler
from repro.resilience.checkpoint import CHECKPOINT_VERSION, RegionCheckpoint
from repro.schedule import validate_schedule

from conftest import make_region


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


@pytest.fixture(scope="module")
def ddg():
    return DDG(make_region("sort", 2, 14))


def parallel(machine, backend="vectorized"):
    return ParallelACOScheduler(
        machine,
        params=ACOParams(max_iterations=12),
        gpu_params=GPUParams(blocks=4),
        backend=backend,
    )


def interrupt(scheduler, ddg, seed=5) -> RegionCheckpoint:
    """Run under a certain-hang plan and return the watchdog's checkpoint."""
    with pytest.raises(DeviceHangError) as info:
        scheduler.schedule(ddg, seed=seed, fault_plan=FaultPlan(seed=1, rates={"hang": 1.0}))
    assert info.value.checkpoint is not None
    return info.value.checkpoint


class TestSerialization:
    def test_json_round_trip_is_bit_identical(self, machine, ddg):
        cp = interrupt(parallel(machine), ddg)
        text = cp.to_json()
        back = RegionCheckpoint.from_json(text)
        assert back.to_json() == text
        assert np.array_equal(back.tau, cp.tau)
        assert back.tau.tobytes() == cp.tau.tobytes()
        assert back.best_order == cp.best_order
        assert back.best_peak == cp.best_peak
        assert back.rng_state == cp.rng_state

    def test_unknown_version_rejected(self, machine, ddg):
        payload = interrupt(parallel(machine), ddg).to_payload()
        payload["checkpoint_version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ResilienceError):
            RegionCheckpoint.from_payload(payload)

    @pytest.mark.parametrize("pass_index", [0, 3])
    def test_unknown_pass_index_rejected(self, machine, ddg, pass_index):
        payload = interrupt(parallel(machine), ddg).to_payload()
        payload["pass_index"] = pass_index
        with pytest.raises(ResilienceError, match="pass_index"):
            RegionCheckpoint.from_payload(payload)

    def test_pass2_without_pass1_rejected(self, machine, ddg):
        payload = interrupt(parallel(machine), ddg).to_payload()
        payload["pass_index"] = 2
        payload["pass1"] = None
        with pytest.raises(ResilienceError, match="pass-1"):
            RegionCheckpoint.from_payload(payload)

    def test_exact_rng_resume_requires_population_match(self, machine, ddg):
        cp = interrupt(parallel(machine), ddg)
        assert cp.exact_rng_resume(cp.num_ants)
        assert not cp.exact_rng_resume(cp.num_ants + 1)
        cp.rng_state = None
        assert not cp.exact_rng_resume(cp.num_ants)


class TestResumeEquivalence:
    def test_resumed_equals_uninterrupted(self, machine, ddg):
        """Hang, resume from the checkpoint, land on the identical result."""
        scheduler = parallel(machine)
        uninterrupted = scheduler.schedule(ddg, seed=5)
        cp = interrupt(parallel(machine), ddg)
        resumed = parallel(machine).schedule(ddg, seed=cp.seed, resume=cp)
        assert resumed.schedule.cycles == uninterrupted.schedule.cycles
        assert resumed.schedule.order == uninterrupted.schedule.order
        # The resumed run repeats no completed iterations.
        total_resumed = resumed.pass1.iterations + resumed.pass2.iterations
        total_plain = uninterrupted.pass1.iterations + uninterrupted.pass2.iterations
        assert total_resumed == total_plain

    def test_serialized_resume_equals_uninterrupted(self, machine, ddg):
        """Same equivalence across a JSON round trip (process boundary)."""
        uninterrupted = parallel(machine).schedule(ddg, seed=5)
        cp = RegionCheckpoint.from_json(interrupt(parallel(machine), ddg).to_json())
        resumed = parallel(machine).schedule(ddg, seed=cp.seed, resume=cp)
        assert resumed.schedule.cycles == uninterrupted.schedule.cycles

    def test_cross_backend_resume_is_exact(self, machine, ddg):
        """The loop engine continues a vectorized checkpoint draw-for-draw
        (both engines share spawn-indexed RNG streams by construction)."""
        uninterrupted = parallel(machine).schedule(ddg, seed=5)
        cp = interrupt(parallel(machine, "vectorized"), ddg)
        resumed = parallel(machine, "loop").schedule(ddg, seed=cp.seed, resume=cp)
        assert resumed.schedule.cycles == uninterrupted.schedule.cycles

    def test_partial_resume_into_sequential(self, machine, ddg):
        """Degrading to the CPU engine keeps the search's progress (tau,
        best, counters) even though the RNG cannot continue exactly."""
        cp = interrupt(parallel(machine), ddg)
        sequential = SequentialACOScheduler(machine, params=ACOParams(max_iterations=12))
        result = sequential.schedule(ddg, seed=cp.seed, resume=cp)
        validate_schedule(result.schedule, ddg, machine)
        # The resumed search can only match or beat the checkpointed best.
        final_cost = result.pass2.final_cost
        if cp.pass_index == 2:
            assert final_cost <= cp.best_cost

    def test_wrong_region_rejected(self, machine, ddg):
        cp = interrupt(parallel(machine), ddg)
        other = DDG(make_region("scan", 9, 12))
        with pytest.raises(ResilienceError):
            parallel(machine).schedule(other, seed=cp.seed, resume=cp)
