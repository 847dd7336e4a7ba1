"""Tests for deadline enforcement and the hang watchdog in both schedulers."""

import pytest

from repro.aco import SequentialACOScheduler
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.errors import DeviceHangError
from repro.gpusim.faults import FaultPlan
from repro.machine import amd_vega20
from repro.obs import AggregatingSink
from repro.parallel import ParallelACOScheduler
from repro.parallel.scheduler import HANG_SECONDS
from repro.resilience.watchdog import DeadlineBudget
from repro.schedule import validate_schedule
from repro.telemetry import MemorySink, Telemetry

from conftest import make_region


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


@pytest.fixture(scope="module")
def ddg():
    return DDG(make_region("reduce", 3, 14))


def parallel(machine, **kw):
    return ParallelACOScheduler(
        machine,
        params=ACOParams(max_iterations=12),
        gpu_params=GPUParams(blocks=4),
        **kw,
    )


def sequential(machine, **kw):
    return SequentialACOScheduler(machine, params=ACOParams(max_iterations=12), **kw)


class TestSoftDeadline:
    @pytest.mark.parametrize("build", [parallel, sequential], ids=["parallel", "sequential"])
    def test_generous_budget_changes_nothing(self, machine, ddg, build):
        """With room to spare, the budgeted run is bit-identical and the
        schedulers' self-charged spend equals their reported seconds."""
        scheduler = build(machine)
        plain = scheduler.schedule(ddg, seed=5)
        budget = DeadlineBudget(1e6)
        budgeted = scheduler.schedule(ddg, seed=5, budget=budget)
        assert budgeted.schedule.cycles == plain.schedule.cycles
        assert budgeted.seconds == plain.seconds
        # The schedulers charge the budget themselves from the same cost
        # model; incremental charging may reassociate the float sum, so
        # allow rounding noise but nothing more.
        assert budget.spent == pytest.approx(budgeted.seconds, rel=1e-9)
        assert not (budgeted.pass1.deadline_hit or budgeted.pass2.deadline_hit)

    @pytest.mark.parametrize("build", [parallel, sequential], ids=["parallel", "sequential"])
    def test_tight_budget_trips_cleanly(self, machine, ddg, build):
        """A starved region stops early with a partial-but-legal result."""
        aggregating = AggregatingSink()
        scheduler = build(machine, telemetry=Telemetry(sink=aggregating))
        plain = scheduler.schedule(ddg, seed=5)
        budget = DeadlineBudget(plain.seconds / 10.0)
        partial = scheduler.schedule(ddg, seed=5, budget=budget)
        assert partial.pass1.deadline_hit or partial.pass2.deadline_hit
        assert aggregating.aggregator.counters["resilience.deadline_trips"] >= 1
        assert partial.seconds <= plain.seconds
        validate_schedule(partial.schedule, ddg, machine)

    def test_deadline_emits_telemetry(self, machine, ddg):
        sink = MemorySink()
        scheduler = parallel(machine, telemetry=Telemetry(sink=sink))
        plain = scheduler.schedule(ddg, seed=5)
        scheduler.schedule(ddg, seed=5, budget=DeadlineBudget(plain.seconds / 10.0))
        events = sink.by_type("deadline")
        assert events
        assert all(e["deadline_seconds"] > 0 for e in events)
        assert all(e["spent_seconds"] >= e["deadline_seconds"] for e in events)


class TestWatchdog:
    def test_hang_raises_with_checkpoint(self, machine, ddg):
        scheduler = parallel(machine)
        plan = FaultPlan(seed=1, rates={"hang": 1.0})
        budget = DeadlineBudget(1e6)
        with pytest.raises(DeviceHangError) as info:
            scheduler.schedule(ddg, seed=5, fault_plan=plan, budget=budget)
        exc = info.value
        assert exc.checkpoint is not None
        assert exc.checkpoint.region == ddg.region.name
        assert exc.seconds > 0.0
        # The hang burned real budget: at least the heartbeat timeout.
        assert budget.spent >= HANG_SECONDS

    def test_hang_checkpoint_names_engine(self, machine, ddg):
        scheduler = parallel(machine)
        plan = FaultPlan(seed=1, rates={"hang": 1.0})
        with pytest.raises(DeviceHangError) as info:
            scheduler.schedule(ddg, seed=5, fault_plan=plan)
        cp = info.value.checkpoint
        assert cp.backend == scheduler.backend
        assert cp.seed == 5
        assert cp.num_ants == scheduler.gpu_params.total_threads(
            scheduler.device.wavefront_size
        )

    def test_fault_free_run_ignores_plan(self, machine, ddg):
        """An all-zero-rate plan must not perturb the schedule at all."""
        scheduler = parallel(machine)
        plain = scheduler.schedule(ddg, seed=5)
        nulled = scheduler.schedule(ddg, seed=5, fault_plan=FaultPlan(seed=1))
        assert nulled.schedule.cycles == plain.schedule.cycles
        assert nulled.seconds == plain.seconds
