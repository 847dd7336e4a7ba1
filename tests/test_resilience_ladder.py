"""Tests for the retry ladder, pipeline integration, batches and the CLI."""

import pytest

from repro.aco import SequentialACOScheduler
from repro.config import ACOParams, FilterParams, GPUParams, ResilienceParams
from repro.ddg import DDG
from repro.errors import RegionUnrecoverable
from repro.gpusim.faults import FaultPlan
from repro.machine import amd_vega20
from repro.obs import AggregatingSink, render_resilience
from repro.parallel import BatchItem, MultiRegionScheduler, ParallelACOScheduler
from repro.pipeline import CompilePipeline, FilterDecision
from repro.resilience.ladder import (
    HEURISTIC_RUNG,
    _scheduler_for_rung,
    ladder_rungs,
    schedule_with_resilience,
)
from repro.schedule import validate_schedule
from repro.telemetry import MemorySink, TeeSink, Telemetry

from conftest import make_region


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


@pytest.fixture(scope="module")
def ddg():
    return DDG(make_region("stencil", 4, 14))


def parallel(machine, **kw):
    return ParallelACOScheduler(
        machine,
        params=ACOParams(max_iterations=12),
        gpu_params=GPUParams(blocks=4),
        **kw,
    )


def counting():
    """A telemetry whose events fold into ``telemetry.sink.aggregator``."""
    return Telemetry(sink=AggregatingSink())


class TestRungs:
    def test_vectorized_entry(self, machine):
        assert ladder_rungs(parallel(machine)) == (
            "vectorized", "loop", "sequential", HEURISTIC_RUNG,
        )

    def test_loop_entry(self, machine):
        assert ladder_rungs(parallel(machine, backend="loop")) == (
            "loop", "sequential", HEURISTIC_RUNG,
        )

    def test_sequential_entry(self, machine):
        assert ladder_rungs(SequentialACOScheduler(machine)) == (
            "sequential", HEURISTIC_RUNG,
        )

    @pytest.mark.parametrize(
        "base_kw",
        [
            {},
            {"backend": "loop"},
            {"gpu_params": GPUParams(blocks=4)},
        ],
        ids=["vectorized-entry", "loop-entry", "gpu-params"],
    )
    def test_degraded_rungs_keep_the_configuration(self, machine, base_kw):
        """Every engine rung runs the base scheduler's parameters (and so
        its strategy), device settings and verify flag: degrading a region
        to another engine must not switch MMAS back to the Ant System."""
        params = ACOParams(strategy="mmas")
        base = ParallelACOScheduler(machine, params=params, verify=True, **base_kw)
        for rung in ladder_rungs(base)[:-1]:
            engine = _scheduler_for_rung(base, rung)
            assert engine.backend == rung
            assert engine.params is params, rung
            assert engine.verify_enabled, rung
            if rung != "sequential":
                assert engine.gpu_params is base.gpu_params, rung


class TestLadder:
    def test_clean_run_single_attempt(self, machine, ddg):
        tele = counting()
        outcome = schedule_with_resilience(
            parallel(machine, telemetry=tele), ddg, 5, ResilienceParams()
        )
        assert outcome.clean
        assert outcome.rung == "vectorized"
        assert outcome.attempts == 1
        assert render_resilience(tele.sink.aggregator) is None

    def test_launch_faults_degrade_to_cpu(self, machine, ddg):
        """Rate-1.0 launch failures kill both GPU engines; the CPU rung
        (no device, no fault sites) rescues the region."""
        sink = MemorySink()
        aggregating = AggregatingSink()
        outcome = schedule_with_resilience(
            parallel(machine, telemetry=Telemetry(sink=TeeSink(sink, aggregating))),
            ddg, 5, ResilienceParams(max_retries=1),
            fault_plan=FaultPlan(seed=1, rates={"launch": 1.0}),
        )
        assert outcome.result is not None
        assert outcome.rung == "sequential"
        # Two attempts each on the vectorized and loop rungs, all faulted.
        assert [f[0] for f in outcome.faults] == ["launch"] * 4
        assert [f[1] for f in outcome.faults] == [
            "vectorized", "vectorized", "loop", "loop",
        ]
        counters = aggregating.aggregator.counters
        assert counters["resilience.faults.total"] == 4
        assert counters["resilience.faults.launch"] == 4
        assert counters["resilience.degrades"] == 2
        assert len(sink.by_type("fault")) == 4
        assert len(sink.by_type("degrade")) == 2
        assert len(sink.by_type("retry")) == outcome.attempts - 1
        validate_schedule(outcome.result.schedule, ddg, machine)

    def test_oom_rescued_by_sequential(self, machine, ddg):
        outcome = schedule_with_resilience(
            parallel(machine), ddg, 5,
            ResilienceParams(max_retries=0),
            fault_plan=FaultPlan(seed=1, rates={"oom": 1.0}),
        )
        assert outcome.result is not None
        assert outcome.rung == "sequential"
        assert all(f[0] == "oom" for f in outcome.faults)

    def test_hang_recovers_by_resume(self, machine, ddg):
        tele = counting()
        outcome = schedule_with_resilience(
            parallel(machine, telemetry=tele), ddg, 5,
            ResilienceParams(max_retries=2),
            fault_plan=FaultPlan(seed=1, rates={"hang": 1.0}),
        )
        assert outcome.result is not None
        assert outcome.resumed_attempts >= 1
        assert tele.sink.aggregator.counters["resilience.checkpoint_resumes"] >= 1
        validate_schedule(outcome.result.schedule, ddg, machine)

    def test_no_degrade_raises_unrecoverable(self, machine, ddg):
        resilience = ResilienceParams(max_retries=1, degrade=False)
        with pytest.raises(RegionUnrecoverable) as info:
            schedule_with_resilience(
                parallel(machine), ddg, 5, resilience,
                fault_plan=FaultPlan(seed=1, rates={"launch": 1.0}),
            )
        assert len(info.value.causes) == 2  # 1 + max_retries attempts
        assert info.value.spent_seconds > 0.0

    def test_exhausted_budget_goes_straight_to_heuristic(self, machine, ddg):
        """Faults that burn the whole deadline skip the remaining engine
        rungs — no attempt can succeed with an exhausted budget."""
        launch_cost = parallel(machine).device.cost.launch_overhead
        resilience = ResilienceParams(
            max_retries=0, deadline_seconds=launch_cost * 0.5
        )
        tele = counting()
        outcome = schedule_with_resilience(
            parallel(machine, telemetry=tele), ddg, 5, resilience,
            fault_plan=FaultPlan(seed=1, rates={"launch": 1.0}),
        )
        assert outcome.degraded
        assert outcome.rung == HEURISTIC_RUNG
        counters = tele.sink.aggregator.counters
        assert counters["resilience.degrade.loop_to_heuristic"] == 1  # skips sequential

    def test_seed_rotation_redraws_fault_sites(self, machine, ddg):
        """With a 50% launch rate, retries must eventually pass — the
        attempt number is part of the fault site."""
        outcome = schedule_with_resilience(
            parallel(machine), ddg, 5,
            ResilienceParams(max_retries=3),
            fault_plan=FaultPlan(seed=12, rates={"launch": 0.5}),
        )
        assert outcome.result is not None


class TestPipeline:
    def _pipeline(self, machine, resilience=None, telemetry=None):
        return CompilePipeline(
            machine,
            scheduler=parallel(machine, telemetry=telemetry),
            filters=FilterParams(cycle_threshold=0),
            telemetry=telemetry,
            resilience=resilience,
        )

    def test_fault_free_ladder_is_bit_identical(self, machine):
        """The ladder armed by a deadline that never binds, no faults:
        every region's outcome matches the plain pipeline exactly."""
        regions = [DDG(make_region("reduce", s, 12 + s)) for s in range(3)]
        plain = self._pipeline(machine)
        tele = counting()
        laddered = self._pipeline(machine, ResilienceParams(deadline_seconds=1e9), tele)
        for ddg in regions:
            a = plain.compile_region(ddg, seed=7)
            b = laddered.compile_region(ddg, seed=7)
            assert b.decision == a.decision
            assert b.schedule.cycles == a.schedule.cycles
            assert b.scheduling_seconds == pytest.approx(
                a.scheduling_seconds, rel=1e-9
            )
            assert render_resilience(tele.sink.aggregator) is None

    def test_chaos_compile_ships_every_region(self, machine):
        """Under heavy chaos every region still gets a legal schedule."""
        resilience = ResilienceParams(chaos_seed=42, max_retries=2)
        pipeline = self._pipeline(machine, resilience)
        for s in range(3):
            ddg = DDG(make_region("sort", s, 12 + s))
            outcome = pipeline.compile_region(ddg, seed=s)
            assert outcome.schedule is not None
            validate_schedule(outcome.schedule, ddg, machine)
            assert isinstance(outcome.decision, FilterDecision)

    def test_degraded_region_ships_heuristic(self, machine, monkeypatch):
        """Guaranteed faults + a budget too small to survive them degrade
        the region to its heuristic schedule, and the decision says so."""
        import repro.resilience.ladder as ladder_mod

        monkeypatch.setattr(
            ladder_mod.FaultPlan,
            "from_seed",
            classmethod(lambda cls, seed, rates=None: FaultPlan(
                seed=seed, rates={"launch": 1.0}
            )),
        )
        launch_cost = parallel(machine).device.cost.launch_overhead
        resilience = ResilienceParams(
            max_retries=0,
            deadline_seconds=launch_cost * 0.5,
            chaos_seed=1,
        )
        tele = counting()
        pipeline = self._pipeline(machine, resilience, tele)
        ddg = DDG(make_region("stencil", 4, 14))
        outcome = pipeline.compile_region(ddg, seed=5)
        assert outcome.decision is FilterDecision.DEGRADED
        assert tele.sink.aggregator.counters["regions.decision.degraded"] == 1
        assert outcome.schedule is not None
        validate_schedule(outcome.schedule, ddg, machine)

    def test_unrecoverable_decision(self, machine, monkeypatch):
        """degrade=False + guaranteed faults -> UNRECOVERABLE decision,
        heuristic schedule still shipped."""
        resilience = ResilienceParams(
            max_retries=0, degrade=False, chaos_seed=1
        )
        tele = counting()
        pipeline = self._pipeline(machine, resilience, tele)
        # Guarantee the fault: make the ladder's derived plan all-launch.
        import repro.resilience.ladder as ladder_mod

        monkeypatch.setattr(
            ladder_mod.FaultPlan,
            "from_seed",
            classmethod(lambda cls, seed, rates=None: FaultPlan(
                seed=seed, rates={"launch": 1.0}
            )),
        )
        ddg = DDG(make_region("stencil", 4, 14))
        outcome = pipeline.compile_region(ddg, seed=5)
        assert outcome.decision is FilterDecision.UNRECOVERABLE
        assert outcome.schedule is not None  # the heuristic still ships
        validate_schedule(outcome.schedule, ddg, machine)
        aggregator = tele.sink.aggregator
        assert aggregator.counters["regions.decision.unrecoverable"] == 1
        assert aggregator.unrecoverable_regions == [ddg.region.name]


class TestMultiRegionBatches:
    def _items(self, count=3):
        return [
            BatchItem(ddg=DDG(make_region("reduce", s, 10 + s)), seed=s)
            for s in range(count)
        ]

    def test_fault_free_batch_keeps_historical_shape(self, machine):
        batch = MultiRegionScheduler(machine).schedule_batch(self._items())
        assert batch.errors == (None, None, None)
        assert batch.failed_regions == 0
        assert len(batch.scheduled) == 3

    def test_failed_region_does_not_abort_batch(self, machine):
        plan = FaultPlan(seed=1, rates={"launch": 1.0})
        tele = counting()
        batch = MultiRegionScheduler(machine, telemetry=tele).schedule_batch(
            self._items(), fault_plan=plan
        )
        assert batch.failed_regions == 3
        assert all(e and e.startswith("launch:") for e in batch.errors)
        assert tele.sink.aggregator.counters["resilience.faults.launch"] == 3
        assert batch.scheduled == ()

    def test_resilient_batch_rescues_every_region(self, machine):
        plan = FaultPlan(seed=1, rates={"launch": 1.0})
        # The chaos seed arms the ladder; the explicit plan overrides the
        # seed's default-rate plan.
        resilience = ResilienceParams(chaos_seed=1, max_retries=1)
        tele = counting()
        batch = MultiRegionScheduler(machine, telemetry=tele).schedule_batch(
            self._items(), fault_plan=plan, resilience=resilience
        )
        assert batch.failed_regions == 0
        assert batch.errors == (None, None, None)
        assert tele.sink.aggregator.counters["resilience.degrades"] >= 3
        # CPU rescues count as serial host time.
        assert batch.seconds > 0.0
        for item, result in zip(self._items(), batch.results):
            validate_schedule(result.schedule, item.ddg, machine)

    def test_one_cpu_rescue_in_a_device_batch(self, machine):
        """One slot is rescued by the sequential rung while the other two
        ship from the device: the rescue's seconds add to the batch as
        serial host time and the device slots batch as usual. The times
        are pinned to the bit."""
        plan = FaultPlan(seed=1, rates={"oom": 0.6})
        resilience = ResilienceParams(chaos_seed=1, max_retries=0)
        batch = MultiRegionScheduler(machine).schedule_batch(
            self._items(), fault_plan=plan, resilience=resilience
        )
        assert batch.final_backends == ("sequential", "vectorized", "vectorized")
        assert batch.errors == (None, None, None)
        assert batch.seconds.hex() == "0x1.ab6c7b15539f8p-14"
        assert batch.unbatched_seconds.hex() == "0x1.6aeae7db9afe4p-13"
