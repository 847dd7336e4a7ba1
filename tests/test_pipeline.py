"""Tests for the compile pipeline, filters and statistics."""

import pytest
from hypothesis import given, settings

from repro.aco import SequentialACOScheduler
from repro.config import FilterParams, SuiteParams
from repro.ddg import DDG
from repro.machine import amd_vega20, simple_test_target
from repro.pipeline import (
    CompilePipeline,
    FilterDecision,
    InvocationFilter,
    PostSchedulingFilter,
    improvement_statistics,
    suite_statistics,
)
from repro.schedule import validate_schedule
from repro.suite import generate_suite

from conftest import ddgs, make_region


@pytest.fixture(scope="module")
def small_suite():
    return generate_suite(
        SuiteParams(num_benchmarks=6, num_kernels=6, regions_per_kernel=3),
        max_region_size=60,
    )


@pytest.fixture(scope="module")
def vega_module():
    return amd_vega20()


@pytest.fixture(scope="module")
def aco_run(small_suite, vega_module):
    pipeline = CompilePipeline(
        vega_module,
        scheduler=SequentialACOScheduler(vega_module),
        filters=FilterParams(cycle_threshold=0),
    )
    return pipeline.compile_suite(small_suite)


class TestInvocationFilter:
    def test_rp_room_invokes(self):
        f = InvocationFilter(FilterParams(cycle_threshold=21))
        assert f.should_invoke(10, 5, 100, 100)

    def test_length_gap_over_threshold_invokes(self):
        f = InvocationFilter(FilterParams(cycle_threshold=21))
        assert f.should_invoke(5, 5, 130, 100)
        assert not f.should_invoke(5, 5, 120, 100)  # gap 20 <= 21

    def test_skip_decision_kinds(self):
        f = InvocationFilter(FilterParams(cycle_threshold=21))
        assert f.decision_for_skip(100, 100) is FilterDecision.SKIPPED_OPTIMAL
        assert f.decision_for_skip(110, 100) is FilterDecision.SKIPPED_THRESHOLD


class TestPostSchedulingFilter:
    def _filter(self):
        return PostSchedulingFilter()

    def test_keeps_strict_improvement(self):
        assert self._filter().keep_aco(10, 90, 8, 100)

    def test_keeps_fair_trade(self):
        # +1 occupancy buys 21 cycles of slack.
        assert self._filter().keep_aco(9, 120, 8, 100)
        assert not self._filter().keep_aco(9, 122, 8, 100)

    def test_reverts_zero_gain_longer(self):
        assert not self._filter().keep_aco(8, 101, 8, 100)

    def test_keeps_zero_gain_shorter(self):
        assert self._filter().keep_aco(8, 99, 8, 100)

    def test_occupancy_loss_only_kept_if_shorter(self):
        assert self._filter().keep_aco(7, 50, 8, 100)
        assert not self._filter().keep_aco(7, 150, 8, 100)

    def test_paper_example_63_cycles_for_3_steps(self):
        assert self._filter().keep_aco(11, 163, 8, 100)
        assert not self._filter().keep_aco(11, 164, 8, 100)


class TestCompileRegion:
    def test_baseline_only(self, vega_module):
        pipeline = CompilePipeline(vega_module, scheduler=None)
        ddg = DDG(make_region("reduce", 3, 30))
        outcome = pipeline.compile_region(ddg)
        assert outcome.final == outcome.heuristic
        assert not outcome.aco_invoked
        validate_schedule(outcome.schedule, ddg, vega_module)
        assert outcome.scheduling_seconds > 0

    def test_skip_when_optimal(self, vega_module):
        pipeline = CompilePipeline(
            vega_module, scheduler=SequentialACOScheduler(vega_module)
        )
        # A trivially serial region: the heuristic is provably optimal.
        ddg = DDG(make_region("scan", 1, 4))
        outcome = pipeline.compile_region(ddg)
        if outcome.decision in (
            FilterDecision.SKIPPED_OPTIMAL,
            FilterDecision.SKIPPED_THRESHOLD,
        ):
            assert outcome.aco is None

    def test_final_never_dominated_by_heuristic(self, vega_module):
        """The post filter guarantees the shipped schedule is never strictly
        worse than the heuristic on both axes."""
        pipeline = CompilePipeline(
            vega_module,
            scheduler=SequentialACOScheduler(vega_module),
            filters=FilterParams(cycle_threshold=0),
        )
        for seed in range(5):
            ddg = DDG(make_region("gemm_tile", seed, 40))
            outcome = pipeline.compile_region(ddg, seed=seed)
            worse_occ = outcome.final.occupancy < outcome.heuristic.occupancy
            worse_len = outcome.final.length > outcome.heuristic.length
            assert not (worse_occ and worse_len)

    @given(ddgs(max_size=30))
    @settings(max_examples=8, deadline=None)
    def test_shipped_schedule_always_legal(self, ddg):
        machine = simple_test_target()
        pipeline = CompilePipeline(
            machine,
            scheduler=SequentialACOScheduler(machine),
            filters=FilterParams(cycle_threshold=0),
        )
        outcome = pipeline.compile_region(ddg, seed=1)
        validate_schedule(outcome.schedule, ddg, machine)


class TestCompileSuite:
    def test_all_regions_compiled(self, aco_run, small_suite):
        assert len(aco_run.kernels) == 6
        total = sum(len(k.regions) for k in aco_run.kernels)
        assert total == small_suite.num_regions

    def test_total_time_decomposes(self, aco_run):
        assert aco_run.total_seconds == pytest.approx(
            aco_run.base_seconds + aco_run.scheduling_seconds
        )
        assert aco_run.base_seconds > 0

    def test_kernel_occupancy_is_min(self, aco_run):
        for kernel in aco_run.kernels:
            assert kernel.final_occupancy == min(
                r.final.occupancy for r in kernel.regions
            )

    def test_kernel_outcome_lookup(self, aco_run):
        name = aco_run.kernels[0].kernel.name
        assert aco_run.kernel_outcome(name).kernel.name == name
        with pytest.raises(Exception):
            aco_run.kernel_outcome("nope")

    def test_weighted_length_positive(self, aco_run):
        for kernel in aco_run.kernels:
            assert kernel.weighted_length(lambda r: r.final) > 0


class TestStats:
    def test_suite_statistics(self, aco_run):
        stats = suite_statistics(aco_run, num_benchmarks=6)
        assert stats.num_regions == 18
        assert stats.pass2_regions >= stats.pass1_regions >= 0
        if stats.pass1_regions:
            assert stats.max_pass1_size >= stats.avg_pass1_size

    def test_improvements_nonnegative_overall(self, aco_run):
        stats = improvement_statistics(aco_run)
        # The post filter forbids occupancy losses at kernel level.
        assert stats.overall_occupancy_increase_pct >= 0
        assert stats.max_length_reduction_pct >= 0

    def test_baseline_run_has_zero_improvement(self, small_suite, vega_module):
        pipeline = CompilePipeline(vega_module, scheduler=None)
        run = pipeline.compile_suite(small_suite)
        stats = improvement_statistics(run)
        assert stats.overall_occupancy_increase_pct == 0
        assert stats.overall_length_reduction_pct == 0
        assert stats.pass1_regions == 0


class TestPipelineVerifyMode:
    def test_verified_compile_reports_zero_violations(self, vega_module):
        """A small suite compiled under --verify: every region's shipped
        schedule recertifies, and the telemetry trace records it."""
        from repro.aco import SequentialACOScheduler as Seq
        from repro.config import ACOParams
        from repro.telemetry import MemorySink, Telemetry

        suite = generate_suite(
            SuiteParams(num_benchmarks=2, num_kernels=2, regions_per_kernel=2),
            max_region_size=40,
        )
        sink = MemorySink()
        telemetry = Telemetry(sink=sink)
        pipeline = CompilePipeline(
            vega_module,
            scheduler=Seq(
                vega_module, params=ACOParams(max_iterations=3), verify=True
            ),
            telemetry=telemetry,
            verify=True,
        )
        assert pipeline.verify_enabled
        run = pipeline.compile_suite(suite)
        assert len(run.kernels) == 2
        events = sink.by_type("verify")
        assert events, "verify events missing from the trace"
        assert all(e["violations"] == 0 for e in events)
        assert all(e["checks"] > 0 for e in events)

    def test_verify_catches_corrupt_quality_claim(self, vega_module, fig1_ddg):
        """Fault injection through the pipeline: a tampered final quality
        claim must fail recertification."""
        from repro.analysis import verify_schedule
        from repro.errors import VerificationError

        pipeline = CompilePipeline(vega_module, scheduler=None, verify=True)
        outcome = pipeline.compile_region(fig1_ddg)
        tampered = outcome.final.__class__(
            length=outcome.final.length,
            peak_pressure=tuple(
                (cls, value + 1) for cls, value in outcome.final.peak_pressure
            ),
            aprp=outcome.final.aprp,
            occupancy=outcome.final.occupancy,
            rp_cost=outcome.final.rp_cost,
        )
        report = verify_schedule(
            outcome.schedule,
            fig1_ddg,
            vega_module,
            expected_peak=tampered.pressure_dict,
        )
        assert "claimed-peak" in report.codes()
        with pytest.raises(VerificationError):
            report.raise_if_failed()
