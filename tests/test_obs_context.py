"""Tests for trace-context propagation: ids, stamping and correlation."""

import pytest

from repro.aco import SequentialACOScheduler
from repro.config import ACOParams, FilterParams, GPUParams, ResilienceParams
from repro.ddg import DDG
from repro.gpusim.faults import FaultPlan
from repro.machine import amd_vega20
from repro.obs import TraceContext, current_trace, region_trace, trace_scope
from repro.parallel import BatchItem, MultiRegionScheduler, ParallelACOScheduler
from repro.pipeline import CompilePipeline
from repro.profile import SpanProfiler, profile_session
from repro.resilience.ladder import schedule_with_resilience
from repro.telemetry import MemorySink, Telemetry
from repro.telemetry.schema import TRACE_CONTEXT_FIELDS, validate_event

from conftest import make_region


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


class TestTraceContext:
    def test_ids_are_deterministic(self):
        a = TraceContext.for_region("reduce_3", 40, 7)
        b = TraceContext.for_region("reduce_3", 40, 7)
        assert a == b
        assert a.trace_id == b.trace_id
        assert len(a.trace_id) == 16
        assert len(a.span_id) == 8
        assert a.parent_id is None

    def test_seed_and_fingerprint_separate_traces(self):
        base = TraceContext.for_region("reduce_3", 40, 7)
        assert TraceContext.for_region("reduce_3", 40, 8).trace_id != base.trace_id
        assert TraceContext.for_region("reduce_3", 41, 7).trace_id != base.trace_id
        assert TraceContext.for_region("reduce_4", 40, 7).trace_id != base.trace_id

    def test_child_chains_spans(self):
        root = TraceContext.for_region("r", 10, 0)
        child = root.child("pass1")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        # Deterministic: same label, same child.
        assert root.child("pass1") == child
        assert root.child("pass2") != child

    def test_fields_omit_parent_at_root(self):
        root = TraceContext.for_region("r", 10, 0)
        assert set(root.fields()) == {"trace_id", "span_id"}
        assert set(root.child("x").fields()) == set(TRACE_CONTEXT_FIELDS)

    def test_stack_scoping(self):
        assert current_trace() is None
        ctx = TraceContext.for_region("r", 10, 0)
        with trace_scope(ctx):
            assert current_trace() is ctx
            inner = ctx.child("inner")
            with trace_scope(inner):
                assert current_trace() is inner
            assert current_trace() is ctx
        assert current_trace() is None

    def test_region_trace_is_idempotent(self):
        with region_trace("r", 10, 0) as outer:
            # A nested install (the ladder retrying with a rotated seed)
            # reuses the ambient trace instead of opening a new one.
            with region_trace("r", 10, 999) as inner:
                assert inner is outer
        assert current_trace() is None


class TestEventStamping:
    def test_emit_stamps_and_stays_schema_valid(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        with region_trace("r", 10, 0) as ctx:
            tele.emit("region_start", region="r", size=10, scheduler="s")
        record = sink.records[0]
        assert record["trace_id"] == ctx.trace_id
        assert record["span_id"] == ctx.span_id
        validate_event(record)

    def test_emit_without_context_is_unstamped(self):
        sink = MemorySink()
        Telemetry(sink).emit("region_start", region="r", size=10, scheduler="s")
        assert "trace_id" not in sink.records[0]

    def test_explicit_fields_win_over_ambient(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        with region_trace("r", 10, 0):
            tele.emit(
                "region_start", region="r", size=10, scheduler="s",
                span_id="deadbeef",
            )
        assert sink.records[0]["span_id"] == "deadbeef"


class TestSchedulerCorrelation:
    def test_sequential_scheduler_one_trace(self, machine):
        ddg = DDG(make_region("stencil", 3, 12))
        sink = MemorySink()
        scheduler = SequentialACOScheduler(
            machine, params=ACOParams(max_iterations=8), telemetry=Telemetry(sink)
        )
        scheduler.schedule(ddg, seed=5)
        tids = {r["trace_id"] for r in sink.records}
        assert len(tids) == 1
        expected = TraceContext.for_region(
            ddg.region.name, ddg.num_instructions, 5
        ).trace_id
        assert tids == {expected}

    def test_pipeline_one_trace_per_region(self, machine):
        from repro.config import SuiteParams
        from repro.suite import generate_suite

        suite = generate_suite(
            SuiteParams(num_benchmarks=2, num_kernels=2, regions_per_kernel=3),
            max_region_size=60,
        )
        sink = MemorySink()
        tele = Telemetry(sink)
        pipeline = CompilePipeline(
            machine,
            scheduler=SequentialACOScheduler(machine, telemetry=tele),
            filters=FilterParams(cycle_threshold=0),
            telemetry=tele,
        )
        pipeline.compile_suite(suite)
        per_region = {}
        for r in sink.records:
            if "trace_id" in r and r.get("region"):
                per_region.setdefault(r["region"], set()).add(r["trace_id"])
        assert per_region
        assert all(len(tids) == 1 for tids in per_region.values())
        # Suite-level events have no region scope and stay unstamped.
        suite_events = [r for r in sink.records if r["event"].startswith("suite")]
        assert suite_events
        assert all("trace_id" not in r for r in suite_events)

    def test_ladder_retries_share_the_region_trace(self, machine):
        """The acceptance criterion: every retry, fault and downgrade of a
        chaotic region carries the region's one trace id, even though the
        retries rotate their seeds."""
        ddg = DDG(make_region("stencil", 4, 14))
        sink = MemorySink()
        tele = Telemetry(sink)
        scheduler = ParallelACOScheduler(
            machine,
            params=ACOParams(max_iterations=12),
            gpu_params=GPUParams(blocks=4),
            telemetry=tele,
        )
        outcome = schedule_with_resilience(
            scheduler, ddg, 5,
            ResilienceParams(max_retries=2),
            telemetry=tele,
            fault_plan=FaultPlan(seed=3, rates={"launch": 1.0}),
        )
        assert outcome.faults  # the plan guarantees a chaotic journey
        tids = {r["trace_id"] for r in sink.records if "trace_id" in r}
        assert len(tids) == 1
        resil = [r for r in sink.records if r["event"] in ("fault", "retry", "degrade")]
        assert resil
        assert all("trace_id" in r and "span_id" in r for r in resil)
        # Per-attempt child spans: distinct span ids under one parent.
        retries = [r for r in resil if r["event"] == "retry"]
        assert len({r["span_id"] for r in retries}) == len(retries)
        assert len({r["parent_id"] for r in retries}) == 1

    def test_batch_slots_get_distinct_traces(self, machine):
        items = [
            BatchItem(DDG(make_region("stencil", s, 10)), seed=s) for s in (1, 2, 3)
        ]
        sink = MemorySink()
        batcher = MultiRegionScheduler(
            machine,
            params=ACOParams(max_iterations=6),
            gpu_params=GPUParams(blocks=6),
            telemetry=Telemetry(sink),
        )
        batcher.schedule_batch(items)
        tids = {r["trace_id"] for r in sink.records if "trace_id" in r}
        # The generated regions share a *name*; the trace id (fingerprint +
        # seed) still separates the three slots — the very conflation the
        # name alone could not avoid.
        expected = {
            TraceContext.for_region(
                item.ddg.region.name, item.ddg.num_instructions, item.seed
            ).trace_id
            for item in items
        }
        assert tids == expected
        assert len(tids) == 3


class TestProfilerTraceKeys:
    def test_same_name_spans_split_across_traces(self):
        prof = SpanProfiler()
        with profile_session(prof):
            for seed in (1, 2):
                with region_trace("reduce_3", 20, seed):
                    with prof.span("region", "region"):
                        prof.charge_leaf("kernel", 1e-6)
        regions = [
            span for key, span in prof.root.children.items() if span.name == "region"
        ]
        assert len(regions) == 2  # one node per trace, not one merged node

    def test_same_trace_spans_still_merge(self):
        prof = SpanProfiler()
        with profile_session(prof):
            with region_trace("reduce_3", 20, 1):
                for _ in range(3):
                    with prof.span("iteration", "iteration"):
                        prof.charge(1e-6)
        # The three same-named spans share the ambient trace, so they merge
        # into ONE node (keyed by (name, trace) at the trace boundary).
        assert len(prof.root.children) == 1
        (node,) = prof.root.children.values()
        assert node.name == "iteration"
        assert node.count == 3

    def test_no_context_keeps_plain_name_keys(self):
        prof = SpanProfiler()
        with profile_session(prof):
            with prof.span("a"):
                prof.charge_leaf("leaf", 1.0)
        assert list(prof.root.children) == ["a"]
        assert list(prof.root.children["a"].children) == ["leaf"]
