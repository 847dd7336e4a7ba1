"""Tests for the hierarchical span profiler (repro.profile)."""

import pytest

from repro.errors import ProfileError
from repro.experiments.common import SCALES, ExperimentContext
from repro.profile import (
    NullProfiler,
    SpanProfiler,
    attribution,
    collapsed_stacks,
    get_profiler,
    profile_session,
    profiled,
    render_tree,
    set_profiler,
    top_leaves,
    write_collapsed,
)
from repro.obs.report import kernel_phase_rollup, render_kernel_rollup


class TestSpanTree:
    def test_nesting_and_charges(self):
        prof = SpanProfiler()
        with prof.span("region"):
            with prof.span("pass1"):
                prof.charge(1e-3)
        root = prof.root
        assert root.total_seconds == pytest.approx(1e-3)
        assert root.children["region"].children["pass1"].self_seconds == pytest.approx(1e-3)

    def test_same_name_merges(self):
        prof = SpanProfiler()
        for _ in range(5):
            with prof.span("iteration"):
                prof.charge(1e-6)
        node = prof.root.children["iteration"]
        assert node.count == 5
        assert node.self_seconds == pytest.approx(5e-6)
        assert len(prof.root.children) == 1

    def test_charge_leaf(self):
        prof = SpanProfiler()
        with prof.span("pass1"):
            prof.charge_leaf("construct", 2e-6)
            prof.charge_leaf("construct", 3e-6)
        leaf = prof.root.children["pass1"].children["construct"]
        assert leaf.is_leaf
        assert leaf.count == 2
        assert leaf.self_seconds == pytest.approx(5e-6)

    def test_push_pop(self):
        prof = SpanProfiler()
        prof.push("outer")
        prof.charge_leaf("x", 1e-6)
        prof.pop()
        assert prof.current is prof.root
        with pytest.raises(ProfileError):
            prof.pop()

    def test_leaf_seconds_ignores_interior_self_time(self):
        prof = SpanProfiler()
        with prof.span("pass1"):
            prof.charge(1e-6)  # interior self time: NOT leaf-attributed
            prof.charge_leaf("construct", 4e-6)
        att = attribution(prof)
        assert att.total_seconds == pytest.approx(5e-6)
        assert att.leaf_seconds == pytest.approx(4e-6)
        assert att.fraction == pytest.approx(0.8)

    def test_empty_tree_fraction_is_one(self):
        assert attribution(SpanProfiler()).fraction == 1.0

    def test_decorator(self):
        prof = SpanProfiler()

        @profiled("work")
        def work():
            get_profiler().charge(1e-6)
            return 42

        assert work() == 42  # inert without a live profiler
        with profile_session(prof):
            assert work() == 42
        assert prof.root.children["work"].count == 1
        assert prof.root.total_seconds == pytest.approx(1e-6)


class TestGlobalInstallation:
    def test_default_is_inert(self):
        prof = get_profiler()
        assert isinstance(prof, NullProfiler)
        assert not prof.enabled
        # Every operation is a harmless no-op.
        with prof.span("x"):
            prof.charge(1.0)
        prof.push("y")
        prof.pop()
        prof.charge_leaf("z", 1.0)

    def test_session_restores_previous(self):
        before = get_profiler()
        live = SpanProfiler()
        with profile_session(live):
            assert get_profiler() is live
        assert get_profiler() is before

    def test_set_profiler_none_restores_default(self):
        previous = set_profiler(SpanProfiler())
        try:
            set_profiler(None)
            assert isinstance(get_profiler(), NullProfiler)
        finally:
            set_profiler(previous)


class TestRendering:
    def _tree(self):
        prof = SpanProfiler()
        with prof.span("region"):
            with prof.span("pass1"):
                prof.charge_leaf("construct", 90e-6)
                prof.charge_leaf("pheromone", 10e-6)
        return prof

    def test_render_tree(self):
        text = render_tree(self._tree())
        assert "span profile" in text
        assert "construct" in text
        assert "leaf attribution: 100.00%" in text

    def test_render_tree_collapses_siblings(self):
        prof = SpanProfiler()
        with prof.span("parent"):
            for i in range(20):
                prof.charge_leaf("leaf%02d" % i, 1e-6)
        text = render_tree(prof, max_children=4)
        assert "(+16 more)" in text

    def test_collapsed_stack_format(self):
        lines = collapsed_stacks(self._tree())
        assert "run;region;pass1;construct 90" in lines
        assert "run;region;pass1;pheromone 10" in lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0  # zero frames omitted
            assert ";" in path

    def test_write_collapsed(self, tmp_path):
        path = tmp_path / "stacks.txt"
        count = write_collapsed(str(path), self._tree())
        assert count == 2
        assert len(path.read_text().splitlines()) == 2

    def test_top_leaves(self):
        leaves = top_leaves(self._tree(), top=1)
        assert leaves == [("run/region/pass1/construct", pytest.approx(90e-6))]


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def profiled_context(self):
        context = ExperimentContext(SCALES["test"])
        prof = SpanProfiler()
        with profile_session(prof):
            context.run("sequential")
            context.run("parallel")
        return context, prof

    def test_attribution_meets_acceptance_floor(self, profiled_context):
        context, prof = profiled_context
        att = attribution(prof)
        assert att.fraction >= 0.95
        run_seconds = sum(r.total_seconds for r in context.computed_runs().values())
        assert att.total_seconds == pytest.approx(run_seconds)

    def test_profiling_does_not_change_results(self):
        plain = ExperimentContext(SCALES["test"]).run("parallel")
        profiled_ctx = ExperimentContext(SCALES["test"])
        with profile_session(SpanProfiler()):
            traced = profiled_ctx.run("parallel")
        for (pk, po), (tk, to) in zip(plain.all_regions(), traced.all_regions()):
            assert pk.kernel.name == tk.kernel.name
            assert tuple(po.schedule.cycles) == tuple(to.schedule.cycles)
            assert po.scheduling_seconds == to.scheduling_seconds
        assert plain.total_seconds == traced.total_seconds

    def test_tree_has_expected_shape(self, profiled_context):
        _context, prof = profiled_context
        suites = [c for c in prof.root.children.values() if c.category == "suite"]
        names = {s.name for s in suites}
        assert names == {"suite:sequential-aco", "suite:parallel-aco"}
        parallel = prof.root.children["suite:parallel-aco"]
        region = next(
            c for c in parallel.children.values() if c.category == "region"
            and any(ch.category == "pass" for ch in c.children.values())
        )
        a_pass = next(
            c for c in region.children.values() if c.category == "pass"
        )
        assert {"kernel", "launch", "transfer"} <= set(a_pass.children)
        kernel = a_pass.children["kernel"]
        assert {"construct", "uniform"} <= set(kernel.children)
        construct = kernel.children["construct"]
        assert {"compute", "memory"} <= set(construct.children)


class TestKernelRollup:
    def test_rollup_from_memory_records(self):
        from repro.telemetry import MemorySink, Telemetry

        sink = MemorySink()
        context = ExperimentContext(SCALES["test"], telemetry=Telemetry(sink=sink))
        context.run("parallel")
        rollups = kernel_phase_rollup(sink.records)
        assert set(rollups) <= {1, 2}
        assert rollups  # the parallel run launches kernels
        for phase in rollups.values():
            assert phase.launches > 0
            assert sum(phase.seconds.values()) == pytest.approx(phase.kernel_seconds)
            assert phase.batches >= phase.launches  # every launch needs >= 1 batch
        text = render_kernel_rollup(rollups)
        assert "kernel attribution" in text
        assert "execution batches" in text

    def test_rollup_empty(self):
        assert kernel_phase_rollup([]) == {}
        assert "nothing to attribute" in render_kernel_rollup({})
