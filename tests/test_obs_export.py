"""Tests for the OpenMetrics/Perfetto exporters and the format linter."""

import json

import pytest

from repro.config import ACOParams, FilterParams, GPUParams, ResilienceParams, SuiteParams
from repro.ddg import DDG
from repro.gpusim.faults import FaultPlan
from repro.machine import amd_vega20
from repro.obs import (
    AggregatingSink,
    MetricsAggregator,
    lint_openmetrics,
    to_openmetrics,
    to_perfetto,
)
from repro.parallel import ParallelACOScheduler
from repro.pipeline import CompilePipeline
from repro.aco import SequentialACOScheduler
from repro.resilience.ladder import schedule_with_resilience
from repro.suite import generate_suite
from repro.telemetry import MemorySink, TeeSink, Telemetry

from conftest import make_region


@pytest.fixture(scope="module")
def compiled():
    """One small suite compiled with live aggregation + raw records."""
    machine = amd_vega20()
    suite = generate_suite(
        SuiteParams(num_benchmarks=2, num_kernels=2, regions_per_kernel=3),
        max_region_size=60,
    )
    aggregator = MetricsAggregator()
    memory = MemorySink()
    tele = Telemetry(TeeSink(memory, AggregatingSink(aggregator)))
    CompilePipeline(
        machine,
        scheduler=SequentialACOScheduler(
            machine, params=ACOParams(max_iterations=8), telemetry=tele
        ),
        filters=FilterParams(cycle_threshold=0),
        telemetry=tele,
    ).compile_suite(suite)
    return aggregator, memory.records


@pytest.fixture(scope="module")
def chaotic():
    """One region through the ladder under rate-1.0 launch faults."""
    machine = amd_vega20()
    ddg = DDG(make_region("stencil", 4, 14))
    sink = MemorySink()
    tele = Telemetry(sink)
    scheduler = ParallelACOScheduler(
        machine,
        params=ACOParams(max_iterations=12),
        gpu_params=GPUParams(blocks=4),
        telemetry=tele,
    )
    schedule_with_resilience(
        scheduler, ddg, 5,
        ResilienceParams(max_retries=1),
        telemetry=tele,
        fault_plan=FaultPlan(seed=3, rates={"launch": 1.0}),
    )
    return sink.records


class TestOpenMetrics:
    def test_export_passes_own_linter(self, compiled):
        aggregator, _ = compiled
        text = to_openmetrics(aggregator)
        assert lint_openmetrics(text) == []

    def test_required_families_present(self, compiled):
        aggregator, _ = compiled
        text = to_openmetrics(aggregator)
        assert "repro_region_latency_seconds_p50 " in text
        assert "repro_region_latency_seconds_p99 " in text
        assert "repro_regions_total " in text
        assert "repro_slo_burn_rate " in text
        assert "repro_throughput_regions_per_simulated_second " in text
        assert text.endswith("# EOF\n")

    def test_kernel_seconds_labeled_by_backend(self, chaotic):
        aggregator = MetricsAggregator()
        aggregator.consume_many(chaotic)
        # Under rate-1.0 launch faults no kernel ever runs; add one launch
        # per backend by hand so the label path is exercised too.
        launch = {
            "v": 1, "seq": 100, "event": "kernel_launch", "region": "r",
            "pass_index": 1, "wavefronts": 4, "ants": 8, "iterations": 2,
            "kernel_seconds": 1e-4, "transfer_seconds": 1e-6,
            "launch_seconds": 4e-5, "compute_cycles": 10, "memory_cycles": 5,
            "alloc_cycles": 0, "uniform_cycles": 1,
            "serialized_selection_waves": 0, "serialized_stall_waves": 0,
            "dead_ants": 0, "ready_peak": 4, "ready_capacity": 8,
        }
        aggregator.consume(dict(launch, backend="vectorized"))
        aggregator.consume(dict(launch, seq=101))  # no backend -> unknown
        text = to_openmetrics(aggregator)
        assert 'repro_kernel_seconds_total{backend="vectorized"' in text
        assert 'repro_kernel_seconds_total{backend="unknown"' in text
        assert 'pass_index="1"' in text
        assert 'repro_faults_total{fault_class="launch"}' in text
        assert lint_openmetrics(text) == []

    def test_export_is_deterministic(self, compiled):
        aggregator, records = compiled
        replay = MetricsAggregator()
        replay.consume_many(records)
        assert to_openmetrics(replay) == to_openmetrics(aggregator)


class TestLinter:
    def test_clean_document(self):
        doc = (
            "# HELP repro_x A counter.\n"
            "# TYPE repro_x counter\n"
            "repro_x_total 3\n"
            "# EOF\n"
        )
        assert lint_openmetrics(doc) == []

    def test_missing_eof(self):
        errors = lint_openmetrics("# TYPE repro_x counter\nrepro_x_total 1\n")
        assert any("EOF" in e for e in errors)

    def test_counter_without_total_suffix(self):
        doc = "# TYPE repro_x counter\nrepro_x 1\n# EOF\n"
        assert any("_total" in e for e in lint_openmetrics(doc))

    def test_negative_counter(self):
        doc = "# TYPE repro_x counter\nrepro_x_total -1\n# EOF\n"
        assert any("negative" in e for e in lint_openmetrics(doc))

    def test_sample_without_type(self):
        doc = "repro_y 1\n# EOF\n"
        assert any("no preceding TYPE" in e for e in lint_openmetrics(doc))

    def test_duplicate_sample(self):
        doc = (
            "# TYPE repro_x gauge\nrepro_x 1\nrepro_x 2\n# EOF\n"
        )
        assert any("duplicate" in e for e in lint_openmetrics(doc))

    def test_histogram_without_inf_bucket(self):
        doc = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1.0"} 2\n'
            "repro_h_sum 1.5\n"
            "repro_h_count 2\n"
            "# EOF\n"
        )
        assert any("+Inf" in e for e in lint_openmetrics(doc))

    def test_histogram_non_cumulative_buckets(self):
        doc = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1.0"} 5\n'
            'repro_h_bucket{le="2.0"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1.5\n"
            "repro_h_count 5\n"
            "# EOF\n"
        )
        assert any("cumulative" in e for e in lint_openmetrics(doc))

    def test_inf_bucket_count_mismatch(self):
        doc = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 1.5\n"
            "repro_h_count 5\n"
            "# EOF\n"
        )
        assert any("_count" in e for e in lint_openmetrics(doc))

    def test_content_after_eof(self):
        doc = "# TYPE repro_x gauge\nrepro_x 1\n# EOF\nrepro_x 2\n"
        assert any("after # EOF" in e for e in lint_openmetrics(doc))

    def test_malformed_sample(self):
        doc = "# TYPE repro_x gauge\nnot a metric line at all !!\n# EOF\n"
        assert any("malformed" in e for e in lint_openmetrics(doc))


class TestPerfetto:
    def test_structure_and_tracks(self, compiled):
        _, records = compiled
        trace = to_perfetto(records)
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        assert events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        # One thread row per region journey, each with a name metadata.
        tids = {e["tid"] for e in events if e["ph"] != "M"}
        names = [e for e in events if e["ph"] == "M"]
        assert len(names) == len(tids)
        json.dumps(trace)  # must serialize cleanly

    def test_chaotic_journey_on_one_track(self, chaotic):
        trace = to_perfetto(chaotic)
        events = trace["traceEvents"]
        resilience = [e for e in events if e.get("cat") == "resilience"]
        assert resilience
        # The whole fault story shares one thread row (one trace).
        assert len({e["tid"] for e in resilience}) == 1
        fault_slices = [e for e in resilience if e["ph"] == "X"]
        assert fault_slices  # faults carry burned seconds as duration
        assert all(e["dur"] >= 0 for e in fault_slices)
        instants = [e for e in resilience if e["ph"] == "i"]
        assert any(e["name"].startswith("retry") for e in instants)

    def test_timeline_is_sequential_and_simulated(self, compiled):
        _, records = compiled
        events = to_perfetto(records)["traceEvents"]
        regions = [e for e in events if e.get("cat") == "region"]
        assert len(regions) >= 2
        # Region slices tile the simulated timeline without overlap.
        spans = sorted((e["ts"], e["ts"] + e["dur"]) for e in regions)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end - 1e-6

    def test_empty_records(self):
        assert to_perfetto([]) == {"traceEvents": [], "displayTimeUnit": "ms"}
