"""Tests for the terminal dashboard and the ``python -m repro.obs`` command."""

import json

import pytest

from repro.config import ACOParams, FilterParams, SuiteParams
from repro.machine import amd_vega20
from repro.obs import (
    AggregatingSink,
    MetricsAggregator,
    lint_openmetrics,
    render_dashboard,
    summarize_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.pipeline import CompilePipeline
from repro.aco import SequentialACOScheduler
from repro.suite import generate_suite
from repro.telemetry import JSONLSink, TeeSink, Telemetry


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A real recorded trace (plus its live aggregator for cross-checks)."""
    path = str(tmp_path_factory.mktemp("obs") / "trace.jsonl")
    machine = amd_vega20()
    suite = generate_suite(
        SuiteParams(num_benchmarks=2, num_kernels=2, regions_per_kernel=3),
        max_region_size=60,
    )
    aggregator = MetricsAggregator()
    tele = Telemetry(TeeSink(JSONLSink(path), AggregatingSink(aggregator)))
    CompilePipeline(
        machine,
        scheduler=SequentialACOScheduler(
            machine, params=ACOParams(max_iterations=8), telemetry=tele
        ),
        filters=FilterParams(cycle_threshold=0),
        telemetry=tele,
    ).compile_suite(suite)
    tele.close()
    return path, aggregator


class TestRenderDashboard:
    def test_panels_present(self, trace_path):
        _, aggregator = trace_path
        text = render_dashboard(aggregator)
        assert "repro.obs dashboard" in text
        assert "throughput" in text
        assert "region latency" in text
        assert "p50" in text and "p99" in text
        assert "SLO" in text
        assert "burn-rate" in text
        assert "[ok]" in text or "[BREACH]" in text

    def test_render_is_deterministic(self, trace_path):
        _, aggregator = trace_path
        assert render_dashboard(aggregator) == render_dashboard(aggregator)

    def test_empty_aggregator_renders(self):
        text = render_dashboard(MetricsAggregator())
        assert "events 0" in text
        assert "[ok]" in text  # an empty run violates nothing

    def test_backend_mix_panel_appears_with_kernel_seconds(self):
        aggregator = MetricsAggregator()
        aggregator._inc("kernel.seconds.pass1.vectorized", 2e-3)
        aggregator._inc("kernel.seconds.pass2.loop", 1e-3)
        text = render_dashboard(aggregator)
        assert "backend mix" in text
        assert "vectorized" in text and "loop" in text

    def test_modeled_overhead_stays_under_target(self, trace_path):
        _, aggregator = trace_path
        assert aggregator.modeled_overhead_pct() < 5.0


class TestDashboardCLI:
    def test_renders_trace_once(self, trace_path, capsys):
        path, _ = trace_path
        assert obs_main([path, "--dashboard"]) == 0
        out = capsys.readouterr().out
        assert "repro.obs dashboard" in out
        assert "SLO" in out

    def test_offline_render_matches_live(self, trace_path, capsys):
        path, aggregator = trace_path
        obs_main([path, "--dashboard"])
        out = capsys.readouterr().out
        assert out == summarize_trace(path) + "\n" + render_dashboard(aggregator)

    def test_slo_target_flag(self, trace_path, capsys):
        path, _ = trace_path
        assert obs_main([path, "--dashboard", "--slo-target", "0.5"]) == 0
        assert "50.0%" in capsys.readouterr().out

    def test_missing_trace_errors(self, tmp_path, capsys):
        assert obs_main([str(tmp_path / "absent.jsonl"), "--dashboard"]) == 2

    def test_follow_needs_dashboard(self, trace_path, capsys):
        path, _ = trace_path
        with pytest.raises(SystemExit) as exc:
            obs_main([path, "--follow"])
        assert exc.value.code == 2


class TestExportCLI:
    def test_exports_from_trace(self, trace_path, tmp_path, capsys):
        path, aggregator = trace_path
        om = str(tmp_path / "m.om")
        snap = str(tmp_path / "s.json")
        perfetto = str(tmp_path / "p.json")
        rc = obs_main([
            path, "--openmetrics", om, "--snapshot", snap, "--perfetto", perfetto,
        ])
        assert rc == 0
        # The offline exports equal the live aggregator's.
        assert open(snap).read() == aggregator.snapshot_json()
        assert lint_openmetrics(open(om).read()) == []
        trace = json.load(open(perfetto))
        assert trace["traceEvents"]

    def test_lint_mode_accepts_own_export(self, trace_path, tmp_path, capsys):
        path, _ = trace_path
        om = str(tmp_path / "m.om")
        obs_main([path, "--openmetrics", om])
        capsys.readouterr()
        assert obs_main(["--lint", om]) == 0
        assert "OK" in capsys.readouterr().out

    def test_lint_mode_rejects_broken_doc(self, tmp_path, capsys):
        bad = tmp_path / "bad.om"
        bad.write_text("# TYPE repro_x counter\nrepro_x 1\n")
        assert obs_main(["--lint", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out

    def test_lint_mode_missing_file_errors(self, tmp_path, capsys):
        assert obs_main(["--lint", str(tmp_path / "absent.om")]) == 2

    def test_trace_or_lint_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            obs_main([])
        assert exc.value.code == 2


class TestSLOTargetFlag:
    """Every ``--slo-target`` parser rejects values outside (0, 1] as a
    usage error (exit 2) instead of a traceback."""

    @pytest.mark.parametrize("value", ["2", "0", "1.5", "-0.5", "nan", "high"])
    def test_bad_value_exits_two(self, trace_path, capsys, value):
        from repro.cli import main as cli_main

        path, _ = trace_path
        entry_points = (
            lambda: cli_main(["table1", "--scale", "test", "--watch",
                              "--slo-target", value]),
            lambda: obs_main([path, "--dashboard", "--slo-target", value]),
            lambda: obs_main([path, "--slo-target", value]),
        )
        for entry_point in entry_points:
            with pytest.raises(SystemExit) as exc:
                entry_point()
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "SLO target must be a fraction in (0, 1]" in err
            assert "Traceback" not in err

    def test_boundary_one_is_accepted(self, trace_path, tmp_path, capsys):
        path, _ = trace_path
        om = tmp_path / "m.om"
        assert obs_main([path, "--slo-target", "1", "--openmetrics", str(om)]) == 0
        assert "repro_slo_target 1" in om.read_text()


class TestWatchFlag:
    def test_cli_watch_renders_dashboard(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace = str(tmp_path / "run.jsonl")
        snap = str(tmp_path / "snap.json")
        rc = cli_main(["table2", "--scale", "test", "--watch", "--trace", trace])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro.obs dashboard" in out
        # The snapshot is a view of the trace, written offline.
        assert obs_main([trace, "--snapshot", snap]) == 0
        json.loads(open(snap).read())
