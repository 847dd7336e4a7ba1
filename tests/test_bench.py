"""Tests for the continuous-benchmark harness (repro.bench)."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    compare_metrics,
    compare_payloads,
    environment_fingerprint,
    load_bench,
    load_bench_dir,
    metric,
    run_benches,
    write_bench,
)
from repro.bench import bench_filename as _bench_filename
from repro.bench import bench_payload as _bench_payload
from repro.bench import __main__ as bench_main
from repro.bench import core as bench_core
from repro.bench.fingerprint import cost_model_digest
from repro.errors import BenchError
from repro.experiments.common import SCALES, ExperimentContext


@pytest.fixture()
def context():
    return ExperimentContext(SCALES["test"])


def _fake_metrics(value=10.0):
    return {
        "time_s": metric(value, "s", "lower"),
        "speedup": metric(2.0, "x", "higher"),
        "count": metric(7, "items"),
    }


@pytest.fixture()
def fake_benches(monkeypatch):
    """Replace the registry with cheap extractors (no compile runs)."""
    benches = {
        "alpha": lambda context: _fake_metrics(10.0),
        "beta": lambda context: {"speedup": metric(3.0, "x", "higher")},
    }
    monkeypatch.setattr(bench_core, "BENCHES", benches)
    monkeypatch.setattr(bench_main, "BENCHES", benches)
    return benches


class TestMetricAndPayload:
    def test_metric_validates_direction(self):
        with pytest.raises(BenchError):
            metric(1.0, "s", "sideways")

    def test_payload_shape(self, context):
        payload = _bench_payload("alpha", context, _fake_metrics())
        assert payload["bench_schema"] == BENCH_SCHEMA
        assert payload["name"] == "alpha"
        assert payload["scale"] == "test"
        assert payload["fingerprint"]["scale"]["name"] == "test"
        assert "time_s" in payload["metrics"]

    def test_fingerprint_is_deterministic(self, context):
        a = environment_fingerprint(context.scale)
        b = environment_fingerprint(context.scale)
        assert a == b  # no wall-clock anywhere
        assert len(cost_model_digest()) == 16

    def test_write_and_load_roundtrip(self, context, tmp_path):
        payload = _bench_payload("alpha", context, _fake_metrics())
        path = write_bench(str(tmp_path), payload)
        assert path.endswith(_bench_filename("alpha"))
        assert load_bench(path) == payload

    def test_load_rejects_non_bench_files(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"not": "a bench"}')
        with pytest.raises(BenchError):
            load_bench(str(bad))
        truncated = tmp_path / "BENCH_trunc.json"
        truncated.write_text('{"bench_schema": 1, "name"')
        with pytest.raises(BenchError):
            load_bench(str(truncated))

    def test_load_dir_requires_files(self, tmp_path):
        with pytest.raises(BenchError):
            load_bench_dir(str(tmp_path))


class TestCompare:
    def test_identical_is_clean(self):
        deltas = compare_metrics("b", _fake_metrics(), _fake_metrics())
        assert not any(d.regression for d in deltas)

    def test_lower_direction_regresses_upward(self):
        current = _fake_metrics(11.5)  # +15% on a lower-is-better metric
        deltas = compare_metrics("b", current, _fake_metrics(10.0), threshold_pct=10.0)
        bad = [d for d in deltas if d.regression]
        assert [d.name for d in bad] == ["time_s"]
        assert bad[0].delta_pct == pytest.approx(15.0)

    def test_within_threshold_passes(self):
        current = _fake_metrics(10.5)  # +5% < 10%
        deltas = compare_metrics("b", current, _fake_metrics(10.0), threshold_pct=10.0)
        assert not any(d.regression for d in deltas)

    def test_higher_direction_regresses_downward(self):
        base = {"speedup": metric(2.0, "x", "higher")}
        current = {"speedup": metric(1.5, "x", "higher")}  # -25%
        deltas = compare_metrics("b", current, base, threshold_pct=10.0)
        assert deltas[0].regression

    def test_info_never_gates(self):
        base = {"count": metric(100, "items")}
        current = {"count": metric(1, "items")}
        deltas = compare_metrics("b", current, base)
        assert not deltas[0].regression

    def test_missing_metric_is_regression(self):
        deltas = compare_metrics("b", {}, {"time_s": metric(1.0, "s", "lower")})
        assert deltas[0].regression
        assert "missing" in deltas[0].note

    def test_missing_bench_is_regression(self, context):
        base = [_bench_payload("alpha", context, _fake_metrics())]
        deltas = compare_payloads([], base)
        assert deltas[0].regression

    def test_zero_baseline_uses_unit_denominator(self):
        base = {"time_s": metric(0.0, "s", "lower")}
        current = {"time_s": metric(0.05, "s", "lower")}
        deltas = compare_metrics("b", current, base, threshold_pct=10.0)
        assert deltas[0].delta_pct == pytest.approx(5.0)
        assert not deltas[0].regression


class TestRunBenches:
    def test_unknown_bench_rejected(self, context):
        with pytest.raises(BenchError):
            run_benches(context, names=["nope"])

    def test_fake_registry_runs_in_order(self, context, fake_benches):
        payloads = run_benches(context, names=["beta", "alpha"])
        assert [p["name"] for p in payloads] == ["alpha", "beta"]  # registry order

    def test_real_table2_extractor(self, context):
        metrics = bench_core.bench_table2(context)
        assert metrics["overall_length_reduction_pct"]["direction"] == "higher"
        assert metrics["pass2_regions"]["value"] > 0

    def test_self_contained_bench_leaves_run_wide_state_alone(self):
        # bench_profile reconciles the run-wide profile and launches against
        # the context's compile runs; a bench with its own workload (here
        # the cheapest, resilience) must add nothing to either.
        from repro.profile import SpanProfiler, profile_session
        from repro.telemetry import MemorySink, Telemetry

        profiler = SpanProfiler()
        sink = MemorySink()
        telemetry = Telemetry(sink=sink)
        context = ExperimentContext(SCALES["test"], telemetry=telemetry)
        with profile_session(profiler):
            metrics = bench_core.bench_resilience(context)
        assert metrics["faults_injected"]["value"] > 0
        assert profiler.root.children == {}
        assert profiler.root.total_seconds == 0.0
        assert sink.records == []


class TestMain:
    def test_list(self, capsys, fake_benches):
        assert bench_main.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out

    def test_writes_files_and_gates(self, tmp_path, fake_benches):
        out1 = tmp_path / "run1"
        assert bench_main.main(["--scale", "test", "--out", str(out1)]) == 0
        assert sorted(p.name for p in out1.glob("BENCH_*.json")) == [
            "BENCH_alpha.json",
            "BENCH_beta.json",
        ]
        # Self-comparison is clean.
        out2 = tmp_path / "run2"
        assert (
            bench_main.main(
                ["--scale", "test", "--out", str(out2), "--baseline", str(out1)]
            )
            == 0
        )

    def test_injected_regression_fails(self, tmp_path, fake_benches):
        base_dir = tmp_path / "base"
        assert bench_main.main(["--scale", "test", "--out", str(base_dir)]) == 0
        # Doctor the baseline so the (deterministic) current run looks worse.
        path = base_dir / "BENCH_alpha.json"
        payload = json.loads(path.read_text())
        payload["metrics"]["time_s"]["value"] *= 0.8  # current now +25%
        path.write_text(json.dumps(payload))
        code = bench_main.main(
            ["--scale", "test", "--out", str(tmp_path / "cur"),
             "--baseline", str(base_dir)]
        )
        assert code == 1

    def test_record_writes_the_run_bundle(self, tmp_path, fake_benches):
        from repro.ddg import DDG
        from repro.obs.record import load_bundle
        from strategies import make_region

        def gamma(context):
            scheduler = context.parallel_scheduler()
            assert scheduler.telemetry.recorder is context.telemetry.recorder
            scheduler.schedule(DDG(make_region("reduce", 3, 12)), seed=1)
            return _fake_metrics(1.0)

        fake_benches["gamma"] = gamma
        path = tmp_path / "bundle"
        argv = ["--scale", "test", "--out", str(tmp_path / "o"), "--record", str(path)]
        assert bench_main.main(argv + ["--bench", "gamma"]) == 0
        bundle = load_bundle(str(path))
        assert bundle.warnings == []
        assert [s["kind"] for s in bundle.schedules] == ["search"]
        assert bundle.rng and bundle.spans is not None

    def test_usage_errors_exit_2(self, tmp_path, fake_benches):
        assert bench_main.main(["--threshold", "-1", "--out", str(tmp_path)]) == 2
        assert (
            bench_main.main(
                ["--scale", "test", "--out", str(tmp_path / "o"),
                 "--baseline", str(tmp_path / "empty")]
            )
            == 2
        )
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = tmp_path / "unused"
        argv = ["--out", str(out), "--record", str(blocker / "bundle")]
        assert bench_main.main(argv) == 2
        assert not out.exists()  # rejected before any bench ran
