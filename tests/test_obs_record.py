"""Run-bundle recording: round-trip, leniency, isolation and recording-off
identity.

The recorder must be a pure observer that rides the telemetry it was
injected with: a component built with an unrecorded telemetry pays a
single ``None`` check per hook and writes into no bundle, and a recorded
run and an unrecorded run of the same seed produce bit-identical
schedules. A saved bundle must round-trip through
:func:`repro.obs.record.load_bundle` losslessly, two recordings of the
same seeded run must be byte-for-byte equal on disk, and a bundle
truncated mid-write (crash) must still load — degrading to warnings that
the differ surfaces as a partial-diff notice, mirroring
``read_trace_lenient``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import GPUParams
from repro.ddg import DDG
from repro.errors import TelemetryError
from repro.machine import amd_vega20
from repro.obs.diff import diff_bundles, render_report
from repro.obs.record import (
    BUNDLE_SCHEMA,
    RunRecorder,
    load_bundle,
    span_tree_payload,
)
from repro.parallel import ParallelACOScheduler
from repro.profile import SpanProfiler, profile_session
from repro.telemetry import Telemetry
from strategies import make_region

GPU = GPUParams(blocks=1)

REGION = ("reduce", 3, 30)
SEED = 11


def _run(telemetry=None, profiler=None, backend="vectorized"):
    scheduler = ParallelACOScheduler(
        amd_vega20(), gpu_params=GPU, backend=backend, telemetry=telemetry
    )
    ddg = DDG(make_region(*REGION))
    if profiler is not None:
        with profile_session(profiler):
            return scheduler.schedule(ddg, seed=SEED)
    return scheduler.schedule(ddg, seed=SEED)


def _record_run(path, draws="digest", with_spans=False):
    recorder = RunRecorder(draws=draws)
    profiler = SpanProfiler() if with_spans else None
    _run(telemetry=Telemetry(recorder=recorder), profiler=profiler)
    if profiler is not None:
        recorder.set_spans(span_tree_payload(profiler.root))
    return recorder.save(str(path))


def _fingerprint(result):
    return (
        tuple(result.schedule.order),
        tuple(result.schedule.cycles),
        result.schedule.length,
        result.rp_cost_value,
    )


class TestRoundTrip:
    def test_record_load_round_trip(self, tmp_path):
        path = _record_run(tmp_path / "bundle", with_spans=True)
        bundle = load_bundle(path)
        assert bundle.warnings == []
        assert bundle.manifest["bundle_schema"] == BUNDLE_SCHEMA
        assert bundle.manifest["draws"] == "digest"
        assert set(bundle.parts) == {
            "events.jsonl",
            "metrics.json",
            "spans.json",
            "schedules.json",
            "rng.jsonl",
        }
        assert len(bundle.events) == bundle.manifest["events"] > 0
        assert len(bundle.schedules) == bundle.manifest["schedules"] > 0
        assert len(bundle.rng) == bundle.manifest["rng_entries"] > 0
        assert bundle.metrics is not None
        assert bundle.spans is not None and bundle.spans["category"] == "root"

    def test_schedules_capture_the_search_result(self, tmp_path):
        path = _record_run(tmp_path / "bundle")
        bundle = load_bundle(path)
        search = [s for s in bundle.schedules if s["kind"] == "search"]
        assert len(search) == 1
        record = search[0]
        assert record["region"] == "reduce_30"
        assert record["seed"] == SEED
        assert record["backend"] == "vectorized"
        assert sorted(record["order"]) == list(range(30))

    def test_rng_entries_key_on_region_pass_iteration(self, tmp_path):
        path = _record_run(tmp_path / "bundle")
        bundle = load_bundle(path)
        for entry in bundle.rng:
            assert entry["region"] == "reduce_30"
            assert entry["pass"] in (1, 2)
            assert entry["iteration"] >= 0
            assert entry["ants"]
            for lane in entry["ants"].values():
                assert lane["n"] > 0
                assert len(lane["d"]) == 16
                assert "v" not in lane  # digest level omits raw values

    def test_full_level_stores_raw_draws(self, tmp_path):
        path = _record_run(tmp_path / "bundle", draws="full")
        bundle = load_bundle(path)
        lane = next(iter(bundle.rng[0]["ants"].values()))
        assert len(lane["v"]) == lane["n"]
        assert all(0.0 <= v < 1.0 for v in lane["v"])

    def test_off_level_skips_the_rng_part(self, tmp_path):
        path = _record_run(tmp_path / "bundle", draws="off")
        bundle = load_bundle(path)
        assert "rng.jsonl" not in bundle.parts
        assert bundle.rng == []
        assert bundle.warnings == []  # declared off, so no "missing" warning

    def test_unknown_draw_level_rejected(self):
        with pytest.raises(TelemetryError):
            RunRecorder(draws="everything")


class TestDiffSelf:
    def test_diff_against_self_is_identical(self, tmp_path):
        path = _record_run(tmp_path / "bundle")
        report = diff_bundles(path, path)
        assert report["identical"]
        assert report["byte_identical"]
        assert not report["partial"]
        assert report["first_divergence"] is None
        assert report["first_event_divergence"] is None
        assert {lv["status"] for lv in report["levels"]} <= {
            "identical",
            "skipped",
        }
        assert "verdict: identical (byte-for-byte)" in render_report(report)

    def test_two_recordings_of_one_seed_are_byte_identical(self, tmp_path):
        path_a = _record_run(tmp_path / "a")
        path_b = _record_run(tmp_path / "b")
        for name in sorted(os.listdir(path_a)):
            with open(os.path.join(path_a, name), "rb") as ha:
                with open(os.path.join(path_b, name), "rb") as hb:
                    assert ha.read() == hb.read(), name
        report = diff_bundles(path_a, path_b)
        assert report["identical"] and report["byte_identical"]


class TestRecordingOffIdentity:
    def test_recording_does_not_perturb_the_run(self):
        bare = _run()
        recorded = _run(telemetry=Telemetry(recorder=RunRecorder(draws="full")))
        assert _fingerprint(bare) == _fingerprint(recorded)


class TestRecorderIsolation:
    """A bundle holds exactly what its own telemetry's components did."""

    REGIONS = (("reduce", 3, 30), ("reduce", 5, 24))
    #: Two recorded runs that differ in seed, engine and draw level.
    RUNS = {"a": (11, "vectorized", "full"), "b": (23, "loop", "digest")}

    @staticmethod
    def _recorded(seed, backend, draws):
        recorder = RunRecorder(draws=draws)
        scheduler = ParallelACOScheduler(
            amd_vega20(), gpu_params=GPU, backend=backend,
            telemetry=Telemetry(recorder=recorder),
        )
        return recorder, lambda ddg: scheduler.schedule(ddg, seed=seed)

    def test_interleaved_recordings_equal_their_solo_recordings(self, tmp_path):
        ddgs = [DDG(make_region(*spec)) for spec in self.REGIONS]
        solo = {}
        for name, run in self.RUNS.items():
            recorder, schedule = self._recorded(*run)
            for ddg in ddgs:
                schedule(ddg)
            solo[name] = recorder.save(str(tmp_path / ("solo-" + name)))

        pairs = {name: self._recorded(*run) for name, run in self.RUNS.items()}
        bare = ParallelACOScheduler(amd_vega20(), gpu_params=GPU)
        for ddg in ddgs:
            for _recorder, schedule in pairs.values():
                schedule(ddg)
            before = [(len(r.events), len(r.schedules)) for r, _ in pairs.values()]
            bare.schedule(ddg, seed=SEED)
            after = [(len(r.events), len(r.schedules)) for r, _ in pairs.values()]
            assert after == before  # the unrecorded run adds nothing

        for name, (recorder, _schedule) in pairs.items():
            path = recorder.save(str(tmp_path / ("interleaved-" + name)))
            assert sorted(os.listdir(path)) == sorted(os.listdir(solo[name]))
            for part in sorted(os.listdir(path)):
                with open(os.path.join(path, part), "rb") as mixed:
                    with open(os.path.join(solo[name], part), "rb") as alone:
                        assert mixed.read() == alone.read(), (name, part)


class TestLenientLoading:
    def test_truncated_events_warns_and_diffs_partially(self, tmp_path):
        path_a = _record_run(tmp_path / "a")
        path_b = _record_run(tmp_path / "b")
        events = os.path.join(path_b, "events.jsonl")
        with open(events) as handle:
            lines = handle.readlines()
        with open(events, "w") as handle:
            handle.writelines(lines[:-3])
            handle.write('{"v": 1, "seq": 9')  # mid-write crash artifact
        bundle = load_bundle(path_b)
        assert any("skipped 1 malformed line" in w for w in bundle.warnings)
        assert any("manifest declares" in w for w in bundle.warnings)
        report = diff_bundles(path_a, path_b)
        assert report["partial"]
        assert any(w.startswith("B: events.jsonl") for w in report["warnings"])
        rendered = render_report(report)
        assert "partial diff — bundle warnings:" in rendered

    def test_missing_rng_part_warns(self, tmp_path):
        path = _record_run(tmp_path / "bundle")
        os.remove(os.path.join(path, "rng.jsonl"))
        bundle = load_bundle(path)
        assert "rng.jsonl: missing" in bundle.warnings

    def test_missing_manifest_warns_but_loads(self, tmp_path):
        path = _record_run(tmp_path / "bundle")
        os.remove(os.path.join(path, "manifest.json"))
        bundle = load_bundle(path)
        assert any("manifest.json" in w for w in bundle.warnings)
        assert bundle.events  # the trace still loads

    def test_future_schema_warns(self, tmp_path):
        path = _record_run(tmp_path / "bundle")
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["bundle_schema"] = 99
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        bundle = load_bundle(path)
        assert any("bundle_schema" in w for w in bundle.warnings)

    def test_not_a_directory_raises(self, tmp_path):
        target = tmp_path / "not-a-bundle"
        target.write_text("hello")
        with pytest.raises(TelemetryError):
            load_bundle(str(target))


class TestBenchHistory:
    """Satellite: the append-only BENCH_history.jsonl trajectory."""

    @staticmethod
    def _payload(git="abc123def", value=2.5):
        return {
            "name": "table2",
            "scale": "test",
            "fingerprint": {"git": git, "cost_model_digest": "cm01"},
            "metrics": {
                "speedup": {"value": value, "unit": "x", "direction": "higher"},
                "notes": {"value": 0, "unit": "", "direction": "info"},
            },
        }

    def test_append_and_load_round_trip(self, tmp_path):
        from repro.bench.history import append_history, load_history

        path = str(tmp_path / "BENCH_history.jsonl")
        entry = append_history(path, [self._payload()])
        assert entry["git"] == "abc123def"
        assert entry["scale"] == "test"
        append_history(path, [self._payload(git="fedcba987", value=2.0)])
        entries, skipped = load_history(path)
        assert skipped == 0
        assert [e["git"] for e in entries] == ["abc123def", "fedcba987"]

    def test_same_tree_appends_are_byte_identical(self, tmp_path):
        from repro.bench.history import append_history

        path = str(tmp_path / "hist.jsonl")
        append_history(path, [self._payload()])
        append_history(path, [self._payload()])
        with open(path) as handle:
            first, second = handle.read().splitlines()
        assert first == second  # wall-clock-free: reruns are byte-equal

    def test_trend_flags_regressions(self, tmp_path):
        from repro.bench.history import append_history, load_history, render_trend

        path = str(tmp_path / "hist.jsonl")
        append_history(path, [self._payload(value=2.5)])
        append_history(path, [self._payload(git="fedcba987", value=2.0)])
        entries, _ = load_history(path)
        trend = render_trend(entries, scale="test")
        assert "table2.speedup" in trend
        assert "!" in trend  # 'higher' metric moved down
        assert "notes" not in trend  # info metrics are skipped

    def test_load_is_lenient(self, tmp_path):
        from repro.bench.history import append_history, load_history

        path = str(tmp_path / "hist.jsonl")
        append_history(path, [self._payload()])
        with open(path, "a") as handle:
            handle.write("{broken json\n")
        entries, skipped = load_history(path)
        assert len(entries) == 1
        assert skipped == 1
