"""Tests for the trace summary and the per-pass kernel rollup.

``python -m repro.obs TRACE [--kernels]`` must print, byte for byte, the
text pinned in ``tests/data/obs_{summary,kernels}_*.txt`` for the
committed convergence trace and for a seeded chaos trace built here, and
its Perfetto file must equal the export of the run's in-memory records.
The rollup must also keep working on traces recorded before the ``backend``
field existed: launches without it land under ``backend="unknown"``
instead of crashing or vanishing from the rollup.
"""

import json
import os

import pytest

from repro.config import ACOParams, FilterParams, GPUParams, ResilienceParams, SuiteParams
from repro.machine import amd_vega20
from repro.obs import write_perfetto
from repro.obs.__main__ import main as obs_main
from repro.obs.report import kernel_phase_rollup, render_kernel_rollup
from repro.parallel import ParallelACOScheduler
from repro.pipeline import CompilePipeline
from repro.suite import generate_suite
from repro.telemetry import JSONLSink, MemorySink, TeeSink, Telemetry

DATA = os.path.join(os.path.dirname(__file__), "data")


def _launch(seq, pass_index=1, kernel_seconds=1e-4, **extra):
    record = {
        "v": 1, "seq": seq, "event": "kernel_launch", "region": "r",
        "pass_index": pass_index, "wavefronts": 4, "ants": 8, "iterations": 2,
        "kernel_seconds": kernel_seconds, "transfer_seconds": 1e-6,
        "launch_seconds": 4e-5, "compute_cycles": 10, "memory_cycles": 5,
        "alloc_cycles": 0, "uniform_cycles": 1,
        "serialized_selection_waves": 0, "serialized_stall_waves": 0,
        "dead_ants": 0, "ready_peak": 4, "ready_capacity": 8,
    }
    record.update(extra)
    return record


class TestRollupBackendTolerance:
    def test_missing_backend_lands_under_unknown(self):
        rollups = kernel_phase_rollup([_launch(0), _launch(1)])
        phase = rollups[1]
        assert phase.backend_seconds == {"unknown": 2e-4}
        assert phase.launches == 2

    def test_mixed_records_split_by_backend(self):
        rollups = kernel_phase_rollup([
            _launch(0, backend="vectorized", kernel_seconds=3e-4),
            _launch(1, backend="loop"),
            _launch(2),  # legacy record, no backend field
        ])
        phase = rollups[1]
        assert phase.backend_seconds == {
            "vectorized": 3e-4,
            "loop": 1e-4,
            "unknown": 1e-4,
        }
        # The totals are unaffected by how launches carry the label.
        assert phase.kernel_seconds == 5e-4

    def test_render_shows_backend_mix_line(self):
        text = render_kernel_rollup(
            kernel_phase_rollup([
                _launch(0, backend="vectorized", kernel_seconds=3e-4),
                _launch(1),
            ])
        )
        assert "backend mix:" in text
        mix_line = next(l for l in text.splitlines() if "backend mix" in l)
        # Sorted by descending seconds: vectorized before unknown.
        assert mix_line.index("vectorized") < mix_line.index("unknown")
        assert "unknown" in mix_line

    def test_render_without_launches_unchanged(self):
        assert "nothing to attribute" in render_kernel_rollup({})


class TestReportCLI:
    def test_kernels_flag_tolerates_backendless_trace(self, tmp_path, capsys):
        trace = tmp_path / "legacy.jsonl"
        with open(trace, "w") as fh:
            for record in (
                {
                    "v": 1, "seq": 0, "event": "region_start", "region": "r",
                    "size": 10, "scheduler": "s",
                },
                _launch(1),
                _launch(2, backend="vectorized"),
            ):
                fh.write(json.dumps(record) + "\n")
        assert obs_main([str(trace), "--kernels"]) == 0
        out = capsys.readouterr().out
        assert "backend mix:" in out
        assert "unknown" in out
        assert "vectorized" in out


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """A seeded chaos compile (faults, retries, degrades to the loop
    engine, both launch backends): its trace file and in-memory records."""
    path = str(tmp_path_factory.mktemp("chaos") / "chaos.jsonl")
    memory = MemorySink()
    machine = amd_vega20()
    suite = generate_suite(
        SuiteParams(num_benchmarks=1, num_kernels=2, regions_per_kernel=3),
        max_region_size=40,
    )
    tele = Telemetry(TeeSink(JSONLSink(path), memory))
    CompilePipeline(
        machine,
        scheduler=ParallelACOScheduler(
            machine, params=ACOParams(max_iterations=8),
            gpu_params=GPUParams(blocks=1), telemetry=tele,
        ),
        filters=FilterParams(cycle_threshold=0),
        telemetry=tele,
        resilience=ResilienceParams(chaos_seed=42, max_retries=1),
    ).compile_suite(suite)
    tele.close()
    return path, memory.records


class TestPinnedText:
    """The summary and rollup text is pinned to what
    ``python -m repro.telemetry.report [--kernels]`` printed before this
    command replaced it."""

    @pytest.mark.parametrize("name", ["convergence", "chaos"])
    @pytest.mark.parametrize("kind", ["summary", "kernels"])
    def test_text_matches_pinned(self, name, kind, chaos_run, capsys):
        trace = (
            os.path.join(DATA, "convergence_trace.jsonl")
            if name == "convergence" else chaos_run[0]
        )
        flags = ["--kernels"] if kind == "kernels" else []
        assert obs_main([trace] + flags) == 0
        with open(os.path.join(DATA, "obs_%s_%s.txt" % (kind, name))) as handle:
            assert capsys.readouterr().out == handle.read()


def test_offline_perfetto_equals_in_memory_export(chaos_run, tmp_path, capsys):
    """The Perfetto file written from a trace file is byte-identical to
    the one built from the run's in-memory records."""
    path, records = chaos_run
    offline, live = tmp_path / "offline.json", tmp_path / "live.json"
    assert obs_main([path, "--perfetto", str(offline)]) == 0
    write_perfetto(str(live), records)
    assert offline.read_bytes() == live.read_bytes()
