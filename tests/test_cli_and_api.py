"""Tests for the CLI and the public package surface."""

import os
import subprocess
import sys

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_from_docstring(self):
        """The package docstring's quickstart must actually run."""
        from repro import DDG, ParallelACOScheduler, RegionBuilder, amd_vega20
        from repro.config import GPUParams

        b = RegionBuilder("example")
        b.inst("global_load", defs=["v0"])
        b.inst("global_load", defs=["v1"])
        b.inst("v_add_f32", defs=["v2"], uses=["v0", "v1"])
        region = b.live_out("v2").build()

        machine = amd_vega20()
        result = ParallelACOScheduler(
            machine, gpu_params=GPUParams(blocks=1)
        ).schedule(DDG(region))
        assert result.schedule.length >= 3

    def test_error_hierarchy(self):
        from repro.errors import (
            ConfigError,
            DDGError,
            GPUSimError,
            IRError,
            MachineModelError,
            ParseError,
            PipelineError,
            ReproError,
            ScheduleError,
        )

        for exc in (
            IRError,
            ParseError,
            DDGError,
            ScheduleError,
            MachineModelError,
            ConfigError,
            GPUSimError,
            PipelineError,
        ):
            assert issubclass(exc, ReproError)


class TestCLI:
    def test_list(self):
        from repro.cli import main

        assert main(["list"]) == 0

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["nope", "--scale", "test"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_single_experiment(self, capsys):
        from repro.cli import main

        assert main(["table1", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "finished in" in out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "table1" in result.stdout
        assert "fig4" in result.stdout


class TestRunConfiguration:
    """Each configuration flag reaches the schedulers and the pipeline the
    experiment context builds, and ``main()`` leaves the process
    environment as it found it."""

    @pytest.fixture
    def probe(self, monkeypatch):
        """Register a ``probe`` experiment that records what it was given."""
        from repro.config import FilterParams
        from repro.ddg import DDG
        from repro.experiments import EXPERIMENTS, ExperimentTable
        from repro.ir.builder import figure1_region

        seen = {}

        def run(context):
            seen["parallel"] = context.parallel_scheduler()
            seen["sequential"] = context.sequential_scheduler()
            seen["pipeline"] = context._pipeline("parallel", FilterParams())
            seen["pipeline"].compile_region(DDG(figure1_region()))
            return ExperimentTable("probe", ("A",))

        monkeypatch.setitem(EXPERIMENTS, "probe", run)
        return seen

    def _main(self, *flags):
        from repro.cli import main

        return main(["probe", "--scale", "test"] + list(flags))

    def test_defaults(self, probe):
        from repro.config import ResilienceParams

        assert self._main() == 0
        assert probe["parallel"].backend == "vectorized"
        for scheduler in (probe["parallel"], probe["sequential"]):
            assert scheduler.params.strategy == "as"
            assert not scheduler.verify_enabled
        assert not probe["pipeline"].verify_enabled
        assert probe["pipeline"].resilience == ResilienceParams()

    def test_backend(self, probe):
        assert self._main("--backend", "loop") == 0
        assert probe["parallel"].backend == "loop"
        assert probe["pipeline"].scheduler.backend == "loop"

    def test_strategy(self, probe):
        assert self._main("--strategy", "mmas") == 0
        for scheduler in (probe["parallel"], probe["sequential"]):
            assert scheduler.params.strategy == "mmas"

    def test_verify(self, probe):
        assert self._main("--verify") == 0
        for scheduler in (probe["parallel"], probe["sequential"]):
            assert scheduler.verify_enabled
        assert probe["pipeline"].verify_enabled
        assert probe["pipeline"].scheduler.verify_enabled

    def test_resilience(self, probe):
        from repro.config import ResilienceParams

        flags = ("--deadline", "0.5", "--max-retries", "5", "--chaos", "9", "--no-degrade")
        assert self._main(*flags) == 0
        assert probe["pipeline"].resilience == ResilienceParams(
            deadline_seconds=0.5, max_retries=5, chaos_seed=9, degrade=False
        )

    def test_record_flags(self, probe, tmp_path, capsys):
        from repro.obs.record import load_bundle

        path = str(tmp_path / "bundle")
        assert self._main("--record", path, "--record-draws", "full") == 0
        assert "[run bundle written to %s]" % path in capsys.readouterr().out
        # One recorder rides the run's one telemetry into every component.
        recorder = probe["pipeline"].telemetry.recorder
        assert recorder is not None and recorder.draws == "full"
        assert probe["parallel"].telemetry.recorder is recorder
        assert probe["sequential"].telemetry.recorder is recorder
        bundle = load_bundle(path)
        assert bundle.warnings == []
        assert bundle.manifest["draws"] == "full"
        assert [s["kind"] for s in bundle.schedules] == ["shipped"]

    def test_bad_record_draws_exits_two(self, probe, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self._main("--record", str(tmp_path / "bundle"), "--record-draws", "bogus")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--record-draws: invalid choice: 'bogus'" in err.strip().splitlines()[-1]
        assert probe == {}  # rejected before anything ran
        assert not (tmp_path / "bundle").exists()

    def test_metrics_prints_aggregated_events(self, probe, capsys):
        assert self._main("--metrics") == 0
        out = capsys.readouterr().out
        assert "regions.total" in out
        assert "region.latency_seconds" in out and "p99=" in out

    def test_no_metrics_block_without_flag(self, probe, capsys):
        assert self._main() == 0
        out = capsys.readouterr().out
        assert "regions.total" not in out
        assert "no metrics collected" not in out

    def test_environment_unchanged(self, probe, monkeypatch):
        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        before = dict(os.environ)
        assert self._main(
            "--backend", "loop", "--strategy", "mmas", "--verify",
            "--deadline", "0.5", "--max-retries", "5", "--chaos", "9",
            "--no-degrade",
        ) == 0
        assert dict(os.environ) == before


class TestCSVExport:
    def test_to_csv_roundtrip(self):
        from repro.experiments import ExperimentTable

        table = ExperimentTable("My Title (scale=test)", ("A", "B"))
        table.add_row("x,with,commas", 1)
        table.add_note("hello")
        csv_text = table.to_csv()
        assert csv_text.startswith("# My Title")
        assert '"x,with,commas",1' in csv_text
        assert "# note: hello" in csv_text

    def test_csv_filename_is_safe(self):
        from repro.experiments import ExperimentTable

        table = ExperimentTable("Table 3.a: parallel speedup! (scale=x)", ("A",))
        name = table.csv_filename()
        assert name.endswith(".csv")
        assert " " not in name and "!" not in name and "(" not in name

    def test_cli_writes_csv(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["table1", "--scale", "test", "--csv", str(tmp_path)]) == 0
        files = list(tmp_path.glob("*.csv"))
        assert len(files) == 1
        assert "Measured" in files[0].read_text()
