"""First-divergence localization: the differ finds exactly where runs fork.

Two acceptance demos from the differential-observability issue:

* two runs differing only in **one injected RNG perturbation** (a perturbed
  stream set flips a single draw of a single ant) must be localized to the
  exact first divergent iteration / ant / draw index, with both values in
  the report;
* the vectorized engine vs. the loop engine with a **deliberately broken
  lane primitive** (the per-ant heuristic row degraded to a constant) must
  be localized to the first iteration where the decisions forked.

Plus unit coverage of the prefix-digest bisection and the CLI exit codes.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import repro.parallel.scheduler as scheduler_mod
from repro.config import GPUParams
from repro.ddg import DDG
from repro.machine import amd_vega20
from repro.obs.diff import (
    diff_bundles,
    first_divergent_index,
    main as diff_main,
    render_report,
    write_report,
)
from repro.obs.record import RunRecorder
from repro.parallel import ParallelACOScheduler
from repro.parallel.loop import LoopColony
from repro.parallel.rng import DRAW_BLOCK, AntRngStreams
from repro.telemetry import Telemetry
from strategies import make_region

GPU = GPUParams(blocks=1)
SEED = 11

#: The injected perturbation: ant 2's sixth draw (index 5) is flipped.
TARGET_ANT = 2
TARGET_DRAW = 5


def _record(tmp_path, name, backend="vectorized", draws="full"):
    recorder = RunRecorder(draws=draws)
    scheduler = ParallelACOScheduler(
        amd_vega20(),
        gpu_params=GPU,
        backend=backend,
        telemetry=Telemetry(recorder=recorder),
    )
    ddg = DDG(make_region("reduce", 3, 30))
    scheduler.schedule(ddg, seed=SEED)
    return recorder.save(str(tmp_path / name))


class _PerturbedStreams(AntRngStreams):
    """AntRngStreams that flips exactly one U[0,1) draw of the target ant.

    Counts the target stream's drawn *values*: the streams read ahead in
    blocks, so the flipped value sits inside one refill of its row.
    """

    def __init__(self, seed, num_ants, recorder=None):
        super().__init__(seed, num_ants, recorder=recorder)
        self._target_drawn = 0

    def _refill(self, ant):
        super()._refill(ant)
        if ant != TARGET_ANT:
            return
        index = TARGET_DRAW - self._target_drawn  # the target's place in this block
        self._target_drawn += DRAW_BLOCK
        if 0 <= index < DRAW_BLOCK:
            self._buffer[ant, index] = 1.0 - self._buffer[ant, index]


class TestBisection:
    def test_identical_sequences(self):
        items = [{"seq": i} for i in range(10)]
        assert first_divergent_index(items, list(items)) is None
        assert first_divergent_index([], []) is None

    @pytest.mark.parametrize("where", [0, 1, 7, 63, 64, 99])
    def test_single_mutation_found_exactly(self, where):
        a = [{"seq": i, "v": 0} for i in range(100)]
        b = [dict(item) for item in a]
        b[where]["v"] = 1
        assert first_divergent_index(a, b) == where

    def test_strict_prefix_diverges_at_the_shorter_length(self):
        a = [{"seq": i} for i in range(10)]
        assert first_divergent_index(a, a[:4]) == 4
        assert first_divergent_index(a[:4], a) == 4
        assert first_divergent_index([], a) == 0


class TestRngPerturbationDemo:
    """Acceptance demo 1: one flipped draw, localized to ant + draw index."""

    @pytest.fixture()
    def report(self, tmp_path, monkeypatch):
        path_a = _record(tmp_path, "clean")
        monkeypatch.setattr(scheduler_mod, "AntRngStreams", _PerturbedStreams)
        path_b = _record(tmp_path, "perturbed")
        return diff_bundles(path_a, path_b)

    def test_divergence_localized_to_the_exact_draw(self, report):
        assert not report["identical"]
        fd = report["first_divergence"]
        assert fd is not None
        assert fd["level"] == "rng-draws"
        assert fd["region"] == "reduce_30"
        assert fd["ant"] == TARGET_ANT
        assert fd["draw_index"] == TARGET_DRAW
        # The perturbation is value -> 1 - value, so the two reported
        # draws must be exact complements.
        assert fd["a_value"] + fd["b_value"] == pytest.approx(1.0, abs=1e-12)

    def test_report_names_the_iteration_key(self, report):
        fd = report["first_divergence"]
        assert fd["pass"] in (1, 2)
        assert fd["iteration"] >= 0
        assert fd["trace_id"]
        rendered = render_report(report)
        assert "first divergence [rng-draws]:" in rendered
        assert "ant: %d" % TARGET_ANT in rendered
        assert "draw_index: %d" % TARGET_DRAW in rendered

    def test_digest_level_still_localizes_the_ant_lane(
        self, tmp_path, monkeypatch
    ):
        path_a = _record(tmp_path, "clean-digest", draws="digest")
        monkeypatch.setattr(scheduler_mod, "AntRngStreams", _PerturbedStreams)
        path_b = _record(tmp_path, "perturbed-digest", draws="digest")
        fd = diff_bundles(path_a, path_b)["first_divergence"]
        assert fd["level"] == "rng-draws"
        assert fd["ant"] == TARGET_ANT
        assert "draw_index" not in fd
        assert "--record-draws full" in fd["note"]


class TestBrokenLanePrimitiveDemo:
    """Acceptance demo 2: loop engine with a broken per-ant heuristic row."""

    @pytest.fixture()
    def report(self, tmp_path, monkeypatch):
        path_a = _record(tmp_path, "vectorized", backend="vectorized")

        def broken_eta_row(self, ant, cand, valid, primary):
            # The bug under test: the scalar engine drops the heuristic
            # term, collapsing every candidate's desirability to tau alone.
            import numpy as np

            return np.ones(cand.shape[0], dtype=np.float64)

        monkeypatch.setattr(LoopColony, "_eta_row", broken_eta_row)
        path_b = _record(tmp_path, "broken-loop", backend="loop")
        return diff_bundles(path_a, path_b)

    def test_engines_diverge_and_are_localized(self, report):
        assert not report["identical"]
        fd = report["first_divergence"]
        assert fd is not None
        # The broken heuristic changes *decisions*, so the fork shows up at
        # decision granularity (iterations or finer), never only in the
        # coarse aggregates.
        assert fd["level"] in ("iterations", "rng-draws")
        statuses = {lv["level"]: lv["status"] for lv in report["levels"]}
        assert statuses["summary-metrics"] == "divergent"
        assert statuses["iterations"] == "divergent"

    def test_first_divergent_iteration_is_named(self, report):
        iterations = next(
            lv for lv in report["levels"] if lv["level"] == "iterations"
        )
        context = iterations["detail"]["context"]
        assert context["event"] == "iteration"
        assert context["region"] == "reduce_30"
        assert context["pass_index"] in (1, 2)
        assert context["iteration"] >= 0
        fe = report["first_event_divergence"]
        assert fe is not None and fe["index"] >= 0


class TestCli:
    def test_identical_exits_zero(self, tmp_path, capsys):
        path = _record(tmp_path, "bundle", draws="digest")
        assert diff_main([path, path]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_exits_one_and_writes_json(
        self, tmp_path, monkeypatch, capsys
    ):
        path_a = _record(tmp_path, "clean")
        monkeypatch.setattr(scheduler_mod, "AntRngStreams", _PerturbedStreams)
        path_b = _record(tmp_path, "perturbed")
        out = str(tmp_path / "report.json")
        assert diff_main([path_a, path_b, "--json", out]) == 1
        assert "DIVERGENT" in capsys.readouterr().out
        with open(out) as handle:
            report = json.load(handle)
        assert report["first_divergence"]["ant"] == TARGET_ANT

    def test_missing_bundle_exits_two(self, tmp_path, capsys):
        assert diff_main([str(tmp_path / "nope"), str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        path = _record(tmp_path, "bundle", draws="off")
        assert diff_main([path, path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_report_json_is_byte_stable(self, tmp_path):
        path = _record(tmp_path, "bundle", draws="digest")
        report = diff_bundles(path, path)
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        write_report(report, out_a)
        write_report(diff_bundles(path, path), out_b)
        with open(out_a, "rb") as ha, open(out_b, "rb") as hb:
            assert ha.read() == hb.read()
