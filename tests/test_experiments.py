"""Tests for the experiment harness (report rendering, context, post-hoc
thresholding) and a smoke test of every experiment at test scale."""

import pytest

from repro.experiments import EXPERIMENTS, SCALES, ExperimentTable
from repro.experiments.common import (
    ExperimentContext,
    threshold_pick,
    thresholded_compile_seconds,
)


@pytest.fixture(scope="module")
def context():
    # A module-scoped fresh context at the smallest scale.
    return ExperimentContext(SCALES["test"])


class TestExperimentTable:
    def test_render_basic(self):
        table = ExperimentTable("Title", ("A", "B"))
        table.add_row("x", 1)
        table.add_row("longer", 2.5)
        text = table.render()
        assert "Title" in text
        assert "longer" in text
        assert "2.50" in text

    def test_row_arity_checked(self):
        table = ExperimentTable("T", ("A", "B"))
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_notes_rendered(self):
        table = ExperimentTable("T", ("A",))
        table.add_note("hello")
        assert "note: hello" in table.render()


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"test", "default", "large"}

    def test_bad_env_scale(self, monkeypatch, capsys):
        """The CLI scale comes from ``--scale`` alone: a stray
        ``REPRO_SCALE`` is never read."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "bogus")
        assert main(["not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestContext:
    def test_suite_cached(self, context):
        assert context.suite is context.suite

    def test_runs_cached(self, context):
        assert context.run("baseline") is context.run("baseline")

    def test_unknown_run_kind(self, context):
        with pytest.raises(ValueError):
            context.run("bogus")

    def test_speedup_records_comparable(self, context):
        records = context.speedup_records()
        assert records, "expected at least one comparable region at test scale"
        for record in records:
            assert record.speedup > 0
            assert record.pass_index in (1, 2)
            assert record.iterations >= 1

    def test_threshold_pick_monotone(self, context):
        """Raising the threshold can only move regions back to heuristic."""
        run = context.run("parallel")
        pick0, invoked0 = threshold_pick(context, 0)
        pick99, invoked99 = threshold_pick(context, 10**6)
        for _kernel, outcome in run.all_regions():
            if invoked99(outcome):
                assert invoked0(outcome)

    def test_thresholded_compile_seconds_monotone(self, context):
        run = context.run("parallel")
        low = thresholded_compile_seconds(context, run, 0)
        high = thresholded_compile_seconds(context, run, 10**6)
        assert high <= low
        assert high >= run.base_seconds


class TestAllExperimentsSmoke:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runs_and_renders(self, context, name):
        result = EXPERIMENTS[name](context)
        tables = result if isinstance(result, list) else [result]
        for table in tables:
            text = table.render()
            assert text.strip()
            assert "scale=test" in text
