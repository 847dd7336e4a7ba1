"""Tests for the structured telemetry layer.

Covers the sinks, the event schema and JSONL round-trip, the pass
scopes, the report renderers — and the layer's core
guarantee: with telemetry enabled, seeded results are bit-identical to the
disabled default (which in turn matches the values recorded from the seed
commit, embedded below as goldens).
"""

from __future__ import annotations

import math
import os

import pytest

from repro.aco import SequentialACOScheduler
from repro.config import GPUParams
from repro.ddg import DDG
from repro.errors import TelemetryError
from repro.machine import simple_test_target
from repro.parallel import MultiRegionScheduler, ParallelACOScheduler
from repro.pipeline import CompilePipeline
from repro.obs import AggregatingSink, MetricsAggregator, render_metrics, summarize_trace
from repro.obs.__main__ import main as obs_main
from repro.telemetry import (
    JSONLSink,
    MemorySink,
    NullSink,
    TeeSink,
    Telemetry,
    read_trace,
    read_trace_lenient,
    validate_event,
)

from conftest import make_region

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "convergence_trace.jsonl")


class TestSinksAndSchema:
    def test_null_sink_disables_everything(self):
        tele = Telemetry()
        assert not tele.active
        tele.emit("iteration", region="r", pass_index=1, iteration=0,
                  winner_cost=1.0, best_cost=1.0)  # silently dropped

    def test_memory_sink_records_and_validates(self):
        sink = MemorySink()
        tele = Telemetry(sink=sink)
        assert tele.active
        tele.emit("region_start", region="r", size=3, scheduler="s")
        tele.emit("region_start", region="q", size=4, scheduler="s")
        assert [r["seq"] for r in sink.records] == [0, 1]
        assert len(sink.by_type("region_start")) == 2
        for record in sink.records:
            validate_event(record)

    def test_emit_rejects_unknown_event_and_missing_fields(self):
        tele = Telemetry(sink=MemorySink())
        with pytest.raises(TelemetryError):
            tele.emit("no_such_event")
        with pytest.raises(TelemetryError):
            tele.emit("region_start", region="r")  # size, scheduler missing

    def test_jsonl_round_trips_through_validator(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JSONLSink(path)
        tele = Telemetry(sink=sink)
        scope = tele.pass_scope("r", 1, "seq", 10.0, 20.0)
        scope.iteration(15.0, 15.0)
        scope.iteration(float("inf"), 15.0)  # dead iteration -> null in JSON
        scope.end(invoked=True, iterations=2, final_cost=15.0,
                  hit_lower_bound=False, seconds=1e-5)
        tele.close()
        records = read_trace(path)
        assert [r["event"] for r in records] == [
            "pass_start", "iteration", "iteration", "pass_end",
        ]
        assert records[-2]["winner_cost"] is None  # strict JSON, no Infinity

    def test_jsonl_lazy_open(self, tmp_path):
        path = str(tmp_path / "never.jsonl")
        sink = JSONLSink(path)
        sink.close()
        assert not os.path.exists(path)
        assert sink.records_written == 0

    def test_tee_sink(self, tmp_path):
        memory = MemorySink()
        sink = TeeSink(memory, NullSink())
        assert sink.enabled
        Telemetry(sink=sink).emit("region_start", region="r", size=1, scheduler="s")
        assert len(memory.records) == 1

    def test_validate_trace_flags_corrupt_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"v": 1, "seq": 0, "event": "region_start", '
                         '"region": "r", "size": 1, "scheduler": "s"}\n{broken\n')
        with pytest.raises(TelemetryError, match=r"bad\.jsonl:2: not valid JSON"):
            read_trace(path)
        # A record iterable is checked the same way, by position.
        with pytest.raises(TelemetryError, match="record 1: unknown event type"):
            read_trace([read_trace_lenient(path)[0][0], {"v": 1, "seq": 1, "event": "nope"}])

    def test_kernel_launch_carries_attribution_fields(self):
        """Satellite of the profiler work: every simulated launch reports
        its full charge_totals() split, attributed seconds, batch count and
        coalescing mode — as *optional* extras, so the record stays valid
        under the unchanged schema-v1 required-field lists."""
        sink = MemorySink()
        _schedule_both(Telemetry(sink=sink))
        launches = sink.by_type("kernel_launch")
        assert launches
        for rec in launches:
            validate_event(rec)
            assert rec["batches"] >= 1
            assert isinstance(rec["coalesced"], bool)
            assert rec["coalescing_factor"] >= 1.0
            split = sum(
                rec[k]
                for k in (
                    "compute_seconds",
                    "memory_seconds",
                    "alloc_seconds",
                    "uniform_seconds",
                )
            )
            assert split == pytest.approx(rec["kernel_seconds"])

    def test_fixture_trace_is_schema_valid(self):
        records = read_trace(FIXTURE)
        assert records
        assert read_trace(records) == records
        types = {r["event"] for r in records}
        assert {"pass_start", "iteration", "pass_end", "kernel_launch"} <= types


class TestSessionAndScope:
    def test_components_without_telemetry_are_inert(self):
        """A component built without ``telemetry=`` owns an inert one; an
        injected one is kept as is."""
        machine = simple_test_target()
        built = [
            SequentialACOScheduler(machine),
            ParallelACOScheduler(machine),
            MultiRegionScheduler(machine),
            CompilePipeline(machine),
        ]
        assert not any(c.telemetry.active for c in built)
        assert len({id(c.telemetry) for c in built}) == len(built)
        tele = Telemetry(sink=MemorySink())
        assert CompilePipeline(machine, telemetry=tele).telemetry is tele

    def test_pass_scope_trace_derivation(self):
        tele = Telemetry()  # disabled sink: scope still records locally
        scope = tele.pass_scope("r", 2, "seq", 1.0, 5.0)
        scope.iteration(4.0, 4.0)
        scope.iteration(None, 4.0)
        scope.iteration(float("inf"), 4.0)
        assert scope.trace == (4.0, float("inf"), float("inf"))

    def test_pass_scope_end_feeds_aggregator(self):
        aggregator = MetricsAggregator()
        tele = Telemetry(sink=AggregatingSink(aggregator))
        scope = tele.pass_scope("r", 1, "seq", 1.0, 5.0)
        scope.iteration(None, 5.0)
        scope.iteration(3.0, 3.0)
        scope.end(invoked=True, iterations=2, final_cost=3.0,
                  hit_lower_bound=True, seconds=2e-6)
        assert aggregator.counters["pass1.regions"] == 1
        assert aggregator.counters["pass1.iterations"] == 2
        assert aggregator.histograms["pass1.latency_seconds"].count == 1


class TestReport:
    def test_summarize_fixture(self):
        text = summarize_trace(FIXTURE)
        assert "trace summary" in text
        assert "GPU time split" in text
        assert "iterations-to-convergence" in text

    def test_top_ranks_that_many_regions(self, capsys):
        assert obs_main([FIXTURE, "--top", "1"]) == 0
        assert "top 1 regions by simulated scheduling time:" in capsys.readouterr().out

    @pytest.mark.parametrize("top", [0, -2])
    def test_top_below_one_rejected(self, top, capsys):
        with pytest.raises(SystemExit) as info:
            obs_main([FIXTURE, "--top", str(top)])
        assert info.value.code == 2
        assert "--top must be >= 1" in capsys.readouterr().err
        with pytest.raises(ValueError):
            summarize_trace(FIXTURE, top=top)

    def test_summarize_accepts_record_list(self):
        text = summarize_trace(read_trace(FIXTURE))
        assert "trace summary" in text

    def test_render_metrics(self):
        aggregator = MetricsAggregator()
        assert render_metrics(aggregator) == "(no metrics collected)\n"
        aggregator.consume_many(read_trace(FIXTURE))
        aggregator.gauges["fleet.shards"] = 2.0
        lines = render_metrics(aggregator).splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(
            list(aggregator.counters)
            + list(aggregator.gauges)
            + list(aggregator.histograms)
        )
        assert {line.split()[1] for line in lines} == {"counter", "gauge", "histogram"}
        assert lines[names.index("fleet.shards")].split()[1:] == ["gauge", "2"]
        latency = lines[names.index("pass1.latency_seconds")]
        assert "count=" in latency and "sum=" in latency
        assert "p50=" in latency and "p95=" in latency and "p99=" in latency

    def test_summarize_empty_file_is_friendly(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        text = summarize_trace(str(path))
        assert "no valid records" in text

    def test_summarize_truncated_trace_counts_skipped(self, tmp_path):
        good = open(FIXTURE).readline()
        path = tmp_path / "trunc.jsonl"
        # One valid record, one mid-write truncation, one alien line.
        path.write_text(good + good[: len(good) // 2] + "\nnot json at all\n")
        text = summarize_trace(str(path))
        assert "trace summary: 1 record(s)" in text
        assert "skipped 2 invalid or truncated line(s)" in text

    def test_summarize_record_list_skips_invalid(self):
        records = read_trace(FIXTURE)
        text = summarize_trace(records + [{"event": "bogus"}, {}])
        assert "skipped 2 invalid or truncated line(s)" in text

    def test_read_trace_lenient(self, tmp_path):
        good = open(FIXTURE).readline()
        path = tmp_path / "t.jsonl"
        path.write_text(good + "{broken\n" + good)
        records, skipped = read_trace_lenient(str(path))
        assert len(records) == 2
        assert skipped == 1
        assert read_trace_lenient(records + [{"event": "bogus"}]) == (records, 1)


def _schedule_both(telemetry):
    """The two golden scenarios, run under ``telemetry`` (None = inert)."""
    machine = simple_test_target()
    seq = SequentialACOScheduler(machine, telemetry=telemetry).schedule(
        DDG(make_region("reduce", 3, 30)), seed=7
    )
    par = ParallelACOScheduler(
        machine, gpu_params=GPUParams(blocks=2), telemetry=telemetry
    ).schedule(DDG(make_region("sort", 5, 25)), seed=11)
    return seq, par


def _fingerprint(result):
    passes = []
    for p in (result.pass1, result.pass2):
        passes.append(
            (p.invoked, p.iterations, p.initial_cost, p.final_cost, p.seconds, p.trace)
        )
    return (
        tuple(result.schedule.order),
        tuple(result.schedule.cycles),
        result.schedule.length,
        result.seconds,
        tuple(passes),
    )


class TestDeterminism:
    """Telemetry observes; it must never steer.

    The golden values below were recorded from the seed commit (before the
    telemetry layer existed). Telemetry off must reproduce them exactly,
    and telemetry on must match telemetry off bit for bit.
    """

    SEQ_ORDER = (1, 2, 7, 8, 10, 17, 5, 19, 14, 9, 11, 16, 21, 23, 0, 20,
                 3, 4, 15, 6, 18, 22, 24, 25, 12, 26, 13, 27, 28, 29)
    SEQ_CYCLES = (80, 0, 1, 101, 102, 29, 123, 2, 3, 55, 4, 56, 147, 168,
                  54, 122, 76, 28, 143, 53, 100, 77, 144, 79, 145, 146,
                  167, 188, 190, 191)
    PAR_ORDER = (0, 2, 4, 5, 7, 6, 3, 8, 9, 15, 14, 1, 10, 11, 12, 13, 16,
                 17, 18, 19, 21, 20, 22, 23, 24)
    PAR_CYCLES = (0, 53, 1, 29, 2, 3, 28, 27, 49, 50, 73, 74, 75, 76, 52,
                  51, 77, 78, 79, 80, 82, 81, 83, 84, 85)

    def test_disabled_matches_seed_goldens(self):
        seq, par = _schedule_both(None)

        assert tuple(seq.schedule.order) == self.SEQ_ORDER
        assert tuple(seq.schedule.cycles) == self.SEQ_CYCLES
        assert seq.schedule.length == 192
        assert seq.pass1.trace == (30014.0,)
        assert seq.pass1.seconds == 0.000111496
        assert seq.pass2.trace == (float("inf"),)
        assert seq.pass2.seconds == 7.903599999999998e-05
        assert seq.seconds == 0.00019053199999999998

        assert tuple(par.schedule.order) == self.PAR_ORDER
        assert tuple(par.schedule.cycles) == self.PAR_CYCLES
        assert par.schedule.length == 86
        assert par.pass1.trace == (20012.0,)
        # The kernel-seconds goldens below were re-recorded when the colony
        # moved to spawn-indexed per-ant RNG streams (the schedule goldens
        # above survived the change; per-step wave-max charges did not).
        assert par.pass1.seconds == 5.958740277777778e-05
        assert par.pass1.kernel_seconds == 3.3327777777777777e-06
        assert par.pass1.transfer_seconds == 1.6254625e-05
        assert par.pass1.launch_seconds == 4e-05
        assert par.pass2.trace == (float("inf"),)
        assert par.pass2.kernel_seconds == 2.283888888888889e-06
        assert par.seconds == 0.00011812591666666668

    def test_enabled_is_bit_identical_to_disabled(self, tmp_path):
        base_seq, base_par = _schedule_both(None)
        sink = TeeSink(MemorySink(), JSONLSink(str(tmp_path / "t.jsonl")))
        tele = Telemetry(sink=sink)
        traced_seq, traced_par = _schedule_both(tele)
        tele.close()

        assert _fingerprint(traced_seq) == _fingerprint(base_seq)
        assert _fingerprint(traced_par) == _fingerprint(base_par)
        # ... and the trace it wrote is schema-valid and non-trivial.
        records = read_trace(str(tmp_path / "t.jsonl"))
        assert {r["event"] for r in records} >= {
            "pass_start", "iteration", "pass_end", "kernel_launch", "transfer",
        }
