"""Differential-testing harness: the construction backends are equivalent.

The parallel scheduler ships two interchangeable ant-construction engines —
the lockstep batch engine (``vectorized``) and the scalar per-ant reference
engine (``loop``). Their *decisions* must be bit-identical for a given
seed: same schedules, same costs, same iteration traces, same telemetry
event stream shape. Only the simulated cost accounting may differ (the
loop backend charges the divergent serialized-lane kernel).

``--backend-pairs A:B[,C:D...]`` selects which pairs are compared
(default ``loop:vectorized``); an ``X:X`` pair checks one backend against
itself, i.e. pure seeded determinism. The sequential scheduler runs over
the same hypothesis-generated regions as a third, independent
implementation: it cannot be bit-identical (different algorithm), so it is
held to the shared semantic invariants instead.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import ACOParams, GPUParams
from repro.aco.sequential import SequentialACOScheduler
from repro.ddg import DDG
from repro.machine import amd_vega20
from repro.parallel import ParallelACOScheduler
from repro.rp.liveness import peak_pressure
from repro.schedule.validate import validate_schedule
from repro.telemetry import MemorySink, Telemetry
from strategies import make_region, medium_regions

#: One wavefront keeps the scalar reference backend fast enough for
#: hypothesis; the engines' equivalence is geometry-independent (the
#: per-ant streams are spawn-indexed) and the seed sweep covers more ants.
GPU = GPUParams(blocks=1)

#: Both pheromone-update strategies must be backend-bit-identical: the
#: strategy only rewrites the tau trajectory, which every backend reads
#: identically (see repro.aco.strategy).
STRATEGIES = ("as", "mmas")

#: Golden regions pinned alongside the generated ones: the paper's running
#: example scale and the telemetry-golden region shapes.
GOLDEN_REGIONS = [
    ("reduce", 3, 30),
    ("sort", 5, 25),
    ("stencil", 1, 40),
]


def _run(backend, ddg, seed, telemetry=None, strategy="as"):
    scheduler = ParallelACOScheduler(
        amd_vega20(), params=ACOParams(strategy=strategy), gpu_params=GPU,
        backend=backend, telemetry=telemetry,
    )
    return scheduler.schedule(ddg, seed=seed)


def _fingerprint(result):
    """Everything two equivalent backends must agree on, bit for bit."""
    return (
        tuple(result.schedule.order),
        tuple(result.schedule.cycles),
        result.schedule.length,
        result.rp_cost_value,
        tuple(sorted((cls.name, v) for cls, v in result.peak.items())),
        result.pass1.invoked,
        result.pass1.iterations,
        result.pass1.trace,
        result.pass2.invoked,
        result.pass2.iterations,
        result.pass2.trace,
    )


def _event_counts(backend, ddg, seed, strategy="as"):
    sink = MemorySink()
    _run(backend, ddg, seed, telemetry=Telemetry(sink=sink), strategy=strategy)
    return Counter(r["event"] for r in sink.records)


def _explain_divergence(a, b, ddg, seed, strategy="as"):
    """Re-run both backends recorded at full draw level and localize.

    Returns the differ's human-readable first-divergence report; also
    writes the JSON report into ``REPRO_DIVERGENCE_DIR`` when set (CI
    uploads that directory as the failure artifact).
    """
    import os
    import tempfile

    from repro.obs.diff import diff_bundles, render_report, write_report
    from repro.obs.record import RunRecorder

    out_dir = os.environ.get("REPRO_DIVERGENCE_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    else:
        out_dir = tempfile.mkdtemp(prefix="repro-divergence-")
    paths = []
    for backend in (a, b):
        recorder = RunRecorder(draws="full")
        _run(
            backend, ddg, seed,
            telemetry=Telemetry(recorder=recorder), strategy=strategy,
        )
        paths.append(
            recorder.save(
                os.path.join(out_dir, "%s-vs-%s-%s" % (a, b, backend))
            )
        )
    report = diff_bundles(paths[0], paths[1])
    write_report(
        report, os.path.join(out_dir, "first-divergence-%s-vs-%s.json" % (a, b))
    )
    return render_report(report)


def _assert_bit_identical(a, b, ddg, seed, strategy="as"):
    """Fingerprint equality with first-divergence localization on failure."""
    fp_a = _fingerprint(_run(a, ddg, seed, strategy=strategy))
    fp_b = _fingerprint(_run(b, ddg, seed, strategy=strategy))
    if fp_a == fp_b:
        return
    pytest.fail(
        "backends %r and %r diverged (seed %d, strategy %s):\n%s"
        % (a, b, seed, strategy, _explain_divergence(a, b, ddg, seed, strategy))
    )


# Module-level rather than a TestBackendPairs method: hypothesis treats
# each class instance as a separate executor, and the backend_pair
# parametrization would trip HealthCheck.differing_executors.
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@pytest.mark.parametrize("strategy", STRATEGIES)
@given(region=medium_regions())
def test_hypothesis_regions_bit_identical(backend_pair, strategy, region):
    a, b = backend_pair
    ddg = DDG(region)
    _assert_bit_identical(a, b, ddg, seed=7, strategy=strategy)


class TestBackendPairs:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("spec", GOLDEN_REGIONS, ids=lambda s: "%s-%d" % (s[0], s[2]))
    def test_golden_regions_bit_identical(self, backend_pair, spec, strategy):
        a, b = backend_pair
        ddg = DDG(make_region(*spec))
        _assert_bit_identical(a, b, ddg, seed=11, strategy=strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("spec", GOLDEN_REGIONS[:1], ids=lambda s: s[0])
    def test_telemetry_event_counts_match(self, backend_pair, spec, strategy):
        a, b = backend_pair
        ddg = DDG(make_region(*spec))
        counts_a = _event_counts(a, ddg, seed=11, strategy=strategy)
        counts_b = _event_counts(b, ddg, seed=11, strategy=strategy)
        assert counts_a == counts_b

    def test_strategy_label_travels_with_pass_starts(self, backend_pair):
        ddg = DDG(make_region("reduce", 3, 30))
        for backend in backend_pair:
            for strategy in STRATEGIES:
                sink = MemorySink()
                _run(
                    backend, ddg, seed=11,
                    telemetry=Telemetry(sink=sink), strategy=strategy,
                )
                starts = sink.by_type("pass_start")
                assert starts
                assert {r["strategy"] for r in starts} == {strategy}

    def test_backend_label_travels_with_kernel_launches(self, backend_pair):
        ddg = DDG(make_region("reduce", 3, 30))
        for backend in backend_pair:
            sink = MemorySink()
            _run(backend, ddg, seed=11, telemetry=Telemetry(sink=sink))
            launches = sink.by_type("kernel_launch")
            assert launches
            assert {r["backend"] for r in launches} == {backend}


class TestCostModelsDiffer:
    """Identical decisions, different simulated kernels: the loop backend's
    serialized-lane accounting must charge strictly more kernel time."""

    def test_loop_kernel_seconds_exceed_vectorized(self):
        ddg = DDG(make_region("sort", 5, 25))
        vec = _run("vectorized", ddg, seed=11)
        loop = _run("loop", ddg, seed=11)
        assert _fingerprint(vec) == _fingerprint(loop)
        vec_kernel = vec.pass1.kernel_seconds + vec.pass2.kernel_seconds
        loop_kernel = loop.pass1.kernel_seconds + loop.pass2.kernel_seconds
        assert loop_kernel > vec_kernel


class TestSequentialLeg:
    """The third implementation: held to semantic invariants, not bits."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(region=medium_regions())
    def test_all_three_produce_valid_schedules(self, region):
        ddg = DDG(region)
        machine = amd_vega20()
        seq = SequentialACOScheduler(machine).schedule(ddg, seed=7)
        results = [seq, _run("loop", ddg, seed=7), _run("vectorized", ddg, seed=7)]
        for result in results:
            validate_schedule(result.schedule, ddg)
            assert sorted(result.schedule.order) == list(range(len(region)))
            assert result.peak == peak_pressure(result.schedule)

    def test_sequential_is_seed_deterministic(self):
        ddg = DDG(make_region("reduce", 3, 30))
        machine = amd_vega20()
        first = SequentialACOScheduler(machine).schedule(ddg, seed=7)
        second = SequentialACOScheduler(machine).schedule(ddg, seed=7)
        assert tuple(first.schedule.order) == tuple(second.schedule.order)
        assert tuple(first.schedule.cycles) == tuple(second.schedule.cycles)
