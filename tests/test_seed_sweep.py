"""Seed-sweep stress test: 50 seeds, both backends, one medium region.

Marked ``slow`` (the default pytest invocation skips it; the nightly CI
job runs ``-m slow``). For every seed the two construction backends must
produce bit-identical schedules, and no backend may ship a pass-2
schedule that violates the APRP pressure target derived from its pass-1
winner. The vectorized leg runs under the independent verifier
(``verify=True``), which raises on any APRP/dependence violation; the
per-seed bit-identity assertion transfers that guarantee to the loop leg,
and a direct spot check runs the loop leg itself under the verifier.
"""

from __future__ import annotations

import pytest

from repro.config import GPUParams
from repro.ddg import DDG
from repro.machine import amd_vega20
from repro.parallel import ParallelACOScheduler
from strategies import make_region

pytestmark = pytest.mark.slow

NUM_SEEDS = 50
GPU = GPUParams(blocks=1)


@pytest.fixture(scope="module")
def medium_ddg():
    """A medium region (~40 instructions): both passes run, stalls happen."""
    return DDG(make_region("reduce", 3, 40))


def _run(backend, ddg, seed, verify=False):
    scheduler = ParallelACOScheduler(
        amd_vega20(), gpu_params=GPU, backend=backend, verify=verify
    )
    return scheduler.schedule(ddg, seed=seed)


def _fingerprint(result):
    return (
        tuple(result.schedule.order),
        tuple(result.schedule.cycles),
        result.rp_cost_value,
        tuple(sorted((cls.name, v) for cls, v in result.peak.items())),
        result.pass1.trace,
        result.pass2.trace,
    )


def test_sweep_backends_bit_identical_and_aprp_clean(medium_ddg):
    for seed in range(NUM_SEEDS):
        # verify=True independently rechecks the shipped schedule,
        # including the pass-2 APRP target — a violation raises.
        vec = _run("vectorized", medium_ddg, seed, verify=True)
        loop = _run("loop", medium_ddg, seed)
        assert _fingerprint(vec) == _fingerprint(loop), "seed %d diverged" % seed


def test_loop_backend_survives_the_verifier(medium_ddg):
    # Direct spot check: the scalar engine under the verifier + sanitizer
    # (index checks at its scalar writes), not just by transitivity.
    for seed in (0, 17, 49):
        _run("loop", medium_ddg, seed, verify=True)


def test_sweep_is_deterministic_per_seed(medium_ddg):
    for seed in (0, 25, 49):
        for backend in ("vectorized", "loop"):
            first = _fingerprint(_run(backend, medium_ddg, seed))
            second = _fingerprint(_run(backend, medium_ddg, seed))
            assert first == second, "%s seed %d not deterministic" % (backend, seed)
