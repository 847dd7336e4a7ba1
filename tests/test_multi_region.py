"""Tests for multi-region batch scheduling (the Section VII extension)."""

import pytest

from repro.config import GPUParams
from repro.ddg import DDG
from repro.errors import GPUSimError
from repro.machine import amd_vega20
from repro.parallel import BatchItem, MultiRegionScheduler
from repro.rp import peak_pressure
from repro.schedule import validate_schedule

from conftest import make_region


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


def _items(count, size=30, pattern="reduce"):
    return [
        BatchItem(ddg=DDG(make_region(pattern, seed, size)), seed=seed)
        for seed in range(count)
    ]


class TestPartitioning:
    def test_every_region_gets_a_block(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=8))
        items = [
            BatchItem(ddg=DDG(make_region("scan", s, size)))
            for s, size in enumerate([10, 80, 10, 10])
        ]
        blocks = scheduler._partition_blocks(items)
        assert sum(blocks) == 8
        assert all(b >= 1 for b in blocks)
        assert blocks[1] == max(blocks)  # the big region gets the most

    def test_too_many_regions_rejected(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=2))
        with pytest.raises(GPUSimError):
            scheduler._partition_blocks(_items(3))

    def test_empty_batch_rejected(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=4))
        with pytest.raises(GPUSimError):
            scheduler.schedule_batch([])


class TestBatchScheduling:
    def test_schedules_are_legal(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        items = _items(3, size=25)
        batch = scheduler.schedule_batch(items)
        assert len(batch.results) == 3
        for item, result in zip(items, batch.results):
            validate_schedule(result.schedule, item.ddg, machine)
            assert result.peak == peak_pressure(result.schedule)

    def test_amortization_beats_individual_launches(self, machine):
        """The whole point: one launch for N regions is faster than N
        launches, when ACO actually runs."""
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        batch = scheduler.schedule_batch(_items(6, size=30))
        if batch.unbatched_seconds > 0:
            assert batch.seconds < batch.unbatched_seconds
            assert batch.amortization_speedup > 1.5

    def test_noop_batch_costs_nothing(self, machine):
        """Regions whose heuristics are optimal never launch a kernel."""
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=4))
        items = [BatchItem(ddg=DDG(make_region("scan", 1, 4)))]
        batch = scheduler.schedule_batch(items)
        if all(
            not r.pass1.invoked and not r.pass2.invoked for r in batch.results
        ):
            assert batch.seconds == 0.0

    def test_deterministic(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        a = scheduler.schedule_batch(_items(3))
        b = scheduler.schedule_batch(_items(3))
        assert a.seconds == b.seconds
        for ra, rb in zip(a.results, b.results):
            assert ra.schedule == rb.schedule


class TestPerRegionProvenance:
    def test_attempts_and_backends_on_the_clean_path(self, machine):
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        batch = scheduler.schedule_batch(_items(3, size=25))
        assert batch.attempts == (1, 1, 1)
        backend = scheduler._region_scheduler(blocks=2).backend
        assert batch.final_backends == (backend,) * 3
        assert batch.retried_regions == 0

    def test_run_slot_is_pure_per_region(self, machine):
        """The contract the fleet layer rests on: a slot's outcome depends
        only on (item, blocks), not on when or where it runs."""
        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        item = _items(1, size=25)[0]
        a = scheduler.run_slot(item, 2)
        b = scheduler.run_slot(item, 2)
        assert a.result.schedule == b.result.schedule
        assert a.seconds == b.seconds
        assert (a.attempts, a.final_backend) == (b.attempts, b.final_backend)


class TestFleetDelegation:
    def test_fleet_param_shards_and_stays_bit_identical(self, machine):
        from repro.config import FleetParams

        scheduler = MultiRegionScheduler(machine, gpu_params=GPUParams(blocks=6))
        single = scheduler.schedule_batch(_items(4, size=25))
        sharded = scheduler.schedule_batch(
            _items(4, size=25), fleet=FleetParams(num_shards=2)
        )
        assert sharded.seconds == single.seconds
        assert sharded.attempts == single.attempts
        assert sharded.final_backends == single.final_backends
        for ra, rb in zip(single.results, sharded.results):
            assert ra.schedule == rb.schedule
