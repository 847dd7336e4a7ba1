"""Tests for the fleet supervisor: epochs, fault detection, recovery paths."""

import pytest

from repro.config import FleetParams, replace_params
from repro.errors import GPUSimError, WorkerCrash, WorkerHang
from repro.fleet import FleetSupervisor, HOST_WORKER, ShardWorker, outcome_digest
from repro.fleet.supervisor import HEARTBEAT_SECONDS, MAX_SLOT_REDISPATCHES
from repro.fleet.chaos import batches_identical, fleet_items, fleet_scheduler
from repro.fleet.worker import _corrupt
from repro.gpusim.faults import FaultPlan
from repro.machine import amd_vega20
from repro.telemetry import MemorySink, Telemetry


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


@pytest.fixture(scope="module")
def items(machine):
    return fleet_items(machine)


@pytest.fixture(scope="module")
def single(machine, items):
    return fleet_scheduler(machine).schedule_batch(items)


def _supervise(machine, items, num_shards, worker_faults=None, sink=None):
    scheduler = fleet_scheduler(machine)
    if sink is not None:
        scheduler = type(scheduler)(
            machine,
            params=scheduler.params,
            gpu_params=scheduler.gpu_params,
            telemetry=Telemetry(sink=sink),
        )
    return FleetSupervisor(
        scheduler, FleetParams(num_shards=num_shards), worker_faults=worker_faults
    ).schedule_batch(items)


class TestFaultFree:
    def test_single_epoch_no_recovery(self, machine, items, single):
        fleet = _supervise(machine, items, 2)
        assert fleet.epochs == 1
        assert fleet.dispatches == len(items)
        assert fleet.reassignments == 0
        assert fleet.restarts == 0
        assert fleet.host_fallback_regions == 0
        assert fleet.recovered_regions == 0
        assert all(count == 0 for count in fleet.worker_faults.values())
        assert batches_identical(single, fleet.batch)

    def test_makespan_beats_serial_and_efficiency_is_sane(
        self, machine, items, single
    ):
        fleet = _supervise(machine, items, 2)
        assert fleet.fleet_seconds < single.unbatched_seconds
        assert 0.5 < fleet.scaling_efficiency <= 1.0

    def test_more_shards_than_regions(self, machine, items, single):
        fleet = _supervise(machine, items, 8)
        assert batches_identical(single, fleet.batch)
        assert fleet.dispatches == len(items)

    def test_empty_batch_rejected(self, machine):
        with pytest.raises(GPUSimError):
            _supervise(machine, [], 2)


class TestCrashRecovery:
    def test_constant_crashes_exhaust_fleet_then_host_rescues(
        self, machine, items, single
    ):
        plan = FaultPlan(seed=1, rates={"worker_crash": 1.0})
        fleet = _supervise(machine, items, 2, worker_faults=plan)
        # Every dispatch crashes: both workers die, restart once (the
        # default budget), die again — then every region goes to the host.
        assert fleet.worker_faults["worker_crash"] == 4  # 2 workers x 2 lives
        assert fleet.restarts == 2
        assert fleet.host_fallback_regions == len(items)
        assert fleet.recovered_regions == len(items)
        assert fleet.serial_seconds > 0.0
        assert batches_identical(single, fleet.batch)

    def test_hang_detection_charges_heartbeat_latency(
        self, machine, items, single
    ):
        plan = FaultPlan(seed=1, rates={"worker_hang": 1.0})
        fleet = _supervise(machine, items, 2, worker_faults=plan)
        assert fleet.worker_faults["worker_hang"] == 4
        # Each hanged epoch costs one missed heartbeat on top of the
        # serial host rescue.
        assert fleet.fleet_seconds >= fleet.serial_seconds + 2 * HEARTBEAT_SECONDS
        assert batches_identical(single, fleet.batch)

    def test_straggler_demotion_after_restart_backoff(
        self, machine, items, single
    ):
        # Pinned plan: one crash in epoch 1; the restarted worker's backoff
        # head start dwarfs a slot's seconds, so it straggles next epoch.
        plan = FaultPlan(seed=0, rates={"worker_crash": 0.4})
        fleet = _supervise(machine, items, 4, worker_faults=plan)
        assert fleet.worker_faults["worker_crash"] == 1
        assert fleet.restarts == 1
        assert fleet.stragglers >= 1
        assert batches_identical(single, fleet.batch)


class TestCorruptionRecovery:
    def test_corrupt_returns_rejected_and_redispatched(
        self, machine, items, single
    ):
        plan = FaultPlan(seed=1, rates={"worker_corrupt": 1.0})
        fleet = _supervise(machine, items, 2, worker_faults=plan)
        # Workers survive corruption, so every slot burns its whole
        # re-dispatch budget before the host rescues it.
        assert fleet.restarts == 0
        assert fleet.worker_faults["worker_corrupt"] == (
            len(items) * MAX_SLOT_REDISPATCHES
        )
        assert fleet.host_fallback_regions == len(items)
        assert batches_identical(single, fleet.batch)

    def test_digest_convicts_a_perturbed_outcome(self, machine, items):
        outcome = fleet_scheduler(machine).run_slot(items[0], 2)
        digest = outcome_digest(outcome)
        assert outcome_digest(outcome) == digest  # stable
        assert outcome_digest(_corrupt(outcome)) != digest


class TestShardWorker:
    def test_worker_owns_a_device_clone(self, machine):
        scheduler = fleet_scheduler(machine)
        worker = ShardWorker(3, scheduler)
        assert worker.scheduler.device is not scheduler.device
        assert worker.scheduler.device == scheduler.device

    def test_crash_and_hang_burn_the_dispatch_counter(self, machine, items):
        scheduler = fleet_scheduler(machine)
        crash = ShardWorker(0, scheduler, FaultPlan(seed=1, rates={"worker_crash": 1.0}))
        with pytest.raises(WorkerCrash):
            crash.run_dispatch(0, items[0], 2)
        assert crash.dispatches == 1
        hang = ShardWorker(0, scheduler, FaultPlan(seed=1, rates={"worker_hang": 1.0}))
        with pytest.raises(WorkerHang):
            hang.run_dispatch(0, items[0], 2)
        assert hang.dispatches == 1

    def test_result_is_worker_independent(self, machine, items):
        scheduler = fleet_scheduler(machine)
        a = ShardWorker(0, scheduler).run_dispatch(0, items[0], 2)
        b = ShardWorker(7, scheduler).run_dispatch(0, items[0], 2)
        assert a.outcome.result.schedule == b.outcome.result.schedule
        assert a.outcome.seconds == b.outcome.seconds
        assert a.digest == b.digest


class TestTelemetry:
    def test_fleet_events_and_worker_stamping(self, machine, items):
        sink = MemorySink()
        _supervise(machine, items, 2, sink=sink)
        assert len(sink.by_type("fleet_start")) == 1
        dispatches = sink.by_type("shard_dispatch")
        assert len(dispatches) == len(items)
        assert {d["worker"] for d in dispatches} == {0, 1}
        end = sink.by_type("fleet_end")[0]
        assert end["num_shards"] == 2
        assert end["reassignments"] == 0
        # Events emitted inside a dispatch carry the ambient worker id.
        launches = [r for r in sink.by_type("kernel_launch") if "worker" in r]
        assert launches and all(r["worker"] in (0, 1) for r in launches)

    def test_recovery_events(self, machine, items):
        sink = MemorySink()
        plan = FaultPlan(seed=1, rates={"worker_crash": 1.0})
        _supervise(machine, items, 2, worker_faults=plan, sink=sink)
        faults = sink.by_type("worker_fault")
        assert faults and all(f["fault_class"] == "worker_crash" for f in faults)
        assert len(sink.by_type("worker_restart")) == 2
        reassigns = sink.by_type("reassign")
        assert reassigns
        # The final reassignments hand everything to the host.
        assert reassigns[-1]["from_worker"] == HOST_WORKER


class TestMaxMinStrategy:
    """MMAS reaches the batch and fleet paths through ACOParams alone."""

    @staticmethod
    def _mmas_scheduler(machine, sink):
        base = fleet_scheduler(machine)
        return type(base)(
            machine,
            params=replace_params(base.params, strategy="mmas"),
            gpu_params=base.gpu_params,
            telemetry=Telemetry(sink=sink),
        )

    def test_mmas_batch_and_fleet_are_bit_identical(self, machine, items):
        assert len(items) == 4
        sink = MemorySink()
        single = self._mmas_scheduler(machine, sink).schedule_batch(items)
        launches = sink.by_type("kernel_launch")
        assert launches and all(r["strategy"] == "mmas" for r in launches)

        fleet_sink = MemorySink()
        fleet = FleetSupervisor(
            self._mmas_scheduler(machine, fleet_sink), FleetParams(num_shards=2)
        ).schedule_batch(items)
        assert {d["worker"] for d in fleet_sink.by_type("shard_dispatch")} == {0, 1}
        fleet_launches = fleet_sink.by_type("kernel_launch")
        assert fleet_launches
        assert all(r["strategy"] == "mmas" for r in fleet_launches)
        assert batches_identical(single, fleet.batch)
