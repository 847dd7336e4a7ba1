"""Fleet differential tests: sharded == single-device, bit for bit.

The tentpole acceptance surface: for any shard count and any
eventually-recovering worker fault plan, the fleet's merged
:class:`~repro.parallel.multi_region.BatchResult` must be bit-identical
to the single-device run — schedules, costs, errors, attempts, backends
and every simulated second. Plus the RNG-stream half of the contract: a
re-dispatched region replays the *same* per-ant draw streams, proven by
diffing recorded ``rng.jsonl`` entries of a crash-riddled fleet run
against the single-device recording.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FleetParams
from repro.fleet import FleetSupervisor
from repro.fleet.chaos import batches_identical, fleet_items, fleet_scheduler
from repro.gpusim.faults import DEFAULT_WORKER_CHAOS_RATES, FaultPlan
from repro.machine import amd_vega20
from repro.obs.diff import diff_bundles
from repro.obs.record import RunRecorder
from repro.telemetry import Telemetry

SIZES = (8, 10, 12, 9)


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


@pytest.fixture(scope="module")
def items(machine):
    return fleet_items(machine, sizes=SIZES)


@pytest.fixture(scope="module")
def single(machine, items):
    return fleet_scheduler(machine).schedule_batch(items)


def _fleet(machine, items, num_shards, worker_faults=None):
    return FleetSupervisor(
        fleet_scheduler(machine),
        FleetParams(num_shards=num_shards),
        worker_faults=worker_faults,
    ).schedule_batch(items)


PLANS = {
    "fault-free": None,
    "crash": FaultPlan(seed=13, rates={"worker_crash": 1.0}),
    "hang": FaultPlan(seed=13, rates={"worker_hang": 1.0}),
}


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_fleet_matches_single_device(
        self, machine, items, single, num_shards, plan
    ):
        fleet = _fleet(machine, items, num_shards, worker_faults=PLANS[plan])
        assert batches_identical(single, fleet.batch)

    def test_differential_surface_is_field_exact(self, machine, items, single):
        batch = _fleet(
            machine, items, 4, worker_faults=PLANS["crash"]
        ).batch
        assert batch.seconds == single.seconds
        assert batch.unbatched_seconds == single.unbatched_seconds
        assert batch.blocks_per_region == single.blocks_per_region
        assert batch.errors == single.errors
        assert batch.attempts == single.attempts
        assert batch.final_backends == single.final_backends
        for a, b in zip(single.results, batch.results):
            assert a.schedule == b.schedule
            assert a.rp_cost_value == b.rp_cost_value
            assert a.seconds == b.seconds

    @given(
        num_shards=st.integers(min_value=1, max_value=5),
        chaos_seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=6, deadline=None)
    def test_identity_holds_for_any_shards_and_chaos(
        self, machine, items, single, num_shards, chaos_seed
    ):
        plan = FaultPlan(seed=chaos_seed, rates=dict(DEFAULT_WORKER_CHAOS_RATES))
        fleet = _fleet(machine, items, num_shards, worker_faults=plan)
        assert batches_identical(single, fleet.batch)


def _rng_entries(path):
    """rng.jsonl entries keyed by (region, pass, iteration), trace ids
    dropped (trace identity is run-layout-specific, draws are not)."""
    entries = {}
    with open(os.path.join(path, "rng.jsonl")) as handle:
        for line in handle:
            entry = json.loads(line)
            key = (entry["region"], entry["pass"], entry["iteration"])
            assert key not in entries  # each iteration keys exactly once
            entries[key] = entry.get("ants")
    return entries


class TestRngStreams:
    def test_redispatch_preserves_per_region_draw_streams(
        self, tmp_path, machine, items
    ):
        """A crash fires before slot work, so every region's ACO still runs
        exactly once — with ant draw streams identical to the single-device
        run, whichever worker (or the host) ended up running it."""
        recordings = {}
        for name, runner in (
            ("single", lambda s: s.schedule_batch(items)),
            (
                "fleet",
                lambda s: FleetSupervisor(
                    s,
                    FleetParams(num_shards=2),
                    worker_faults=PLANS["crash"],
                ).schedule_batch(items),
            ),
        ):
            recorder = RunRecorder(draws="digest")
            scheduler = fleet_scheduler(machine)
            scheduler = type(scheduler)(
                machine,
                params=scheduler.params,
                gpu_params=scheduler.gpu_params,
                telemetry=Telemetry(recorder=recorder),
            )
            runner(scheduler)
            recordings[name] = recorder.save(str(tmp_path / name))
        single_draws = _rng_entries(recordings["single"])
        fleet_draws = _rng_entries(recordings["fleet"])
        assert single_draws.keys() == fleet_draws.keys()
        assert single_draws == fleet_draws


class TestShardDiffLevel:
    """The ``shards`` granularity of repro.obs.diff: supervision history
    diverges (worker ids) while the merged schedules stay identical."""

    @staticmethod
    def _bundle(tmp_path, name, worker):
        recorder = RunRecorder(draws="off")
        recorder.record_schedule(
            "shipped", region="r0", seed=7, length=5, rp_cost=1.0
        )
        recorder.record_schedule(
            "shard",
            region="r0",
            seed=7,
            slot=0,
            worker=worker,
            dispatch=0,
            blocks=2,
            error=None,
        )
        return recorder.save(str(tmp_path / name))

    def test_divergence_localized_to_the_shard_entry(self, tmp_path):
        path_a = self._bundle(tmp_path, "a", worker=0)
        path_b = self._bundle(tmp_path, "b", worker=1)
        report = diff_bundles(path_a, path_b)
        assert not report["identical"]
        statuses = {lv["level"]: lv["status"] for lv in report["levels"]}
        assert statuses["schedules"] == "identical"
        assert statuses["shards"] == "divergent"
        fd = report["first_divergence"]
        assert fd["level"] == "shards"

    def test_identical_supervision_history_is_clean(self, tmp_path):
        path_a = self._bundle(tmp_path, "a", worker=0)
        path_b = self._bundle(tmp_path, "b", worker=0)
        assert diff_bundles(path_a, path_b)["identical"]
