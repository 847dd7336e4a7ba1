"""Tests for the lane-vectorized colony and the parallel scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aco import PheromoneTable, SequentialACOScheduler
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.errors import ConfigError
from repro.gpusim import GPUDevice, KernelAccounting
from repro.ir.registers import VGPR
from repro.machine import amd_vega20, simple_test_target
from repro.parallel import DivergencePolicy, ParallelACOScheduler, RegionDeviceData, VectorizedColony
from repro.rp import PressureTracker, peak_pressure
from repro.schedule import Schedule, validate_schedule

from strategies import ddgs


def _make_colony(ddg, machine, blocks=2, seed=0, aco=None, **gpu_overrides):
    gpu = GPUParams(blocks=blocks, **gpu_overrides)
    params = aco or ACOParams()
    policy = DivergencePolicy.from_params(gpu, GPUDevice().wavefront_size)
    data = RegionDeviceData(ddg, machine, tight_ready_bound=gpu.tight_ready_list_bound)
    accounting = KernelAccounting(GPUDevice(), policy.num_wavefronts, coalesced=True)
    colony = VectorizedColony(data, params, policy, accounting, seed)
    return colony, data, params


class TestColonyPass1:
    def test_winner_is_valid_order(self, fig1_ddg, vega):
        colony, data, params = _make_colony(fig1_ddg, vega)
        pheromone = PheromoneTable(7, params)
        result = colony.run_rp_iteration(pheromone.tau)
        assert sorted(result.winner_order) == list(range(7))
        schedule = Schedule.from_order(fig1_ddg.region, result.winner_order)
        validate_schedule(schedule, fig1_ddg, respect_latencies=False)

    def test_winner_peak_matches_recomputation(self, fig1_ddg, vega):
        colony, data, params = _make_colony(fig1_ddg, vega, seed=3)
        pheromone = PheromoneTable(7, params)
        result = colony.run_rp_iteration(pheromone.tau)
        schedule = Schedule.from_order(fig1_ddg.region, result.winner_order)
        assert result.winner_peak == peak_pressure(schedule)

    def test_every_ant_tracks_pressure_exactly(self, fig1_ddg, vega):
        """Colony-internal peaks must equal scalar liveness recomputation
        for every ant, not just the winner."""
        colony, data, params = _make_colony(fig1_ddg, vega, blocks=1, seed=7)
        pheromone = PheromoneTable(7, params)
        colony.run_rp_iteration(pheromone.tau)
        for ant in range(colony.num_ants):
            order = [int(i) for i in colony.order_buf[ant]]
            schedule = Schedule.from_order(fig1_ddg.region, order)
            expected = peak_pressure(schedule)
            assert colony._peak_dict(ant) == expected

    def test_finds_figure1_optimum(self, fig1_ddg, tiny_machine):
        """128 ants on a 7-instruction region should find PRP 3 (the paper's
        Figure 1 best) in one iteration."""
        colony, data, params = _make_colony(fig1_ddg, tiny_machine, blocks=2, seed=1)
        pheromone = PheromoneTable(7, params)
        result = colony.run_rp_iteration(pheromone.tau)
        assert result.winner_peak[VGPR] == 3

    def test_deterministic(self, fig1_ddg, vega):
        results = []
        for _ in range(2):
            colony, _, params = _make_colony(fig1_ddg, vega, seed=5)
            pheromone = PheromoneTable(7, params)
            results.append(colony.run_rp_iteration(pheromone.tau).winner_order)
        assert results[0] == results[1]

    def test_accounting_accumulates(self, fig1_ddg, vega):
        colony, data, params = _make_colony(fig1_ddg, vega)
        pheromone = PheromoneTable(7, params)
        colony.run_rp_iteration(pheromone.tau)
        assert np.all(colony.accounting.wavefront_cycles > 0)

    @given(ddgs(max_size=30))
    @settings(max_examples=10, deadline=None)
    def test_pressure_cross_validation_property(self, ddg):
        """The vectorized pressure accounting agrees with the scalar tracker
        on arbitrary generated regions (the core lockstep-correctness
        invariant)."""
        vega = amd_vega20()
        colony, data, params = _make_colony(ddg, vega, blocks=1, seed=2)
        pheromone = PheromoneTable(ddg.num_instructions, params)
        result = colony.run_rp_iteration(pheromone.tau)
        for ant in (0, colony.num_ants // 2, colony.num_ants - 1):
            order = [int(i) for i in colony.order_buf[ant]]
            schedule = Schedule.from_order(ddg.region, order)
            assert colony._peak_dict(ant) == peak_pressure(schedule)


class TestColonyPass2:
    def test_winner_is_legal_and_meets_target(self, fig1_ddg, vega):
        colony, data, params = _make_colony(fig1_ddg, vega, seed=2)
        pheromone = PheromoneTable(7, params)
        target = {VGPR: 4}
        result = colony.run_ilp_iteration(pheromone.tau, target, max_length=40)
        assert result.winner_cycles is not None
        schedule = Schedule(fig1_ddg.region, result.winner_cycles)
        validate_schedule(schedule, fig1_ddg, vega)
        assert peak_pressure(schedule)[VGPR] <= 4
        assert result.winner_cost == schedule.length

    def test_tight_target_needs_stall_wavefronts(self, fig1_ddg, vega):
        params = ACOParams(optional_stall_budget=1.0, optional_stall_prob=1.0)
        colony, data, _ = _make_colony(
            fig1_ddg, vega, blocks=4, seed=3, aco=params,
            stall_wavefront_fraction=1.0,
        )
        pheromone = PheromoneTable(7, params)
        result = colony.run_ilp_iteration(pheromone.tau, {VGPR: 3}, max_length=40)
        assert result.num_alive > 0
        schedule = Schedule(fig1_ddg.region, result.winner_cycles)
        validate_schedule(schedule, fig1_ddg, vega)
        assert peak_pressure(schedule)[VGPR] <= 3

    def test_impossible_target_reports_no_winner(self, fig1_ddg, vega):
        colony, data, params = _make_colony(fig1_ddg, vega, seed=2)
        pheromone = PheromoneTable(7, params)
        result = colony.run_ilp_iteration(pheromone.tau, {VGPR: 1}, max_length=40)
        assert result.num_alive == 0
        assert result.winner_order is None
        assert result.winner_cost == float("inf")

    def test_early_termination_toggle_changes_steps(self, vega):
        from conftest import make_region

        region = make_region("reduce", 11, 30)
        ddg = DDG(region)
        params = ACOParams()
        target = vega.aprp({VGPR: 40})
        steps = {}
        for early in (True, False):
            colony, _, _ = _make_colony(
                ddg, vega, blocks=2, seed=4,
                early_wavefront_termination=early,
            )
            pheromone = PheromoneTable(ddg.num_instructions, params)
            result = colony.run_ilp_iteration(pheromone.tau, dict(target), max_length=200)
            steps[early] = result.steps
        assert steps[True] <= steps[False]

    @given(ddgs(max_size=25))
    @settings(max_examples=8, deadline=None)
    def test_winners_always_legal_property(self, ddg):
        vega = amd_vega20()
        colony, data, params = _make_colony(ddg, vega, blocks=1, seed=6)
        pheromone = PheromoneTable(ddg.num_instructions, params)
        target = vega.aprp({VGPR: 64})
        result = colony.run_ilp_iteration(pheromone.tau, dict(target), max_length=300)
        if result.winner_cycles is not None:
            schedule = Schedule(ddg.region, result.winner_cycles)
            validate_schedule(schedule, ddg, vega)
            peak = peak_pressure(schedule)
            for cls, limit in target.items():
                assert peak.get(cls, 0) <= limit


def _random_walk(colony, steps, rng):
    """Advance every ant by ``steps`` uniformly random legal picks."""
    colony._reset()
    everyone = np.ones(colony.num_ants, dtype=bool)
    for step in range(steps):
        sel = (rng.random(colony.num_ants) * colony.avail_len).astype(np.int64)
        chosen = colony._remove_from_avail(everyone, sel)
        colony._schedule_chosen(everyone, chosen, cycle=step)


def _preview_mismatches(colony, target):
    """Candidates whose vectorized excess differs from the tracker's preview.

    The tracker replays each ant's issued prefix; the expected excess of a
    candidate is ``max_c(pressure_if_scheduled(inst)[c] - target[c])`` over
    the machine classes.
    """
    d = colony.data
    region = d.ddg.region
    valid = np.arange(d.ready_capacity)[None, :] < colony.avail_len[:, None]
    excess = colony._candidate_excess(valid, np.asarray(target, dtype=np.int64))
    mismatches = []
    for ant in range(colony.num_ants):
        tracker = PressureTracker(region)
        for inst in colony.order_buf[ant, : colony.scheduled[ant]]:
            tracker.schedule(region[int(inst)])
        for col in range(int(colony.avail_len[ant])):
            inst = int(colony.avail_ids[ant, col])
            preview = tracker.pressure_if_scheduled(region[inst])
            want = max(
                preview.get(cls, 0) - int(target[ci]) for ci, cls in enumerate(d.classes)
            )
            if int(excess[ant, col]) != want:
                mismatches.append((ant, inst, int(excess[ant, col]), want))
    return mismatches


class TestPressurePreview:
    """Pins the pass-2 pressure preview to the scalar tracker's semantics."""

    @given(
        ddg=ddgs(min_size=3, max_size=24),
        seed=st.integers(0, 2**32 - 1),
        depth=st.floats(0.0, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_excess_matches_tracker_on_ssa_regions(self, ddg, seed, depth):
        vega = amd_vega20()
        colony, data, _ = _make_colony(ddg, vega, blocks=1, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        _random_walk(colony, int(depth * (ddg.num_instructions - 1)), rng)
        target = rng.integers(0, 12, size=data.num_classes)
        assert _preview_mismatches(colony, target) == []


class TestParallelScheduler:
    @pytest.mark.parametrize("seed", [None, -1, 2.5])
    def test_seed_must_be_a_non_negative_int(self, fig1_ddg, vega, seed):
        scheduler = ParallelACOScheduler(vega, gpu_params=GPUParams(blocks=1))
        with pytest.raises(ConfigError, match="seed"):
            scheduler.schedule(fig1_ddg, seed=seed)

    def test_matches_sequential_quality_on_figure1(self, fig1_ddg, tiny_machine):
        par = ParallelACOScheduler(
            tiny_machine, gpu_params=GPUParams(blocks=2)
        ).schedule(fig1_ddg, seed=1)
        seq = SequentialACOScheduler(tiny_machine).schedule(fig1_ddg, seed=1)
        assert par.peak[VGPR] == seq.peak[VGPR] == 3

    def test_gpu_time_breakdown(self, fig1_ddg, vega):
        result = ParallelACOScheduler(vega, gpu_params=GPUParams(blocks=2)).schedule(
            fig1_ddg, seed=1
        )
        if result.pass2.invoked:
            total = (
                result.pass2.kernel_seconds
                + result.pass2.transfer_seconds
                + result.pass2.launch_seconds
            )
            assert result.pass2.seconds == pytest.approx(total)

    def test_deterministic(self, fig1_ddg, vega):
        schedulers = [
            ParallelACOScheduler(vega, gpu_params=GPUParams(blocks=2)) for _ in range(2)
        ]
        results = [s.schedule(fig1_ddg, seed=8) for s in schedulers]
        assert results[0].schedule == results[1].schedule
        assert results[0].seconds == results[1].seconds

    def test_skips_match_sequential(self, fig1_ddg, vega):
        par = ParallelACOScheduler(vega, gpu_params=GPUParams(blocks=2)).schedule(
            fig1_ddg, seed=0
        )
        assert not par.pass1.invoked  # Vega: heuristic RP already at APRP LB
        assert par.pass1.seconds == 0.0

    @given(ddgs(max_size=25))
    @settings(max_examples=6, deadline=None)
    def test_schedule_always_legal(self, ddg):
        machine = simple_test_target()
        result = ParallelACOScheduler(
            machine, gpu_params=GPUParams(blocks=1)
        ).schedule(ddg, seed=3)
        validate_schedule(result.schedule, ddg, machine)
        assert result.peak == peak_pressure(result.schedule)
