"""Tests for the guiding heuristics and the greedy schedulers."""

import random

import pytest
from hypothesis import given, settings

from repro.ddg import DDG, region_bounds
from repro.errors import ScheduleError
from repro.heuristics import (
    AMDMaxOccupancyScheduler,
    CriticalPathHeuristic,
    LastUseCountHeuristic,
    SchedulingState,
    list_schedule,
    order_schedule,
    pick_by_priority,
)
from repro.heuristics.base import HEURISTIC_WEIGHT, builtin_heuristics
from repro.heuristics.cp_scheduler import CriticalPathListScheduler
from repro.ir.builder import RegionBuilder
from repro.ir.registers import VGPR
from repro.machine import amd_vega20, simple_test_target
from repro.rp import PressureTracker, peak_pressure
from repro.schedule import validate_schedule
from repro.suite import HOSTILE_NAMES, PATTERN_NAMES, hostile_region, pattern_region

from strategies import ddgs


class TestCriticalPathHeuristic:
    def test_prefers_tall_chains(self, fig1_ddg):
        prepared = CriticalPathHeuristic().prepare(fig1_ddg)
        state = SchedulingState(fig1_ddg, PressureTracker(fig1_ddg.region))
        by_label = {i.label: i.index for i in fig1_ddg.region}
        assert prepared.score(by_label["C"], state) > prepared.score(by_label["B"], state)

    def test_eta_positive(self, fig1_ddg):
        prepared = CriticalPathHeuristic().prepare(fig1_ddg)
        state = SchedulingState(fig1_ddg, PressureTracker(fig1_ddg.region))
        for i in range(fig1_ddg.num_instructions):
            assert prepared.eta(i, state) > 0


class TestLastUseCountHeuristic:
    def test_prefers_closers(self, fig1_ddg):
        prepared = LastUseCountHeuristic().prepare(fig1_ddg)
        region = fig1_ddg.region
        tracker = PressureTracker(region)
        by_label = {i.label: i.index for i in region}
        tracker.schedule(region[by_label["C"]])
        tracker.schedule(region[by_label["D"]])
        state = SchedulingState(fig1_ddg, tracker)
        # F closes two ranges; A opens one: F must win.
        assert prepared.score(by_label["F"], state) > prepared.score(by_label["A"], state)

    def test_order_reaches_figure1_optimum(self, fig1_ddg):
        schedule = order_schedule(fig1_ddg, heuristic=LastUseCountHeuristic())
        assert peak_pressure(schedule)[VGPR] == 3  # the paper's best PRP

    def test_builtin_heuristics_listed(self):
        names = [h.name for h in builtin_heuristics()]
        assert "critical-path" in names
        assert "last-use-count" in names


class TestListScheduler:
    def test_requires_some_priority(self, fig1_ddg, vega):
        with pytest.raises(ScheduleError):
            list_schedule(fig1_ddg, vega)
        with pytest.raises(ScheduleError):
            order_schedule(fig1_ddg)

    def test_cp_schedule_length(self, fig1_ddg, vega):
        schedule = list_schedule(fig1_ddg, vega, heuristic=CriticalPathHeuristic())
        validate_schedule(schedule, fig1_ddg, vega)
        assert schedule.length == 8  # C D A B _ E F G

    def test_chain_stalls(self, chain_region, vega):
        schedule = list_schedule(DDG(chain_region), vega, heuristic=CriticalPathHeuristic())
        assert schedule.length == 7  # three latency-2 hops fully exposed
        assert schedule.num_stalls == 3

    def test_deterministic(self, fig1_ddg, vega):
        a = list_schedule(fig1_ddg, vega, heuristic=CriticalPathHeuristic())
        b = list_schedule(fig1_ddg, vega, heuristic=CriticalPathHeuristic())
        assert a == b

    @given(ddgs())
    @settings(max_examples=40, deadline=None)
    def test_always_legal(self, ddg):
        vega = amd_vega20()
        for heuristic in (CriticalPathHeuristic(), LastUseCountHeuristic()):
            schedule = list_schedule(ddg, vega, heuristic=heuristic)
            validate_schedule(schedule, ddg, vega)

    @given(ddgs())
    @settings(max_examples=40, deadline=None)
    def test_order_schedule_is_permutation(self, ddg):
        schedule = order_schedule(ddg, heuristic=CriticalPathHeuristic())
        assert sorted(schedule.order) == list(range(ddg.num_instructions))
        validate_schedule(schedule, ddg, respect_latencies=False)

    @given(ddgs())
    @settings(max_examples=25, deadline=None)
    def test_length_at_least_lower_bound(self, ddg):
        vega = amd_vega20()
        bounds = region_bounds(ddg)
        schedule = list_schedule(ddg, vega, heuristic=CriticalPathHeuristic())
        assert schedule.length >= bounds.length


class TestAMDMaxOccupancy:
    def test_schedules_are_legal(self, fig1_ddg, vega):
        amd = AMDMaxOccupancyScheduler(vega)
        validate_schedule(amd.schedule(fig1_ddg), fig1_ddg, vega)
        validate_schedule(
            amd.order_only(fig1_ddg), fig1_ddg, vega, respect_latencies=False
        )

    def test_pressure_mode_reduces_peak(self, tiny_machine, fig1_ddg):
        """On the tiny target (boundary at 3 VGPRs) the pressure mode must
        keep the order-only peak below the CP heuristic's."""
        amd = AMDMaxOccupancyScheduler(tiny_machine)
        amd_peak = peak_pressure(amd.order_only(fig1_ddg))[VGPR]
        cp_peak = peak_pressure(
            order_schedule(fig1_ddg, heuristic=CriticalPathHeuristic())
        )[VGPR]
        assert amd_peak <= cp_peak
        assert amd_peak == 3

    def test_ilp_mode_blends_source_order(self, vega):
        """With a huge pressure budget the policy follows source order when
        heights tie."""
        b = RegionBuilder("tie")
        for i in range(4):
            b.inst("op1", defs=["v%d" % i])
        ddg = DDG(b.build())
        amd = AMDMaxOccupancyScheduler(vega)
        assert amd.order_only(ddg).order == (0, 1, 2, 3)

    def test_rp_cost_of(self, vega, fig1_ddg):
        amd = AMDMaxOccupancyScheduler(vega)
        schedule = amd.schedule(fig1_ddg)
        assert amd.rp_cost_of(schedule) >= 0

    @given(ddgs())
    @settings(max_examples=30, deadline=None)
    def test_always_legal_property(self, ddg):
        amd = AMDMaxOccupancyScheduler(simple_test_target())
        validate_schedule(amd.schedule(ddg), ddg, simple_test_target())


def _equivalence_regions():
    """Every hostile family and every suite pattern, at a few sizes."""
    for family in HOSTILE_NAMES:
        for seed, size in ((1, 32), (2, 96)):
            yield hostile_region(family, seed, size=size)
    for k, pattern in enumerate(PATTERN_NAMES):
        for size in (6, 14, 24):
            yield pattern_region(pattern, random.Random(100 * k + size), size)


class TestAMDPick:
    """The AMD policy's pick (mode once per pick, static ILP keys) chooses
    what the generic ``(score, -index)`` maximum over its per-candidate
    ``score`` chooses, on both machines: the tiny one keeps it in pressure
    mode much of the time, Vega in ILP mode."""

    @pytest.mark.parametrize("machine", [amd_vega20(), simple_test_target()], ids=["vega", "tiny"])
    def test_same_schedules_as_the_generic_path(self, machine):
        amd = AMDMaxOccupancyScheduler(machine)
        modes = set()
        for region in _equivalence_regions():
            ddg = DDG(region)
            prepared = amd._prepared(ddg)

            def priority(index, state, prepared=prepared):
                # Which mode the generic path scored this candidate in.
                modes.add(state.tracker.current_exceeds(prepared._limits))
                return prepared.score(index, state)

            generic = pick_by_priority(priority)
            assert amd.schedule(ddg).cycles == list_schedule(ddg, machine, pick=generic).cycles
            assert amd.order_only(ddg).order == order_schedule(ddg, pick=generic).order
        assert modes == {False, True}


class TestEtaWeights:
    """The batched ``eta ** beta`` (CP from its per-pass table, LUC through
    the default) equals ``eta(j, state) ** HEURISTIC_WEIGHT`` bit for bit,
    at several points of a schedule."""

    @pytest.mark.parametrize("heuristic", [CriticalPathHeuristic(), LastUseCountHeuristic()],
                             ids=["cp", "luc"])
    def test_bit_identical_to_eta(self, heuristic):
        for region in _equivalence_regions():
            ddg = DDG(region)
            prepared = heuristic.prepare(ddg)
            tracker = PressureTracker(region)
            state = SchedulingState(ddg, tracker)
            order = order_schedule(ddg, heuristic=LastUseCountHeuristic()).order
            checkpoints = {0, len(order) // 3, 2 * len(order) // 3, len(order) - 1}
            candidates = list(range(len(region)))[::-1]
            for step, index in enumerate(order):
                if step in checkpoints:
                    state.cycle = step
                    batched = prepared.eta_weights(candidates, state)
                    expected = [prepared.eta(j, state) ** HEURISTIC_WEIGHT for j in candidates]
                    assert [w.hex() for w in batched] == [w.hex() for w in expected]
                tracker.schedule_at(index)
            assert prepared.eta_weights([], state) == []


class TestCriticalPathListScheduler:
    def test_interface(self, fig1_ddg, vega):
        cp = CriticalPathListScheduler(vega)
        validate_schedule(cp.schedule(fig1_ddg), fig1_ddg, vega)
        validate_schedule(
            cp.order_only(fig1_ddg), fig1_ddg, vega, respect_latencies=False
        )
        assert cp.name == "critical-path"
