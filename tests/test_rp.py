"""Tests for repro.rp: the tracker, liveness and the cost functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadratic_reference as reference
from repro.ddg import DDG, region_bounds
from repro.errors import ScheduleError
from repro.analysis import verify_schedule
from repro.heuristics import LastUseCountHeuristic, list_schedule, order_schedule
from repro.ir.builder import RegionBuilder, figure1_region
from repro.ir.registers import SGPR, VGPR, RegisterClass
from repro.machine import amd_vega20, simple_test_target
from repro.rp import (
    PressureTracker,
    RegisterTable,
    evaluate_schedule,
    peak_pressure,
    pressure_profile,
    rp_cost,
    rp_cost_lower_bound,
)
from repro.rp.cost import OCCUPANCY_WEIGHT
from repro.schedule import Schedule

from strategies import ddgs, non_ssa_regions, regions

#: A class no generated region has a register of.
AGPR = RegisterClass("AGPR", "a")

#: Pressure targets: absent classes, negative limits and the empty target
#: all occur.
targets = st.dictionaries(st.sampled_from([VGPR, SGPR, AGPR]), st.integers(-3, 12), max_size=3)


class TestTrackerFigure1:
    """The paper's Figure 1 PRP walk-through, exactly."""

    def test_ant1_prp_4(self, fig1_region):
        schedule = Schedule.from_order(fig1_region, [0, 1, 2, 3, 4, 5, 6])
        assert peak_pressure(schedule)[VGPR] == 4

    def test_ant2_prp_3(self, fig1_region):
        # C D F A B E G: F closes C's and D's ranges (kill-before-def).
        schedule = Schedule.from_order(fig1_region, [2, 3, 5, 0, 1, 4, 6])
        assert peak_pressure(schedule)[VGPR] == 3

    def test_profile_matches_narrative(self, fig1_region):
        schedule = Schedule.from_order(fig1_region, [2, 3, 5, 0, 1, 4, 6])
        profile = pressure_profile(fig1_region and schedule)[VGPR]
        # After C, D, F, A, B, E, G.
        assert profile == [1, 2, 1, 2, 3, 2, 1]


class TestTrackerMechanics:
    def test_live_in_counts_from_start(self):
        b = RegionBuilder("li")
        b.inst("op1", defs=["v1"], uses=["v0"])
        region = b.build()
        tracker = PressureTracker(region)
        assert tracker.current[VGPR] == 1  # v0 live-in

    def test_live_out_never_dies(self):
        b = RegionBuilder("lo")
        b.inst("op1", defs=["v0"])
        b.inst("op1", defs=["v1"], uses=["v0"])
        region = b.live_out("v0", "v1").build()
        tracker = PressureTracker(region)
        tracker.schedule(region[0])
        tracker.schedule(region[1])  # v0's last use, but v0 is live-out
        assert tracker.current[VGPR] == 2
        assert set(tracker.live_registers()) == set(region.live_out)

    def test_dead_def_counts_toward_peak_then_dies(self):
        b = RegionBuilder("dd")
        b.inst("op1", defs=["v0"])
        b.inst("op1", defs=["v1"])  # v1 never used, not live-out
        region = b.live_out("v0").build()
        tracker = PressureTracker(region)
        tracker.schedule(region[0])
        tracker.schedule(region[1])
        assert tracker.peak[VGPR] == 2  # dead def was momentarily live
        assert tracker.current[VGPR] == 1

    def test_kill_before_def_allows_register_reuse(self):
        b = RegionBuilder("kbd")
        b.inst("op1", defs=["v0"])
        b.inst("op1", defs=["v1"], uses=["v0"])  # v0 dies here, v1 opens
        region = b.live_out("v1").build()
        tracker = PressureTracker(region)
        tracker.schedule(region[0])
        tracker.schedule(region[1])
        assert tracker.peak[VGPR] == 1

    def test_use_in_own_defs_survives(self):
        b = RegionBuilder("acc")
        b.inst("op1", defs=["v0"])
        b.inst("op1", defs=["v0"], uses=["v0"])  # accumulate in place
        region = b.live_out("v0").build()
        tracker = PressureTracker(region)
        tracker.schedule(region[0])
        tracker.schedule(region[1])
        assert tracker.current[VGPR] == 1
        assert tracker.peak[VGPR] == 1

    def test_reset(self, fig1_region):
        tracker = PressureTracker(fig1_region)
        for inst in fig1_region:
            tracker.schedule(inst)
        tracker.reset()
        assert tracker.current[VGPR] == 0
        assert tracker.peak[VGPR] == 0

    def test_preview_matches_commit(self, fig1_region):
        """pressure_if_scheduled must agree with actually scheduling.

        Figure 1 has no dead defs, so the at-issue preview and the
        post-instruction pressure coincide exactly.
        """
        tracker = PressureTracker(fig1_region)
        for inst in fig1_region:  # program order is legal
            preview = tracker.pressure_if_scheduled(inst)
            tracker.schedule(inst)
            assert tracker.current == preview

    @given(regions())
    @settings(max_examples=40, deadline=None)
    def test_preview_brackets_commit_property(self, region):
        """The preview is the at-issue pressure: at least the committed
        between-instruction pressure (dead defs die right after the sample)
        and never above the running peak."""
        tracker = PressureTracker(region)
        for inst in region:
            preview = tracker.pressure_if_scheduled(inst)
            dead_defs = {
                cls: sum(
                    1
                    for reg in inst.defs
                    if reg.reg_class is cls
                    and reg not in region.live_out
                    and not any(other.reads(reg) for other in region)
                )
                for cls in tracker.classes
            }
            tracker.schedule(inst)
            for cls, value in tracker.current.items():
                assert preview.get(cls, 0) == value + dead_defs.get(cls, 0)
                assert tracker.peak[cls] >= preview.get(cls, 0)

    def test_closes_ranges(self, fig1_region):
        tracker = PressureTracker(fig1_region)
        by_label = {i.label: i for i in fig1_region}
        tracker.schedule(by_label["C"])
        tracker.schedule(by_label["D"])
        assert tracker.closes_ranges(by_label["F"]) == 2

    def test_live_registers(self, fig1_region):
        tracker = PressureTracker(fig1_region)
        tracker.schedule(fig1_region[0])
        assert len(tuple(tracker.live_registers())) == 1


def assert_same_state(tracker, ref, region, limits):
    """Every observable of the dense tracker equals the reference's."""
    assert tracker.current == ref.current
    assert tracker.peak == ref.peak
    assert tracker.peak_pressure() == ref.peak_pressure()
    assert set(tracker.live_registers()) == set(ref.live_registers())
    for inst in region:
        preview = ref.pressure_if_scheduled(inst)
        assert tracker.pressure_if_scheduled(inst) == preview
        assert tracker.pressure_delta(inst) == ref.pressure_delta(inst)
        assert tracker.closes_ranges(inst) == ref.closes_ranges(inst)
        assert tracker.closes_at(inst.index) == ref.closes_ranges(inst)
        for target in limits:
            expected = reference.pressure_excess(preview, target)
            assert tracker.excess_if_scheduled(inst.index, target) == expected
    indices = [inst.index for inst in region][::-1]
    for target in limits:
        batch = tracker.excesses_if_scheduled(indices, target)
        assert batch == [tracker.excess_if_scheduled(i, target) for i in indices]
        assert batch == [
            reference.pressure_excess(ref.pressure_if_scheduled(region[i]), target)
            for i in indices
        ]
        assert tracker.excesses_if_scheduled([], target) == []
    for target in limits:
        over = any(ref.peak.get(cls, 0) > limit for cls, limit in target.items())
        assert tracker.peak_exceeds(target) == over
        over = any(ref.current.get(cls, 0) > limit for cls, limit in target.items())
        assert tracker.current_exceeds(target) == over


class TestDenseTrackerMatchesReference:
    """The dense-id tracker against the register-keyed original
    (``quadratic_reference.PressureTracker``), after every step of any
    order, including orders no dependence graph would allow."""

    def check(self, region, data):
        order = data.draw(st.permutations(range(len(region))))
        limits = [{}, {AGPR: 1}, {VGPR: 2, AGPR: -1}] + data.draw(st.lists(targets, max_size=3))
        tracker = PressureTracker(region)
        by_index = PressureTracker(region)
        ref = reference.PressureTracker(region)
        assert_same_state(tracker, ref, region, limits)
        for index in order:
            tracker.schedule(region[index])
            by_index.schedule_at(index)
            ref.schedule(region[index])
            assert by_index.snapshot() == tracker.snapshot()
            assert_same_state(tracker, ref, region, limits)

    @given(regions(max_size=24), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ssa_regions(self, region, data):
        self.check(region, data)

    @given(non_ssa_regions(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_non_ssa_regions(self, region, data):
        self.check(region, data)

    def test_shared_table(self, fig1_region):
        table = RegisterTable(fig1_region)
        first = PressureTracker(fig1_region, table)
        second = PressureTracker(fig1_region, table)
        first.schedule(fig1_region[0])
        assert second.current[VGPR] == 0
        with pytest.raises(ValueError):
            PressureTracker(figure1_region(), table)


class TestSnapshot:
    @given(non_ssa_regions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, region, data):
        """restore() returns to the snapshot's state, however often."""
        order = data.draw(st.permutations(range(len(region))))
        split = data.draw(st.integers(0, len(order)))
        tracker = PressureTracker(region)
        ref = reference.PressureTracker(region)
        for index in order[:split]:
            tracker.schedule(region[index])
            ref.schedule(region[index])
        saved = tracker.snapshot()
        for _round in range(2):
            for index in order[split:]:
                tracker.schedule(region[index])
            tracker.restore(saved)
            assert_same_state(tracker, ref, region, [{VGPR: 2, SGPR: 1}])


class TestForeignInstructions:
    """Ids are region-local: an instruction of another region must be
    rejected, not silently read through this region's ids."""

    @pytest.fixture
    def other(self):
        b = RegionBuilder("other")
        b.inst("op1", defs=["v7"])
        b.inst("op1", defs=["s3"], uses=["v7"])
        return b.live_out("s3").build()

    def test_schedule_rejects_foreign(self, fig1_region, other):
        tracker = PressureTracker(fig1_region)
        with pytest.raises(ScheduleError):
            tracker.schedule(other[1])
        assert tracker.current[VGPR] == 0

    def test_previews_reject_foreign(self, fig1_region, other):
        tracker = PressureTracker(fig1_region)
        for preview in (
            tracker.pressure_if_scheduled,
            tracker.closes_ranges,
            tracker.pressure_delta,
        ):
            with pytest.raises(ScheduleError):
                preview(other[0])

    def test_index_past_the_region(self, other):
        tracker = PressureTracker(other)
        saved = tracker.snapshot()
        for index in (-1, len(other)):
            with pytest.raises(ScheduleError):
                tracker.excess_if_scheduled(index, {VGPR: 1})
            for limits in ({VGPR: 1}, {}):
                with pytest.raises(ScheduleError):
                    tracker.excesses_if_scheduled([0, index], limits)
            with pytest.raises(ScheduleError):
                tracker.closes_at(index)
            with pytest.raises(ScheduleError):
                tracker.schedule_at(index)
            assert tracker.snapshot() == saved
        with pytest.raises(ScheduleError):
            tracker.schedule(figure1_region()[len(other)])

    def test_equal_instruction_is_accepted(self, fig1_region):
        """Identity is not required: an equal region's instruction is this
        region's instruction."""
        tracker = PressureTracker(fig1_region)
        tracker.schedule(figure1_region()[0])
        assert tracker.current[VGPR] == 1


class TestPeakInvariance:
    @given(regions())
    @settings(max_examples=30, deadline=None)
    def test_peak_depends_only_on_order(self, region):
        """Inserting stalls never changes pressure."""
        ddg = DDG(region)
        schedule = order_schedule(ddg, heuristic=LastUseCountHeuristic())
        stretched = Schedule(
            region, [c * 3 for c in schedule.cycles]
        )  # same order, stalls everywhere
        assert peak_pressure(schedule) == peak_pressure(stretched)


class TestTrackedPeak:
    """The greedy schedulers hand their tracker's peak to the schedule they
    return; evaluating reads it, while ``peak_pressure`` and the verifier
    keep replaying."""

    @given(ddgs(max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_carried_peak_is_the_replayed_peak(self, ddg):
        vega = amd_vega20()
        for schedule in (
            order_schedule(ddg, heuristic=LastUseCountHeuristic()),
            list_schedule(ddg, vega, heuristic=LastUseCountHeuristic()),
        ):
            assert schedule.tracked_peak == peak_pressure(schedule)
            replayed = Schedule(ddg.region, schedule.cycles)
            assert replayed.tracked_peak is None
            assert evaluate_schedule(schedule, vega) == evaluate_schedule(replayed, vega)

    def test_peak_is_kept_only_for_the_issued_order(self, fig1_region):
        """Cycles 0,0,1,...: the schedule's order puts 0 before 1 within the
        shared cycle, so a peak tracked while issuing 1 before 0 is dropped,
        and so is a peak that comes without its issue order."""
        cycles = [0, 0, 1, 2, 3, 4, 5]
        peak = {VGPR: 4}
        kept = Schedule(fig1_region, cycles, tracked_peak=peak, issued=range(7))
        assert kept.tracked_peak == peak
        swapped = [1, 0, 2, 3, 4, 5, 6]
        assert Schedule(fig1_region, cycles, tracked_peak=peak, issued=swapped).tracked_peak is None
        assert Schedule(fig1_region, cycles, tracked_peak=peak).tracked_peak is None

    def test_carried_peak_takes_no_part_in_equality(self, fig1_region):
        plain = Schedule.from_order(fig1_region, range(7))
        carried = Schedule.from_order(fig1_region, range(7), tracked_peak={VGPR: 4})
        assert plain == carried and hash(plain) == hash(carried)

    def test_the_verifier_does_not_read_it(self, fig1_ddg):
        """A forged carried peak flows into the claimed quality; the
        verifier's replay and interval recount reject that claim."""
        vega = amd_vega20()
        region = fig1_ddg.region
        order = [2, 3, 5, 0, 1, 4, 6]
        forged = Schedule.from_order(region, order, tracked_peak={VGPR: 2})
        assert peak_pressure(forged) == {VGPR: 3}
        claim = evaluate_schedule(forged, vega)
        assert claim.pressure_dict == {VGPR: 2}
        report = verify_schedule(
            forged, fig1_ddg, vega, respect_latencies=False, expected_peak=claim.pressure_dict
        )
        assert report.codes() == ("claimed-peak",)


class TestCost:
    def test_occupancy_dominates(self):
        vega = amd_vega20()
        low_occ = rp_cost({VGPR: 30}, vega)  # occupancy 8
        high_occ = rp_cost({VGPR: 24}, vega)  # occupancy 10
        assert low_occ - high_occ >= OCCUPANCY_WEIGHT

    def test_same_occupancy_compares_equal_via_aprp(self):
        vega = amd_vega20()
        assert rp_cost({VGPR: 3}, vega) == rp_cost({VGPR: 24}, vega)

    def test_lower_bound_is_sound(self, fig1_ddg):
        tiny = simple_test_target()
        bounds = region_bounds(fig1_ddg)
        lb = rp_cost_lower_bound(bounds, tiny)
        for order in ([0, 1, 2, 3, 4, 5, 6], [2, 3, 5, 0, 1, 4, 6]):
            schedule = Schedule.from_order(fig1_ddg.region, order)
            assert rp_cost(peak_pressure(schedule), tiny) >= lb

    def test_evaluate_schedule(self, fig1_region):
        vega = amd_vega20()
        schedule = Schedule.from_order(fig1_region, [2, 3, 5, 0, 1, 4, 6])
        quality = evaluate_schedule(schedule, vega)
        assert quality.length == 7
        assert quality.pressure_dict[VGPR] == 3
        assert quality.occupancy == 10
        assert quality.aprp_dict[VGPR] == 24

    def test_dominates(self, fig1_region):
        vega = amd_vega20()
        good = evaluate_schedule(
            Schedule.from_order(fig1_region, [2, 3, 5, 0, 1, 4, 6]), vega
        )
        bad = evaluate_schedule(
            Schedule(fig1_region, [0, 1, 2, 3, 8, 9, 10]), vega
        )
        assert good.dominates(bad)
        assert not bad.dominates(good)
