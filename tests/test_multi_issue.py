"""Tests for issue widths > 1 (the 'general machine model' of Section II-A).

The paper's evaluation uses a single-issue model but its implementation
"supports a general machine model"; here the greedy list scheduler and the
legality checker are exercised with a dual-issue target.
"""

import random

import pytest
from hypothesis import given, settings

from repro.ddg import DDG
from repro.heuristics import AMDMaxOccupancyScheduler, CriticalPathHeuristic, list_schedule
from repro.ir import RegionBuilder
from repro.ir.registers import VGPR
from repro.machine import MachineModel, OccupancyTable, amd_vega20
from repro.rp import evaluate_schedule
from repro.schedule import Schedule, validate_schedule
from repro.suite import PATTERN_NAMES, pattern_region
from repro.errors import ScheduleError

from conftest import ddgs


@pytest.fixture
def dual_issue():
    return MachineModel(
        name="dual-issue",
        occupancy_tables={VGPR: OccupancyTable([(24, 10), (32, 8), (256, 1)])},
        issue_width=2,
        wavefront_size=64,
    )


@pytest.fixture
def independent_pairs():
    b = RegionBuilder("pairs")
    for i in range(6):
        b.inst("op1", defs=["v%d" % i])
    return b.build()


class TestDualIssue:
    def test_packs_two_per_cycle(self, dual_issue, independent_pairs):
        ddg = DDG(independent_pairs)
        schedule = list_schedule(ddg, dual_issue, heuristic=CriticalPathHeuristic())
        validate_schedule(schedule, ddg, dual_issue)
        assert schedule.length == 3  # 6 independent ops at width 2

    def test_validator_allows_two_but_not_three(self, dual_issue, independent_pairs):
        ddg = DDG(independent_pairs)
        two_wide = Schedule(independent_pairs, [0, 0, 1, 1, 2, 2])
        validate_schedule(two_wide, ddg, dual_issue)
        three_wide = Schedule(independent_pairs, [0, 0, 0, 1, 1, 2])
        with pytest.raises(ScheduleError):
            validate_schedule(three_wide, ddg, dual_issue)

    def test_latency_still_respected(self, dual_issue):
        b = RegionBuilder("lat")
        b.inst("op5", defs=["v0"])
        b.inst("op1", defs=["v1"], uses=["v0"])
        b.inst("op1", defs=["v2"])
        ddg = DDG(b.build())
        schedule = list_schedule(ddg, dual_issue, heuristic=CriticalPathHeuristic())
        validate_schedule(schedule, ddg, dual_issue)
        assert schedule.cycles[1] >= schedule.cycles[0] + 5

    @given(ddgs(max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_always_legal_and_never_longer_than_single_issue(self, ddg):
        from repro.machine import amd_vega20

        dual_issue = MachineModel(
            name="dual-issue",
            occupancy_tables={VGPR: OccupancyTable([(24, 10), (32, 8), (256, 1)])},
            issue_width=2,
            wavefront_size=64,
        )
        wide = list_schedule(ddg, dual_issue, heuristic=CriticalPathHeuristic())
        validate_schedule(wide, ddg, dual_issue)
        narrow = list_schedule(ddg, amd_vega20(), heuristic=CriticalPathHeuristic())
        assert wide.length <= narrow.length


class TestTrackedPeakOnMultiIssue:
    """A dual-issue cycle may pick its instructions out of index order,
    while ``Schedule.order`` sorts them by index; pressure is sampled
    between instructions, so the list scheduler's tracker peak is then not
    the order's peak and must not travel with the schedule."""

    def test_quality_equals_the_replayed_quality(self):
        vega = amd_vega20()
        dual = MachineModel(
            name="dual-issue-vega",
            occupancy_tables=vega.occupancy_tables,
            issue_width=2,
            wavefront_size=vega.wavefront_size,
        )
        schedulers = (
            AMDMaxOccupancyScheduler(dual).schedule,
            lambda ddg: list_schedule(ddg, dual, heuristic=CriticalPathHeuristic()),
        )
        carried = dropped = 0
        for k in range(300):
            pattern = PATTERN_NAMES[k % len(PATTERN_NAMES)]
            rng = random.Random(k)
            ddg = DDG(pattern_region(pattern, rng, rng.randint(4, 24)))
            for schedule_of in schedulers:
                schedule = schedule_of(ddg)
                replayed = Schedule(ddg.region, schedule.cycles)
                assert evaluate_schedule(schedule, dual) == evaluate_schedule(replayed, dual)
                if schedule.tracked_peak is None:
                    dropped += 1
                else:
                    carried += 1
        # Both cases occur: the test covers the out-of-order picks.
        assert carried and dropped
