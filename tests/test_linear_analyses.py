"""The linear-time scalar analyses return exactly what the brute force does.

``recompute_peak_pressure``, ``classify_stalls`` and
``pressure_lower_bounds`` are positional sweeps over difference arrays.
Each is checked against its original quadratic definition (kept in
``quadratic_reference``) on generated SSA regions, hand-rolled non-SSA
regions (redefinitions, live-ins that are redefined or never read, dead
defs), stretched and padded schedules, forged cycles, and a dual-issue
machine.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import quadratic_reference as reference
from repro.analysis import classify_stalls, recompute_peak_pressure
from repro.ddg import DDG, pressure_lower_bounds
from repro.heuristics import CriticalPathHeuristic, list_schedule
from repro.heuristics.list_scheduler import schedule_in_order
from repro.ir import RegionBuilder
from repro.ir.registers import VGPR
from repro.machine import MachineModel, OccupancyTable

from strategies import ddgs, non_ssa_regions


def dual_issue():
    return MachineModel(
        name="dual-issue",
        occupancy_tables={VGPR: OccupancyTable([(24, 10), (32, 8), (256, 1)])},
        issue_width=2,
        wavefront_size=64,
    )


def stalls(ddg: DDG, cycles):
    """``classify_stalls`` of both implementations on duck-typed cycles."""
    schedule = SimpleNamespace(region=ddg.region, cycles=tuple(cycles))
    return classify_stalls(schedule, ddg), reference.classify_stalls(schedule, ddg)


def topological_order(ddg: DDG, rng: random.Random):
    """A random ready-list walk: every legal order can come out."""
    waiting = list(ddg.num_predecessors)
    ready = list(ddg.roots)
    order = []
    while ready:
        index = ready.pop(rng.randrange(len(ready)))
        order.append(index)
        for succ, _lat in ddg.successors[index]:
            waiting[succ] -= 1
            if waiting[succ] == 0:
                ready.append(succ)
    return order


def padded(cycles, rng: random.Random, max_gap: int = 3):
    """Delay each issue cycle, and every later one, by a random gap.

    Shifting a suffix of the schedule keeps it legal and makes optional
    stalls: the delayed instructions could have issued earlier.
    """
    shift = {}
    for cycle in sorted(set(cycles)):
        if rng.random() < 0.3:
            shift[cycle] = rng.randint(1, max_gap)
    total = 0
    moved = {}
    for cycle in sorted(set(cycles)):
        total += shift.get(cycle, 0)
        moved[cycle] = cycle + total
    return [moved[c] for c in cycles]


seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- recompute_peak_pressure ---------------------------------------------------


class TestPeakPressure:
    @given(ddgs(max_size=40), seeds)
    @settings(max_examples=60, deadline=None)
    def test_ssa_regions_any_order(self, ddg, seed):
        order = list(range(ddg.num_instructions))
        random.Random(seed).shuffle(order)
        assert recompute_peak_pressure(ddg.region, order) == (
            reference.recompute_peak_pressure(ddg.region, order)
        )

    @given(non_ssa_regions(), seeds)
    @settings(max_examples=150, deadline=None)
    def test_non_ssa_regions(self, region, seed):
        rng = random.Random(seed)
        legal = topological_order(DDG(region), rng)
        shuffled = list(range(len(region)))
        rng.shuffle(shuffled)
        for order in (legal, shuffled):
            assert recompute_peak_pressure(region, order) == (
                reference.recompute_peak_pressure(region, order)
            )

    def test_every_liveness_convention(self):
        """One region with each special case: an untouched live-in, a
        live-in redefined but never read, a live-in read then redefined, a
        dead def, a redefinition of a live register, and a live-out."""
        b = RegionBuilder("conventions")
        b.inst("op1", defs=["v3"])  # redefines live-in v3, never read
        b.inst("op1", defs=["v4"], uses=["v2"])  # reads live-in v2 ...
        b.inst("op1", defs=["v2"])  # ... then redefines it
        b.inst("op1", defs=["v5"])  # dead def
        b.inst("op1", defs=["v4"], uses=["v4"])  # redefines live v4
        b.inst("op1", defs=["s0"], uses=["v4", "v2"])
        region = b.live_in("v1", "v2", "v3").live_out("s0").build()
        for order in ([0, 1, 2, 3, 4, 5], [3, 1, 0, 2, 4, 5], [1, 3, 4, 2, 0, 5]):
            assert recompute_peak_pressure(region, order) == (
                reference.recompute_peak_pressure(region, order)
            )


# -- classify_stalls -------------------------------------------------------------


class TestClassifyStalls:
    @given(ddgs(max_size=40), seeds)
    @settings(max_examples=60, deadline=None)
    def test_stretched_and_padded_orders(self, ddg, seed):
        rng = random.Random(seed)
        stretched = schedule_in_order(ddg, topological_order(ddg, rng))
        for cycles in (stretched.cycles, padded(stretched.cycles, rng)):
            linear, quadratic = stalls(ddg, cycles)
            assert linear == quadratic

    @given(non_ssa_regions(), seeds)
    @settings(max_examples=60, deadline=None)
    def test_non_ssa_regions(self, region, seed):
        ddg = DDG(region)
        rng = random.Random(seed)
        stretched = schedule_in_order(ddg, topological_order(ddg, rng))
        linear, quadratic = stalls(ddg, padded(stretched.cycles, rng))
        assert linear == quadratic

    @given(ddgs(max_size=40), seeds)
    @settings(max_examples=40, deadline=None)
    def test_dual_issue(self, ddg, seed):
        schedule = list_schedule(ddg, dual_issue(), heuristic=CriticalPathHeuristic())
        for cycles in (schedule.cycles, padded(schedule.cycles, random.Random(seed))):
            linear, quadratic = stalls(ddg, cycles)
            assert linear == quadratic

    @given(ddgs(max_size=20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_forged_cycles(self, ddg, data):
        """Arbitrary cycles, negative ones and collisions included."""
        n = ddg.num_instructions
        cycles = data.draw(
            st.lists(st.integers(-4, 3 * n), min_size=n, max_size=n)
        )
        linear, quadratic = stalls(ddg, cycles)
        assert linear == quadratic


# -- pressure_lower_bounds -------------------------------------------------------


class TestPressureLowerBounds:
    @given(ddgs(max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_ssa_regions(self, ddg):
        assert pressure_lower_bounds(ddg.region) == (
            reference.pressure_lower_bounds(ddg.region)
        )

    @given(non_ssa_regions())
    @settings(max_examples=150, deadline=None)
    def test_non_ssa_regions(self, region):
        assert pressure_lower_bounds(region) == reference.pressure_lower_bounds(region)
