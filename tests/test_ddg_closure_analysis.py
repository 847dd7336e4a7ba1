"""Tests for the transitive closure, the CP analysis and the lower bounds."""

import pytest
from hypothesis import given, settings

from repro.ddg import (
    DDG,
    TransitiveClosure,
    critical_path_info,
    length_lower_bound,
    pressure_lower_bounds,
    region_bounds,
)
from repro.heuristics import CriticalPathHeuristic, list_schedule
from repro.ir.builder import RegionBuilder
from repro.ir.registers import SGPR, VGPR
from repro.machine import amd_vega20
from repro.rp import peak_pressure
from repro.schedule import Schedule

from strategies import ddgs


def _brute_force_reaches(ddg, src, dst):
    stack = [src]
    seen = set()
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for succ, _lat in ddg.successors[node]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


class TestTransitiveClosure:
    def test_figure1_ready_bound_matches_paper(self, fig1_ddg):
        closure = TransitiveClosure(fig1_ddg)
        # Section V-A: trivial bound 7, closure bound 5 on this DDG.
        assert fig1_ddg.num_instructions == 7
        assert closure.ready_list_upper_bound() == 5

    def test_figure1_independence_example(self, fig1_ddg):
        closure = TransitiveClosure(fig1_ddg)
        by_label = {i.label: i.index for i in fig1_ddg.region}
        # Section V-A: A is independent of B, C, D and F (4 instructions).
        assert closure.independent_count(by_label["A"]) == 4
        for other in "BCDF":
            assert closure.are_independent(by_label["A"], by_label[other])
        assert not closure.are_independent(by_label["A"], by_label["E"])

    def test_reaches(self, fig1_ddg):
        closure = TransitiveClosure(fig1_ddg)
        by_label = {i.label: i.index for i in fig1_ddg.region}
        assert closure.reaches(by_label["A"], by_label["G"])
        assert not closure.reaches(by_label["G"], by_label["A"])
        assert not closure.reaches(by_label["A"], by_label["B"])

    @given(ddgs(max_size=25))
    @settings(max_examples=30)
    def test_matches_brute_force(self, ddg):
        closure = TransitiveClosure(ddg)
        n = ddg.num_instructions
        for src in range(min(n, 10)):
            for dst in range(n):
                if src == dst:
                    continue
                assert closure.reaches(src, dst) == _brute_force_reaches(ddg, src, dst)

    @given(ddgs())
    @settings(max_examples=30)
    def test_independence_is_symmetric(self, ddg):
        closure = TransitiveClosure(ddg)
        n = ddg.num_instructions
        for a in range(n):
            for b in range(a + 1, n):
                assert closure.are_independent(a, b) == closure.are_independent(b, a)

    @given(ddgs())
    @settings(max_examples=30)
    def test_ready_bound_holds_during_scheduling(self, ddg):
        """No dependence-ready set can exceed the closure bound."""
        bound = TransitiveClosure(ddg).ready_list_upper_bound()
        pred_left = list(ddg.num_predecessors)
        ready = [i for i in range(ddg.num_instructions) if pred_left[i] == 0]
        max_seen = len(ready)
        while ready:
            node = ready.pop(0)  # FIFO maximizes breadth
            for succ, _lat in ddg.successors[node]:
                pred_left[succ] -= 1
                if pred_left[succ] == 0:
                    ready.append(succ)
            max_seen = max(max_seen, len(ready))
        assert max_seen <= bound


class TestCriticalPath:
    def test_figure1(self, fig1_ddg):
        info = critical_path_info(fig1_ddg)
        by_label = {i.label: i.index for i in fig1_ddg.region}
        # C (lat 5) -> F (lat 1) -> G gives earliest starts 0, 5, 6.
        assert info.earliest_start[by_label["C"]] == 0
        assert info.earliest_start[by_label["F"]] == 5
        assert info.earliest_start[by_label["G"]] == 6
        assert info.critical_path_length == 7
        assert info.height[by_label["C"]] == 7
        assert info.height[by_label["G"]] == 1
        assert info.is_on_critical_path(by_label["C"])
        assert not info.is_on_critical_path(by_label["B"])

    def test_chain(self, chain_region):
        info = critical_path_info(DDG(chain_region))
        assert info.critical_path_length == 3 * 2 + 1  # three lat-2 hops + issue

    @given(ddgs())
    @settings(max_examples=30)
    def test_height_decreases_along_edges(self, ddg):
        info = critical_path_info(ddg)
        for src in range(ddg.num_instructions):
            for dst, latency in ddg.successors[src]:
                assert info.height[src] >= latency + info.height[dst]


class TestLowerBounds:
    def test_length_lb_at_least_n(self, fig1_ddg):
        assert length_lower_bound(fig1_ddg) == 7  # max(CP=7, n=7)

    def test_length_lb_uses_critical_path(self, chain_region):
        assert length_lower_bound(DDG(chain_region)) == 7  # CP 7 > n 4

    def test_pressure_lb_figure1(self, fig1_region):
        bounds = pressure_lower_bounds(fig1_region)
        # G reads v5 and v6 simultaneously -> at least 2 VGPRs live.
        assert bounds[VGPR] == 2

    def test_live_out_counts(self):
        b = RegionBuilder("lo")
        b.inst("op1", defs=["v0"])
        b.inst("op1", defs=["v1"])
        b.inst("op1", defs=["v2"])
        region = b.live_out("v0", "v1", "v2").build()
        assert pressure_lower_bounds(region)[VGPR] == 3

    @given(ddgs(max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_bounds_are_sound(self, ddg):
        """Every legal schedule respects both lower bounds."""
        machine = amd_vega20()
        bounds = region_bounds(ddg)
        schedule = list_schedule(ddg, machine, heuristic=CriticalPathHeuristic())
        assert schedule.length >= bounds.length
        peak = peak_pressure(schedule)
        for cls, bound in bounds.pressure:
            assert peak.get(cls, 0) >= bound

    @pytest.mark.xfail(
        strict=True,
        reason="a use read again later in program order counts as live "
        "through its instruction, but an independent later reader may issue "
        "first",
    )
    def test_pressure_bound_holds_when_readers_reorder(self):
        """i1 and i2 both read s1 and do not depend on each other. Issuing
        i2 first closes s1 at i1, so SGPR pressure never exceeds 1; the
        bound says 2 (s2 plus s1 "still read by i2")."""
        b = RegionBuilder("readers")
        b.inst("op1", defs=["s1"])
        b.inst("op1", defs=["s2"], uses=["s1"])
        b.inst("op1", defs=["v0"], uses=["s1"])
        region = b.live_out("s2", "v0").build()
        schedule = Schedule.from_order(region, [0, 2, 1])
        assert peak_pressure(schedule)[SGPR] >= pressure_lower_bounds(region)[SGPR]

    def test_region_bounds_pressure_lookup(self, fig1_ddg):
        bounds = region_bounds(fig1_ddg)
        assert bounds.pressure_of(VGPR) == 2
        assert bounds.pressure_dict[VGPR] == 2
