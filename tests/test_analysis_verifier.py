"""Fault-injection tests for the independent schedule verifier.

Every test here seeds a *specific* defect into an otherwise-correct
schedule (or scheduler claim) and asserts the verifier reports the exact
violation code. A verifier that only ever sees correct schedules proves
nothing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aco import SequentialACOScheduler
from repro.analysis import (
    classify_stalls,
    recompute_peak_pressure,
    verify_aco_result,
    verify_order,
    verify_schedule,
)
from repro.config import ACOParams
from repro.ddg import DDG
from repro.errors import VerificationError
from repro.heuristics import CriticalPathHeuristic, list_schedule
from repro.ir.builder import RegionBuilder
from repro.ir.registers import VGPR
from repro.machine import amd_vega20, simple_test_target
from repro.rp import peak_pressure, rp_cost
from repro.schedule import Schedule

from conftest import ddgs


class Forged:
    """A duck-typed stand-in for Schedule, for feeding corrupt state."""

    def __init__(self, region, cycles, order=None):
        self.region = region
        self.cycles = tuple(cycles)
        if order is not None:
            self.order = tuple(order)


# -- the independent liveness recomputation ----------------------------------


class TestRecomputePeakPressure:
    def test_matches_tracker_on_figure1(self, fig1_region):
        order = tuple(range(7))
        schedule = Schedule.from_order(fig1_region, order)
        assert recompute_peak_pressure(fig1_region, order) == peak_pressure(schedule)

    @given(ddgs(max_size=25), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_bit_matches_tracker_on_random_orders(self, ddg, seed):
        """The interval recomputation must agree with the incremental
        tracker on *any* order, legal or not (liveness only needs an order)."""
        order = list(range(ddg.num_instructions))
        random.Random(seed).shuffle(order)
        schedule = Schedule.from_order(ddg.region, order)
        assert recompute_peak_pressure(ddg.region, order) == peak_pressure(schedule)


# -- clean schedules pass -----------------------------------------------------


class TestCleanSchedules:
    def test_list_schedule_verifies(self, fig1_ddg, vega):
        schedule = list_schedule(fig1_ddg, vega, heuristic=CriticalPathHeuristic())
        report = verify_schedule(schedule, fig1_ddg, vega)
        assert report.ok
        assert report.checks > 10
        report.raise_if_failed()  # no-op

    @given(ddgs(max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_generated_regions_verify(self, ddg):
        machine = amd_vega20()
        schedule = list_schedule(ddg, machine, heuristic=CriticalPathHeuristic())
        peak = peak_pressure(schedule)
        report = verify_schedule(
            schedule,
            ddg,
            machine,
            expected_peak=peak,
            expected_rp_cost=rp_cost(peak, machine),
        )
        assert report.ok, report.violations

    def test_aco_result_verifies(self, fig1_ddg, tiny_machine):
        scheduler = SequentialACOScheduler(
            tiny_machine, params=ACOParams(max_iterations=4)
        )
        result = scheduler.schedule(fig1_ddg, seed=1)
        report = verify_aco_result(result, fig1_ddg, tiny_machine)
        assert report.ok, report.violations
        assert "recertified_peak" in report.stats


# -- seeded faults, one per mutation -----------------------------------------


class TestFaultInjection:
    def test_edge_violating_swap(self, fig1_ddg, vega):
        """Mutation 1: swap a dependent pair's cycles."""
        schedule = list_schedule(fig1_ddg, vega, heuristic=CriticalPathHeuristic())
        cycles = list(schedule.cycles)
        by_label = {i.label: i.index for i in fig1_ddg.region}
        a, e = by_label["A"], by_label["E"]  # A -> E is a flow dependence
        cycles[a], cycles[e] = cycles[e], cycles[a]
        report = verify_schedule(Forged(fig1_ddg.region, cycles), fig1_ddg, vega)
        assert "latency" in report.codes()
        with pytest.raises(VerificationError):
            report.raise_if_failed()

    def test_dropped_instruction(self, fig1_ddg, vega):
        """Mutation 2: a schedule that simply lost an instruction."""
        report = verify_schedule(
            Forged(fig1_ddg.region, range(6)), fig1_ddg, vega
        )
        assert "incomplete" in report.codes()

    def test_duplicated_issue(self, fig1_ddg, vega):
        """Mutation 3: one instruction issued twice in the claimed order."""
        report = verify_schedule(
            Forged(fig1_ddg.region, range(7), order=(0, 0, 1, 2, 3, 4, 5)),
            fig1_ddg,
            vega,
        )
        assert "duplicate-issue" in report.codes()

    def test_latency_compression(self, chain_region, vega):
        """Mutation 4: stalls squeezed out of a latency chain."""
        ddg = DDG(chain_region)
        report = verify_schedule(Forged(chain_region, range(4)), ddg, vega)
        assert "latency" in report.codes()

    def test_aprp_target_overshoot(self, wide_region, vega):
        """Mutation 5: a pass-2 schedule exceeding the pass-1 target."""
        ddg = DDG(wide_region)
        schedule = list_schedule(ddg, vega, heuristic=CriticalPathHeuristic())
        report = verify_schedule(schedule, ddg, vega, target_aprp={VGPR: 1})
        assert "aprp-target" in report.codes()

    def test_claimed_peak_tamper(self, fig1_ddg, tiny_machine):
        """Mutation 6: the scheduler lies about its peak pressure."""
        scheduler = SequentialACOScheduler(
            tiny_machine, params=ACOParams(max_iterations=3)
        )
        result = scheduler.schedule(fig1_ddg, seed=2)
        result.peak = {VGPR: 1}  # nobody schedules Figure 1 in 1 VGPR
        report = verify_aco_result(result, fig1_ddg, tiny_machine)
        assert "claimed-peak" in report.codes()

    def test_claimed_cost_tamper(self, fig1_ddg, tiny_machine):
        """Mutation 7: the scheduler lies about its RP cost."""
        scheduler = SequentialACOScheduler(
            tiny_machine, params=ACOParams(max_iterations=3)
        )
        result = scheduler.schedule(fig1_ddg, seed=2)
        result.rp_cost_value += 1
        report = verify_aco_result(result, fig1_ddg, tiny_machine)
        assert "claimed-cost" in report.codes()

    def test_issue_width_violation(self, vega):
        """Mutation 8: two independent instructions crammed into one cycle."""
        b = RegionBuilder("pair")
        b.inst("op1", defs=["v0"])
        b.inst("op1", defs=["v1"])
        region = b.live_out("v0", "v1").build()
        ddg = DDG(region)
        report = verify_schedule(Forged(region, [0, 0]), ddg, vega)
        assert "issue-width" in report.codes()

    def test_region_mismatch(self, fig1_ddg, chain_region, vega):
        """Mutation 9: a schedule forged against a different region."""
        report = verify_schedule(
            Forged(chain_region, range(7)), fig1_ddg, vega
        )
        assert "region-mismatch" in report.codes()

    def test_negative_cycle(self, fig1_ddg, vega):
        """Mutation 10: a negative cycle smuggled past Schedule's guards."""
        report = verify_schedule(
            Forged(fig1_ddg.region, [-1, 0, 1, 2, 3, 4, 5]), fig1_ddg, vega
        )
        assert "negative-cycle" in report.codes()

    def test_length_claim_tamper(self, fig1_ddg, vega):
        """Mutation 11: the claimed length disagrees with the cycles."""
        forged = Forged(fig1_ddg.region, range(7), order=range(7))
        forged.length = 3
        report = verify_schedule(forged, fig1_ddg, vega)
        assert "length-mismatch" in report.codes()


# -- order verification -------------------------------------------------------


class TestVerifyOrder:
    def test_legal_order_passes(self, fig1_ddg):
        assert verify_order(fig1_ddg, range(7)).ok

    def test_dependence_swap_caught(self, fig1_ddg):
        by_label = {i.label: i.index for i in fig1_ddg.region}
        order = list(range(7))
        a, e = order.index(by_label["A"]), order.index(by_label["E"])
        order[a], order[e] = order[e], order[a]
        report = verify_order(fig1_ddg, order)
        assert "order-dependence" in report.codes()

    def test_missing_and_alien(self, fig1_ddg):
        report = verify_order(fig1_ddg, [0, 1, 2, 3, 4, 5, 99])
        codes = report.codes()
        assert "missing-instruction" in codes
        assert "alien-instruction" in codes


# -- stall classification -----------------------------------------------------


class TestClassifyStalls:
    def test_chain_stalls_split(self, chain_region):
        """Cycles [0,3,5,7] on a lat-2 chain: cycle 2 could have issued
        instruction 1 (optional); cycles 1, 4, 6 could not (necessary)."""
        ddg = DDG(chain_region)
        stalls = classify_stalls(Forged(chain_region, [0, 3, 5, 7]), ddg)
        assert stalls == {"necessary_stalls": 3, "optional_stalls": 1}

    def test_compact_schedule_has_no_stalls(self, fig1_region, fig1_ddg):
        stalls = classify_stalls(Forged(fig1_region, range(7)), fig1_ddg)
        assert stalls == {"necessary_stalls": 0, "optional_stalls": 0}

    def test_minimal_chain_schedule_all_necessary(self, chain_region):
        ddg = DDG(chain_region)
        stalls = classify_stalls(Forged(chain_region, [0, 2, 4, 6]), ddg)
        assert stalls == {"necessary_stalls": 3, "optional_stalls": 0}

    @pytest.mark.parametrize(
        "cycles, necessary, optional",
        [
            # 0 at -5 releases 1 at -3, before cycle 0: 1 could fill 0..2.
            ([-5, 3, 5, 7], 2, 3),
            # 1 at 9 releases 2 at 11, past the end: 2 covers no cycle.
            ([0, 9, 3, 5], 1, 5),
            # 3 at -1 covers no cycle either.
            ([0, 4, 9, -1], 2, 5),
            # As many negative cycles as empty ones.
            ([-2, -1, 1, 3], 2, 0),
        ],
    )
    def test_forged_cycles_count_per_cycle(self, chain_region, cycles, necessary, optional):
        """Negative cycles and releases past the schedule's end count as
        the per-cycle definition says: clamped, never wrapped around."""
        ddg = DDG(chain_region)
        stalls = classify_stalls(Forged(chain_region, cycles), ddg)
        assert stalls == {"necessary_stalls": necessary, "optional_stalls": optional}


# -- scheduler-integrated verification ---------------------------------------


class TestSchedulerVerifyFlag:
    def test_sequential_verify_clean(self, fig1_ddg, tiny_machine):
        scheduler = SequentialACOScheduler(
            tiny_machine, params=ACOParams(max_iterations=3), verify=True
        )
        assert scheduler.verify_enabled
        result = scheduler.schedule(fig1_ddg, seed=0)
        assert sorted(result.schedule.order) == list(range(7))

    def test_verify_defaults_off(self, tiny_machine):
        assert not SequentialACOScheduler(tiny_machine).verify_enabled
