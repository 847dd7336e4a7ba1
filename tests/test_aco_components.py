"""Tests for the ACO building blocks: pheromone, selection, stalls,
termination."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aco import PheromoneTable, roulette_index, select_index
from repro.aco.stalls import OptionalStallHeuristic
from repro.aco.termination import TerminationTracker
from repro.config import ACOParams
from repro.errors import ConfigError
from repro.ir import RegionBuilder
from repro.ir.registers import SGPR, VGPR
from repro.rp import PressureTracker


class TestPheromoneTable:
    def test_shape_and_init(self):
        params = ACOParams(initial_pheromone=2.5)
        table = PheromoneTable(5, params)
        assert table.tau.shape == (6, 5)
        assert np.all(table.tau == 2.5)
        assert table.start_row == 5

    def test_row_minus_one_is_start(self):
        table = PheromoneTable(3, ACOParams())
        assert np.array_equal(table.row(-1), table.row(3))

    def test_decay_clamps_at_min(self):
        params = ACOParams(decay=0.5, min_pheromone=0.4, initial_pheromone=1.0)
        table = PheromoneTable(3, params)
        table.decay()
        assert np.all(table.tau == 0.5)
        table.decay()
        assert np.all(table.tau == 0.4)  # clamped

    def test_deposit_reinforces_links(self):
        params = ACOParams(initial_pheromone=1.0, deposit=6.0)
        table = PheromoneTable(3, params)
        table.deposit([2, 0, 1], cost=2.0)
        amount = 6.0 / 3.0
        assert table.tau[3, 2] == pytest.approx(1.0 + amount)  # start -> 2
        assert table.tau[2, 0] == pytest.approx(1.0 + amount)
        assert table.tau[0, 1] == pytest.approx(1.0 + amount)
        assert table.tau[1, 0] == 1.0  # untouched link

    def test_deposit_clamps_at_max(self):
        params = ACOParams(max_pheromone=1.5, deposit=100.0)
        table = PheromoneTable(2, params)
        table.deposit([0, 1], cost=0.0)
        assert table.tau[2, 0] == 1.5

    def test_cheaper_winner_deposits_more(self):
        params = ACOParams()
        a = PheromoneTable(2, params)
        b = PheromoneTable(2, params)
        a.deposit([0, 1], cost=0.0)
        b.deposit([0, 1], cost=10.0)
        assert a.tau[2, 0] > b.tau[2, 0]

    def test_copy_is_independent(self):
        table = PheromoneTable(2, ACOParams())
        clone = table.copy()
        table.deposit([0, 1], cost=0.0)
        assert clone.tau[2, 0] == ACOParams().initial_pheromone

    def test_zero_instructions_rejected(self):
        with pytest.raises(ConfigError):
            PheromoneTable(0, ACOParams())


class TestSelection:
    def test_exploit_picks_argmax(self):
        rng = random.Random(0)
        assert select_index([1.0, 5.0, 2.0], rng, exploit=True) == 1

    def test_explore_respects_distribution(self):
        rng = random.Random(0)
        counts = [0, 0]
        for _ in range(2000):
            counts[roulette_index([1.0, 9.0], rng)] += 1
        assert 0.82 < counts[1] / 2000 < 0.97

    def test_all_zero_scores_uniform(self):
        rng = random.Random(0)
        picks = {roulette_index([0.0, 0.0, 0.0], rng) for _ in range(50)}
        assert picks == {0, 1, 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_index([], random.Random(0), exploit=True)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
        st.integers(min_value=0, max_value=1000),
    )
    def test_selection_in_range(self, scores, seed):
        rng = random.Random(seed)
        for exploit in (True, False):
            assert 0 <= select_index(scores, rng, exploit) < len(scores)


def excess(pressure, target):
    """``excess_if_scheduled`` of an instruction that opens ``pressure``
    (class -> count) live-out registers in an otherwise empty region."""
    names = ["%s%d" % (cls.prefix, i) for cls, count in pressure.items() for i in range(count)]
    b = RegionBuilder("excess")
    b.inst("op1", defs=names)
    region = b.live_out(*names).build()
    return PressureTracker(region).excess_if_scheduled(0, target)


class TestPressureExcess:
    def test_positive_when_over(self):
        assert excess({VGPR: 5}, {VGPR: 3}) == 2

    def test_zero_at_boundary(self):
        assert excess({VGPR: 3}, {VGPR: 3}) == 0

    def test_negative_when_under(self):
        assert excess({VGPR: 1}, {VGPR: 3}) == -2

    def test_worst_class_wins(self):
        assert excess({VGPR: 1, SGPR: 9}, {VGPR: 3, SGPR: 4}) == 5

    def test_empty_target(self):
        assert excess({VGPR: 7}, {}) == 0


class TestOptionalStallHeuristic:
    def test_budget_scales_with_region(self):
        params = ACOParams(optional_stall_budget=0.25)
        assert OptionalStallHeuristic(params, 100).max_optional_stalls == 25
        assert OptionalStallHeuristic(params, 1).max_optional_stalls == 1

    def test_budget_factor_fades(self):
        heuristic = OptionalStallHeuristic(ACOParams(), 40)
        full = heuristic._budget_factor(0)
        spent = heuristic._budget_factor(heuristic.max_optional_stalls)
        assert full == 1.0
        assert spent == 0.0


class TestTerminationTracker:
    def test_lb_stops(self):
        tracker = TerminationTracker(lower_bound=10, stagnation_limit=3, best_cost=15)
        tracker.record_iteration(10)
        assert tracker.hit_lower_bound
        assert tracker.should_stop()

    def test_stagnation_stops(self):
        tracker = TerminationTracker(lower_bound=0, stagnation_limit=2, best_cost=15)
        assert tracker.record_iteration(12) is True
        assert not tracker.should_stop()
        assert tracker.record_iteration(12) is False
        assert not tracker.should_stop()
        assert tracker.record_iteration(13) is False
        assert tracker.should_stop()
        assert tracker.iterations == 3

    def test_improvement_resets_stagnation(self):
        tracker = TerminationTracker(lower_bound=0, stagnation_limit=2, best_cost=15)
        tracker.record_iteration(15)
        tracker.record_iteration(14)
        assert tracker.iterations_without_improvement == 0
