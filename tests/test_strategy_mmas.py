"""Property tests for the MAX-MIN Ant System strategy invariants.

MMAS makes three hard promises (see :mod:`repro.aco.strategy`): every
pheromone entry stays inside ``[tau_min, tau_max]`` after every update, a
stagnation reinitialization resets the whole table to exactly ``tau_max``,
and the deposit touches *only* the best tour's links. Hypothesis drives
the strategy directly against randomized tables and tours, independent of
any scheduler, so a future refactor cannot weaken the clamping without a
counterexample surfacing here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aco.pheromone import PheromoneTable
from repro.aco.strategy import (
    STRATEGIES,
    AntSystemStrategy,
    MaxMinAntSystem,
    make_strategy,
    resolve_strategy,
)
from repro.config import ACOParams, STRATEGY_NAMES
from repro.errors import ConfigError


@st.composite
def mmas_cases(draw):
    """A strategy + table + two legal tours over the same instruction set."""
    n = draw(st.integers(min_value=2, max_value=12))
    params = ACOParams(
        strategy="mmas",
        mmas_reinit_stagnation=draw(st.integers(min_value=1, max_value=4)),
        mmas_tau_min_scale=draw(st.floats(min_value=0.5, max_value=8.0)),
    )
    strategy = MaxMinAntSystem(params, n)
    table = PheromoneTable(n, params)
    # Scatter the table so clamping has real work to do.
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    table.tau[:] = rng.uniform(0.0, 4.0 * params.max_pheromone, size=table.tau.shape)
    perm = list(range(n))
    winner = draw(st.permutations(perm))
    best = draw(st.permutations(perm))
    winner_gap = draw(st.floats(min_value=0.0, max_value=50.0))
    best_gap = draw(st.floats(min_value=0.0, max_value=50.0))
    without = draw(st.integers(min_value=0, max_value=12))
    return strategy, table, tuple(winner), winner_gap, tuple(best), best_gap, without


@settings(max_examples=200, deadline=None)
@given(case=mmas_cases())
def test_every_entry_within_bounds_after_update(case):
    strategy, table, winner, winner_gap, best, best_gap, without = case
    strategy.update(
        table,
        winner_order=winner,
        winner_gap=winner_gap,
        best_order=best,
        best_gap=best_gap,
        without_improvement=without,
    )
    lo, hi = strategy.bounds(best_gap)
    assert lo > 0.0
    assert np.all(table.tau >= lo - 1e-12)
    assert np.all(table.tau <= hi + 1e-12)


@settings(max_examples=100, deadline=None)
@given(case=mmas_cases())
def test_reinitialization_resets_exactly_to_tau_max(case):
    strategy, table, winner, winner_gap, best, best_gap, _ = case
    period = strategy.params.mmas_reinit_stagnation
    reinitialized = strategy.update(
        table,
        winner_order=winner,
        winner_gap=winner_gap,
        best_order=best,
        best_gap=best_gap,
        without_improvement=period,  # exactly on the restart period
    )
    assert reinitialized
    hi = strategy.tau_max(best_gap)
    assert np.all(table.tau == hi)


@settings(max_examples=100, deadline=None)
@given(case=mmas_cases())
def test_deposit_touches_only_best_tour_links(case):
    strategy, table, winner, winner_gap, best, best_gap, _ = case
    # without_improvement=0 can never reinitialize: the update is always
    # evaporate + best-only deposit + clamp.
    before = table.tau.copy()
    strategy.update(
        table,
        winner_order=winner,
        winner_gap=winner_gap,
        best_order=best,
        best_gap=best_gap,
        without_improvement=0,
    )
    lo, hi = strategy.bounds(best_gap)
    expected = np.clip(before * strategy.params.decay, lo, hi)
    raised = np.argwhere(table.tau > expected + 1e-12)
    best_links = set()
    previous = table.start_row
    for index in best:
        best_links.add((previous, index))
        previous = index
    for row, col in raised:
        assert (int(row), int(col)) in best_links, (
            "entry (%d, %d) rose without being on the best tour" % (row, col)
        )
    # And the winner's links (when off the best tour) must NOT be deposited.
    amount = strategy.params.deposit / (1.0 + max(0.0, best_gap))
    previous = table.start_row
    for index in winner:
        if (previous, index) not in best_links:
            assert table.tau[previous, index] <= expected[previous, index] + 1e-12
        previous = index
    assert amount > 0.0


@settings(max_examples=50, deadline=None)
@given(case=mmas_cases(), base=st.integers(min_value=1, max_value=3))
def test_stagnation_limit_stretched_by_patience(case, base):
    strategy = case[0]
    assert strategy.stagnation_limit(base) == base * strategy.params.mmas_patience


class TestStrategyRegistry:
    def test_registry_matches_config_names(self):
        assert tuple(sorted(STRATEGIES)) == tuple(sorted(STRATEGY_NAMES))

    def test_resolve_known_and_unknown(self):
        assert resolve_strategy("as") is AntSystemStrategy
        assert resolve_strategy("mmas") is MaxMinAntSystem
        with pytest.raises(ConfigError):
            resolve_strategy("acs")

    def test_mmas_requires_decay_below_one(self):
        # The strategy is read only from ACOParams, so its validation is
        # the one decay check MMAS needs.
        with pytest.raises(ConfigError):
            ACOParams(strategy="mmas", decay=1.0).validate()
        ACOParams(decay=1.0).validate()  # the Ant System tolerates no decay

    def test_as_params_reject_bad_mmas_knobs(self):
        with pytest.raises(ConfigError):
            ACOParams(mmas_patience=0).validate()
        with pytest.raises(ConfigError):
            ACOParams(mmas_reinit_stagnation=0).validate()
        with pytest.raises(ConfigError):
            ACOParams(mmas_tau_min_scale=0.0).validate()

    def test_ant_system_update_matches_decay_plus_deposit(self):
        params = ACOParams()
        n = 6
        strategy = make_strategy(params, n)
        table = PheromoneTable(n, params)
        reference = table.copy()
        order = tuple(range(n))
        reinit = strategy.update(
            table,
            winner_order=order,
            winner_gap=3.0,
            best_order=order[::-1],
            best_gap=1.0,
            without_improvement=5,
        )
        assert not reinit  # Ant System never restarts
        reference.decay()
        reference.deposit(order, 3.0)
        assert np.array_equal(table.tau, reference.tau)
