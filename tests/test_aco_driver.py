"""The two-pass driver against a scripted construction engine.

:class:`repro.aco.driver.TwoPassDriver` owns termination, the pheromone
update, deadlines, checkpoints and resume for every scheduler; an engine
only constructs ants. These tests drive it with an engine that returns a
fixed winner sequence — one entry per iteration, ``None`` for an iteration
whose ants all died — and charges one modeled second per iteration, so
each driver rule can be pinned exactly, independent of any real colony.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aco import SequentialACOScheduler
from repro.aco.driver import PassCost, PassEngine, TwoPassDriver, Winner
from repro.aco.strategy import AntSystemStrategy
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.ddg.lower_bounds import RegionBounds
from repro.errors import DeviceHangError, ResilienceError
from repro.heuristics.list_scheduler import schedule_in_order
from repro.ir.builder import figure1_region
from repro.machine import amd_vega20, simple_test_target
from repro.obs import AggregatingSink
from repro.parallel import ParallelACOScheduler
from repro.resilience.checkpoint import RegionCheckpoint
from repro.resilience.watchdog import DeadlineBudget
from repro.rp.cost import rp_cost_lower_bound
from repro.rp.liveness import peak_pressure
from repro.schedule import Schedule
from repro.telemetry import MemorySink, TeeSink, Telemetry
from strategies import make_region, non_ssa_regions, regions

#: A small register file, so the region's RP cost sits far above the
#: cost of zero pressure.
MACHINE = simple_test_target()
#: Zero lower bounds: a pass ends at its bound only when the script says so.
NO_BOUNDS = RegionBounds(length=0, pressure=())
#: Pass 1's lower bound under NO_BOUNDS (the RP cost of zero pressure).
RP_LB = rp_cost_lower_bound(NO_BOUNDS, MACHINE)
#: Stagnation limit of every pass (all size classes).
PATIENCE = 3


class ScriptedPass(PassEngine):
    def __init__(self, script, pass_index, resume, hang_at):
        self.script = script
        self.pass_index = pass_index
        self.hang_at = hang_at
        self.iterations = 0
        self.charged = 0
        if resume is not None:
            self.iterations = self.charged = resume.iteration

    def construct(self, iteration, pheromone, checkpoint):
        if self.hang_at == (self.pass_index, iteration):
            raise DeviceHangError("scripted hang", checkpoint=checkpoint())
        self.iterations += 1
        return self.script[iteration]

    def uncharged_seconds(self):
        seconds = float(self.iterations - self.charged)
        self.charged = self.iterations
        return seconds

    def checkpoint_fields(self):
        return {"backend": "scripted"}

    def finish(self):
        return PassCost(seconds=float(self.iterations))


class ScriptedDriver(TwoPassDriver):
    """A driver whose engine replays ``scripts[pass_index]``."""

    name = "scripted-aco"
    backend = "scripted"

    def __init__(self, scripts, hang_at=None, telemetry=None):
        super().__init__(
            MACHINE,
            ACOParams(termination_conditions=(PATIENCE,) * 3),
            telemetry, False, "as",
        )
        self.scripts = scripts
        self.hang_at = hang_at

    def _open_region(self, ddg, seed, fault_plan, attempt):
        return None

    def _open_pass(self, region_state, ddg, pass_index, budget, resume, target, max_length):
        return ScriptedPass(self.scripts[pass_index], pass_index, resume, self.hang_at)


@pytest.fixture(scope="module")
def ddg():
    return DDG(figure1_region())


def rp_winner(ddg, order, cost):
    order = tuple(order)
    return Winner(cost, order, peak=peak_pressure(Schedule.from_order(ddg.region, order)))


def ilp_winner(ddg, order, cost):
    return Winner(cost, tuple(order), cycles=tuple(schedule_in_order(ddg, order).cycles))


def run(ddg, scripts, sink=None, **kw):
    telemetry = Telemetry(sink=sink) if sink is not None else None
    driver = ScriptedDriver(scripts, hang_at=kw.pop("hang_at", None), telemetry=telemetry)
    # Program order: its RP cost is far above every scripted pass-1 cost.
    kw.setdefault("initial_order", tuple(range(ddg.num_instructions)))
    return driver.schedule(ddg, seed=7, bounds=NO_BOUNDS, **kw)


def orders(ddg):
    """Two legal orders of the region: program order and its heuristic."""
    n = ddg.num_instructions
    return tuple(range(n)), tuple(schedule_in_order(ddg, tuple(range(n))).order)


class TestTermination:
    def test_stops_at_lower_bound(self, ddg):
        order, _ = orders(ddg)
        scripts = {
            1: [rp_winner(ddg, order, RP_LB + 5), rp_winner(ddg, order, RP_LB), None],
            2: [ilp_winner(ddg, order, 0)],
        }
        result = run(ddg, scripts)
        assert result.pass1.iterations == 2
        assert result.pass1.hit_lower_bound
        assert result.pass1.final_cost == RP_LB
        assert result.pass1.trace == (RP_LB + 5.0, float(RP_LB))
        assert result.pass2.iterations == 1 and result.pass2.hit_lower_bound

    def test_stops_on_stagnation(self, ddg):
        order, _ = orders(ddg)
        scripts = {
            1: [rp_winner(ddg, order, 10 ** 6)] * (PATIENCE + 1),
            2: [ilp_winner(ddg, order, 10 ** 6)] * (PATIENCE + 1),
        }
        result = run(ddg, scripts)
        for p in (result.pass1, result.pass2):
            assert p.iterations == PATIENCE
            assert not p.improved and not p.hit_lower_bound

    def test_all_dead_iteration_counts_as_stagnant(self, ddg, monkeypatch):
        order, other = orders(ddg)
        calls = []
        original = AntSystemStrategy.update_no_winner

        def spy(self, pheromone, **kw):
            calls.append(kw["without_improvement"])
            return original(self, pheromone, **kw)

        monkeypatch.setattr(AntSystemStrategy, "update_no_winner", spy)
        scripts = {
            1: [rp_winner(ddg, order, RP_LB)],
            2: [ilp_winner(ddg, other, 1), None, None, None, None],
        }
        sink = MemorySink()
        result = run(ddg, scripts, sink=sink)
        # One improving iteration, then PATIENCE dead ones end the pass.
        assert result.pass2.iterations == 1 + PATIENCE
        assert calls == list(range(1, PATIENCE + 1))
        assert result.pass2.trace == (1.0,) + (float("inf"),) * PATIENCE
        dead = [e for e in sink.by_type("iteration") if e["pass_index"] == 2][1:]
        assert [e["winner_cost"] for e in dead] == [None] * PATIENCE
        assert result.schedule.cycles == tuple(schedule_in_order(ddg, other).cycles)


class TestDeadline:
    def test_trips_at_an_exact_iteration(self, ddg):
        """One second per iteration against a 2.5 s budget: the charge at
        the top of iteration 3 (spent 3.0) trips pass 1; pass 2 trips
        before its first iteration."""
        order, _ = orders(ddg)
        scripts = {
            1: [rp_winner(ddg, order, 100 - i) for i in range(10)],
            2: [ilp_winner(ddg, order, 100 - i) for i in range(10)],
        }
        sink = MemorySink()
        aggregating = AggregatingSink()
        budget = DeadlineBudget(2.5)
        result = run(ddg, scripts, sink=TeeSink(sink, aggregating), budget=budget)
        assert (result.pass1.iterations, result.pass1.deadline_hit) == (3, True)
        assert (result.pass2.iterations, result.pass2.deadline_hit) == (0, True)
        assert budget.spent == 3.0
        assert aggregating.aggregator.counters["resilience.deadline_trips"] == 2
        trips = sink.by_type("deadline")
        assert [(e["pass_index"], e["spent_seconds"]) for e in trips] == [(1, 3.0), (2, 3.0)]


class TestHangAndResume:
    def scripts(self, ddg):
        order, other = orders(ddg)
        return {
            1: [rp_winner(ddg, order, RP_LB + 50), rp_winner(ddg, order, RP_LB + 60)] * 4,
            2: [ilp_winner(ddg, order, 8), ilp_winner(ddg, other, 7)]
            + [ilp_winner(ddg, order, 8)] * 6,
        }

    def interrupt(self, ddg):
        with pytest.raises(DeviceHangError) as info:
            run(ddg, self.scripts(ddg), hang_at=(2, 2))
        return info.value.checkpoint

    def test_pass2_checkpoint_carries_pass1(self, ddg):
        plain = run(ddg, self.scripts(ddg))
        checkpoint = self.interrupt(ddg)
        assert (checkpoint.pass_index, checkpoint.iteration) == (2, 2)
        assert checkpoint.backend == "scripted" and checkpoint.rng_state is None
        assert checkpoint.pass1["iterations"] == plain.pass1.iterations
        assert checkpoint.pass1["final_cost"] == plain.pass1.final_cost
        assert checkpoint.best_cost == 7

    def test_resume_lands_on_the_same_result(self, ddg):
        plain = run(ddg, self.scripts(ddg))
        checkpoint = RegionCheckpoint.from_json(self.interrupt(ddg).to_json())
        resumed = run(ddg, self.scripts(ddg), resume=checkpoint)
        assert resumed.schedule.cycles == plain.schedule.cycles
        assert resumed.pass1 == plain.pass1
        assert resumed.pass2.iterations == plain.pass2.iterations
        assert resumed.pass2.final_cost == plain.pass2.final_cost == 7
        # The resumed pass records only the iterations it ran.
        assert resumed.pass2.trace == plain.pass2.trace[2:]

    @pytest.mark.parametrize("pass_index", [0, 3])
    def test_unknown_pass_index_rejected(self, ddg, pass_index):
        checkpoint = self.interrupt(ddg)
        checkpoint.pass_index = pass_index
        with pytest.raises(ResilienceError, match="pass_index"):
            run(ddg, self.scripts(ddg), resume=checkpoint)

    def test_pass2_checkpoint_without_pass1_rejected(self, ddg):
        checkpoint = self.interrupt(ddg)
        checkpoint.pass1 = None
        with pytest.raises(ResilienceError, match="pass-1"):
            run(ddg, self.scripts(ddg), resume=checkpoint)


class TestUnimprovedPass2CarriesPass1Peak:
    """When no ant improves pass 2, the shipped schedule is the stretched
    pass-1 order, and it carries pass 1's peak instead of a replay."""

    def scripts(self, ddg):
        _, other = orders(ddg)
        return {1: [rp_winner(ddg, other, RP_LB)], 2: [None] * (PATIENCE + 2)}

    def assert_carried(self, ddg, result):
        _, other = orders(ddg)
        assert result.schedule.order == other
        assert not result.pass2.improved
        assert result.schedule.tracked_peak is not None
        assert result.schedule.tracked_peak == peak_pressure(result.schedule) == result.peak

    def test_fresh(self, ddg):
        self.assert_carried(ddg, run(ddg, self.scripts(ddg)))

    def test_resumed_in_pass2(self, ddg):
        with pytest.raises(DeviceHangError) as info:
            run(ddg, self.scripts(ddg), hang_at=(2, 1))
        checkpoint = RegionCheckpoint.from_json(info.value.checkpoint.to_json())
        assert checkpoint.pass_index == 2
        self.assert_carried(ddg, run(ddg, self.scripts(ddg), resume=checkpoint))


# -- the pass-2 winner's carried peak -----------------------------------------

#: One engine per construction path; one wavefront keeps the scalar
#: loop engine fast enough for hypothesis.
PEAK_ENGINES = {
    "sequential": lambda machine: SequentialACOScheduler(
        machine, params=ACOParams(max_iterations=6)
    ),
    "vectorized": lambda machine: ParallelACOScheduler(
        machine, params=ACOParams(max_iterations=6),
        gpu_params=GPUParams(blocks=1), backend="vectorized",
    ),
    "loop": lambda machine: ParallelACOScheduler(
        machine, params=ACOParams(max_iterations=6),
        gpu_params=GPUParams(blocks=1), backend="loop",
    ),
}


def _carried_peak_result(engine, region):
    """Schedule ``region``; the peak the result carries is the replayed one."""
    result = PEAK_ENGINES[engine](amd_vega20()).schedule(DDG(region), seed=3)
    replayed = peak_pressure(result.schedule)
    assert result.peak == replayed
    assert result.schedule.tracked_peak in (None, replayed)
    return result


# Module-level: hypothesis and the engine parametrization (see
# test_differential.py for why not a class method).
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("engine", sorted(PEAK_ENGINES))
@given(region=st.one_of(regions(max_size=24), non_ssa_regions()))
def test_carried_pass2_peak_is_the_replayed_peak(engine, region):
    _carried_peak_result(engine, region)


@pytest.mark.parametrize("engine", sorted(PEAK_ENGINES))
def test_pass2_winner_carries_its_peak(engine):
    """A schedule an ant won in pass 2 ships with that ant's peak."""
    won = 0
    for seed in range(6):
        result = _carried_peak_result(engine, make_region("reduce", seed, 24))
        if result.pass2.invoked and result.pass2.final_cost < result.pass2.initial_cost:
            won += 1
            assert result.schedule.tracked_peak is not None
    assert won
