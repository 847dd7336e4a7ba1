"""The two-pass ACO driver shared by the CPU and GPU schedulers (Section IV).

The paper runs one algorithm in two places: Section IV-A on the CPU and
Section IV-B on the GPU share the lower bounds, the termination rules and
the pheromone update; only ant construction, and what it costs, moves to
the device. This module is that one algorithm. :class:`TwoPassDriver`
owns:

* the pass loop, for both passes: the lower-bound early exit, strategy and
  :class:`TerminationTracker` setup, the winner and no-winner branches,
  reinit publication and the telemetry pass scope;
* resume state, the checkpoint's region and pass checks, deadline trips,
  budget charging, and checkpoint capture;
* :meth:`~TwoPassDriver.schedule`: the region trace, default bounds and
  initial order, the pass-1 payload on a pass-2 hang, the recorder's
  search schedule, and verification.

A scheduler subclass is the *engine*: :meth:`~TwoPassDriver._open_region`
prepares per-region state once, and :meth:`~TwoPassDriver._open_pass`
returns a :class:`PassEngine` that constructs one iteration's ants, reports
the winner, and charges and publishes its own modeled cost. The split is
the construction-kernel / pheromone-kernel split of Cecilia et al.:
everything above the construction kernel is written once, here.

Budget rule, common to every engine: at the top of each iteration the
driver charges the engine's modeled seconds since the last charge, and
charges once more after the loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..analysis.verifier import verify_aco_result, verify_order
from ..config import ACOParams
from ..ddg.graph import DDG
from ..ddg.lower_bounds import RegionBounds, region_bounds
from ..errors import DeviceHangError, ResilienceError
from ..heuristics.base import GuidingHeuristic
from ..heuristics.list_scheduler import order_schedule, schedule_in_order
from ..heuristics.luc import LastUseCountHeuristic
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..obs.context import region_trace
from ..resilience.checkpoint import RegionCheckpoint
from ..resilience.watchdog import DeadlineBudget
from ..rp.cost import rp_cost, rp_cost_lower_bound
from ..rp.liveness import schedule_peak
from ..schedule.schedule import Schedule
from ..telemetry import Telemetry
from .ant import ConstructionStats
from .pheromone import PheromoneTable
from .strategy import make_strategy, publish_reinit
from .termination import TerminationTracker


@dataclass
class PassResult:
    """Outcome of one ACO pass on one region.

    The device-time fields break ``seconds`` down for the GPU engine; the
    CPU engine leaves them at 0.0.
    """

    invoked: bool
    iterations: int
    initial_cost: float
    final_cost: float
    hit_lower_bound: bool
    seconds: float
    stats: ConstructionStats = field(default_factory=ConstructionStats)
    #: Per-iteration winner costs (the convergence curve of the search),
    #: derived from the telemetry layer's ``iteration`` events (see
    #: :meth:`repro.telemetry.PassScope.trace`).
    trace: Tuple[float, ...] = ()
    #: True when the pass stopped early because the region's deadline
    #: budget ran out (the best-so-far shipped as a partial result).
    deadline_hit: bool = False
    transfer_seconds: float = 0.0
    kernel_seconds: float = 0.0
    launch_seconds: float = 0.0

    @property
    def improved(self) -> bool:
        return self.final_cost < self.initial_cost


def pass_result_payload(result: PassResult) -> Dict:
    """JSON-serializable dict of a completed pass result.

    A pass-2 checkpoint embeds the *finished* pass-1 result this way, so a
    resume skips pass 1 entirely and still reports it faithfully
    (construction stats are dropped — they are observability, not search
    state).
    """
    return {
        "invoked": result.invoked,
        "iterations": result.iterations,
        "initial_cost": result.initial_cost,
        "final_cost": result.final_cost,
        "hit_lower_bound": result.hit_lower_bound,
        "seconds": result.seconds,
        "trace": list(result.trace),
        "deadline_hit": result.deadline_hit,
        "transfer_seconds": result.transfer_seconds,
        "kernel_seconds": result.kernel_seconds,
        "launch_seconds": result.launch_seconds,
    }


def pass_result_from_payload(payload: Dict) -> PassResult:
    """Rebuild a pass result from :func:`pass_result_payload`."""
    return PassResult(
        invoked=bool(payload["invoked"]),
        iterations=int(payload["iterations"]),
        initial_cost=payload["initial_cost"],
        final_cost=payload["final_cost"],
        hit_lower_bound=bool(payload["hit_lower_bound"]),
        seconds=float(payload["seconds"]),
        trace=tuple(payload.get("trace", ())),
        deadline_hit=bool(payload.get("deadline_hit", False)),
        transfer_seconds=float(payload.get("transfer_seconds", 0.0)),
        kernel_seconds=float(payload.get("kernel_seconds", 0.0)),
        launch_seconds=float(payload.get("launch_seconds", 0.0)),
    )


@dataclass
class ACOResult:
    """Final outcome of two-pass ACO scheduling on one region."""

    schedule: Schedule
    peak: Dict[RegisterClass, int]
    rp_cost_value: int
    pass1: PassResult
    pass2: PassResult

    @property
    def seconds(self) -> float:
        return self.pass1.seconds + self.pass2.seconds

    @property
    def length(self) -> int:
        return self.schedule.length


class Winner(NamedTuple):
    """One iteration's best ant, as an engine reports it."""

    #: RP cost (pass 1) or schedule length (pass 2).
    cost: float
    order: Tuple[int, ...]
    #: The per-class peak pressure of issuing ``order``.
    peak: Optional[Dict[RegisterClass, int]] = None
    cycles: Optional[Tuple[int, ...]] = None


@dataclass
class PassCost:
    """An engine's account of a finished pass."""

    seconds: float
    #: Device time breakdown (``kernel_seconds``, ``transfer_seconds``,
    #: ``launch_seconds``), carried on the result and on ``pass_end``.
    device: Dict[str, float] = field(default_factory=dict)
    stats: ConstructionStats = field(default_factory=ConstructionStats)


class PassEngine(ABC):
    """One pass's construction engine (see :meth:`TwoPassDriver._open_pass`).

    ``checkpoint_fields`` is what a checkpoint records about the engine:
    its ``backend`` name and, when its draws can continue exactly, the
    ``rng_state`` and ``num_ants``.
    """

    @abstractmethod
    def construct(
        self,
        iteration: int,
        pheromone: PheromoneTable,
        checkpoint: Callable[[], RegionCheckpoint],
    ) -> Optional[Winner]:
        """Construct one iteration's ants; the winner, or None when every
        ant died. ``checkpoint`` snapshots the search at this boundary
        (for an engine that must abandon the pass)."""

    def after_update(self, pheromone: PheromoneTable) -> None:
        """Called once the iteration's pheromone update and events are done."""

    @abstractmethod
    def uncharged_seconds(self) -> float:
        """Modeled seconds spent since the previous call."""

    @abstractmethod
    def checkpoint_fields(self) -> Dict:
        """The engine's part of a checkpoint (see the class docstring)."""

    @abstractmethod
    def finish(self) -> PassCost:
        """Close the pass (may raise a detected device fault)."""

    def publish(self, iterations: int) -> None:
        """Export the pass's engine events (after ``pass_end``)."""


@dataclass
class _Best:
    """A pass's best so far.

    Pass 1 improves ``order``/``peak``. Pass 2 keeps them as its inputs
    (pass 1's answer, which a pass-2 checkpoint records) and improves
    ``schedule``; ``cost`` is then its length.
    """

    cost: float
    order: Tuple[int, ...]
    peak: Dict[RegisterClass, int]
    schedule: Optional[Schedule] = None

    @property
    def search_order(self) -> Tuple[int, ...]:
        """The best order the pheromone update reinforces."""
        return self.order if self.schedule is None else tuple(self.schedule.order)

    def accept(self, region, winner: Winner) -> None:
        if self.schedule is None:
            self.cost, self.order, self.peak = winner.cost, winner.order, winner.peak
        else:
            assert winner.cycles is not None
            self.cost = int(winner.cost)
            self.schedule = Schedule(
                region, winner.cycles, tracked_peak=winner.peak, issued=winner.order
            )

    def restore(self, region, checkpoint: RegionCheckpoint) -> None:
        if self.schedule is None:
            self.cost = checkpoint.best_cost
            self.order = tuple(checkpoint.best_order)
            self.peak = dict(checkpoint.best_peak)
        elif checkpoint.best_cycles is not None:
            # ``order``/``peak`` are pass 1's: a checkpointed best that
            # issues that order (no ant improved it) keeps its peak.
            self.cost = int(checkpoint.best_cost)
            self.schedule = Schedule(
                region, checkpoint.best_cycles, tracked_peak=self.peak, issued=self.order
            )


class TwoPassDriver(ABC):
    """Two-pass ACO scheduling over a construction engine (a subclass)."""

    name = "aco"
    #: The engine name a recorded search schedule carries.
    backend: str

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams],
        telemetry: Optional[Telemetry],
        verify: bool,
        rp_heuristic: Optional[GuidingHeuristic] = None,
    ):
        self.machine = machine
        self.params = params or ACOParams()
        self.params.validate()
        #: Orders the default initial schedule.
        self.rp_heuristic = rp_heuristic or LastUseCountHeuristic()
        self.telemetry = telemetry or Telemetry()
        #: Recheck every pass result with the independent verifier.
        self.verify_enabled = bool(verify)

    # -- the engine seam -----------------------------------------------------

    @abstractmethod
    def _open_region(self, ddg: DDG, seed: int, fault_plan, attempt: int):
        """Per-region engine state, handed back to every :meth:`_open_pass`."""

    @abstractmethod
    def _open_pass(
        self,
        region_state,
        ddg: DDG,
        pass_index: int,
        budget: Optional[DeadlineBudget],
        resume: Optional[RegionCheckpoint],
        target: Optional[Dict[RegisterClass, int]],
        max_length: Optional[int],
    ) -> PassEngine:
        """Start one invoked pass (after ``pass_start``). ``resume`` is the
        checkpoint the pass continues from: the driver restores the search
        state, the engine only its own. Pass 2 gets the APRP ``target`` and
        the schedule-length cap ``max_length``."""

    # -- resilience plumbing ---------------------------------------------------

    @staticmethod
    def _resume_state(
        resume: RegionCheckpoint,
        region,
        pheromone: PheromoneTable,
        tracker: TerminationTracker,
        best: _Best,
    ) -> None:
        """Restore checkpointed search state into a freshly opened pass.

        Pheromone, tracker counters and the best so far always carry over;
        the engine decides whether its draws continue exactly.
        """
        if resume.tau.shape != pheromone.tau.shape:
            raise ResilienceError(
                "checkpoint pheromone shape %s does not match region shape %s"
                % (resume.tau.shape, pheromone.tau.shape)
            )
        pheromone.tau[:] = resume.tau
        tracker.iterations = resume.iteration
        tracker.iterations_without_improvement = resume.without_improvement
        tracker.best_cost = resume.best_cost
        best.restore(region, resume)

    @staticmethod
    def _trip_deadline(
        tele: Telemetry, region_name: str, pass_index: int, budget: DeadlineBudget
    ) -> None:
        """Record a soft-deadline stop as a ``deadline`` event."""
        tele.emit(
            "deadline",
            region=region_name,
            pass_index=pass_index,
            deadline_seconds=budget.deadline,
            spent_seconds=budget.spent,
        )

    def _capture_checkpoint(
        self,
        region_name: str,
        seed: int,
        pass_index: int,
        engine: PassEngine,
        pheromone: PheromoneTable,
        tracker: TerminationTracker,
        best: _Best,
    ) -> RegionCheckpoint:
        """Snapshot the search at the current iteration boundary. In pass 2
        ``best_order``/``best_peak`` are the pass's inputs — a resume
        re-enters pass 2 with them unchanged — and the evolving best lives
        in ``best_cycles``/``best_cost``; :meth:`schedule` attaches the
        completed pass-1 result."""
        return RegionCheckpoint(
            region=region_name,
            scheduler=self.name,
            seed=seed,
            pass_index=pass_index,
            iteration=tracker.iterations,
            tau=pheromone.tau.copy(),
            best_cost=tracker.best_cost,
            without_improvement=tracker.iterations_without_improvement,
            best_order=tuple(best.order),
            best_peak=dict(best.peak),
            best_cycles=None if best.schedule is None else tuple(best.schedule.cycles),
            **engine.checkpoint_fields(),
        )

    # -- one pass ----------------------------------------------------------------

    def _run_pass(
        self,
        region_state,
        ddg: DDG,
        seed: int,
        pass_index: int,
        lower_bound: float,
        best: _Best,
        budget: Optional[DeadlineBudget],
        resume: Optional[RegionCheckpoint],
        target: Optional[Dict[RegisterClass, int]] = None,
        max_length: Optional[int] = None,
    ) -> PassResult:
        """Run one pass, improving ``best`` in place."""
        region = ddg.region
        tele = self.telemetry
        initial_cost = best.cost
        if initial_cost <= lower_bound:
            tele.emit(
                "pass_end",
                region=region.name,
                pass_index=pass_index,
                invoked=False,
                iterations=0,
                final_cost=float(initial_cost),
                hit_lower_bound=True,
                seconds=0.0,
            )
            return PassResult(False, 0, initial_cost, initial_cost, True, 0.0)

        strategy = make_strategy(self.params, ddg.num_instructions)
        scope = tele.pass_scope(
            region.name, pass_index, self.name, lower_bound, initial_cost,
            strategy=strategy.name,
        )
        engine = self._open_pass(
            region_state, ddg, pass_index, budget, resume, target, max_length
        )
        pheromone = PheromoneTable(ddg.num_instructions, self.params)
        tracker = TerminationTracker(
            lower_bound=lower_bound,
            stagnation_limit=strategy.stagnation_limit(
                self.params.termination_condition(len(region))
            ),
            best_cost=initial_cost,
        )
        if resume is not None:
            self._resume_state(resume, region, pheromone, tracker, best)

        def checkpoint() -> RegionCheckpoint:
            return self._capture_checkpoint(
                region.name, seed, pass_index, engine, pheromone, tracker, best
            )

        deadline_hit = False
        while not tracker.should_stop() and tracker.iterations < self.params.max_iterations:
            if budget is not None:
                budget.charge(engine.uncharged_seconds())
                if budget.exhausted:
                    deadline_hit = True
                    self._trip_deadline(tele, region.name, pass_index, budget)
                    break
            winner = engine.construct(tracker.iterations, pheromone, checkpoint)
            if winner is None:
                # Every ant violated the constraint: count a stagnant
                # iteration; the strategy's update alone reshapes the search.
                tracker.record_iteration(tracker.best_cost)
                reinitialized = strategy.update_no_winner(
                    pheromone,
                    best_order=best.search_order,
                    best_gap=tracker.best_cost - lower_bound,
                    without_improvement=tracker.iterations_without_improvement,
                )
            else:
                if tracker.record_iteration(winner.cost):
                    best.accept(region, winner)
                reinitialized = strategy.update(
                    pheromone,
                    winner_order=winner.order,
                    winner_gap=winner.cost - lower_bound,
                    best_order=best.search_order,
                    best_gap=tracker.best_cost - lower_bound,
                    without_improvement=tracker.iterations_without_improvement,
                )
            if reinitialized:
                publish_reinit(
                    tele, region.name, pass_index, tracker.iterations,
                    strategy.tau_max(tracker.best_cost - lower_bound),
                )
            scope.iteration(
                float("inf") if winner is None else float(winner.cost),
                tracker.best_cost,
            )
            engine.after_update(pheromone)
        if budget is not None:
            budget.charge(engine.uncharged_seconds())
        cost = engine.finish()
        result = PassResult(
            invoked=True,
            iterations=tracker.iterations,
            initial_cost=initial_cost,
            final_cost=best.cost,
            hit_lower_bound=tracker.hit_lower_bound,
            seconds=cost.seconds,
            stats=cost.stats,
            trace=scope.trace,
            deadline_hit=deadline_hit,
            **cost.device,
        )
        scope.end(
            invoked=True,
            iterations=tracker.iterations,
            final_cost=float(best.cost),
            hit_lower_bound=tracker.hit_lower_bound,
            seconds=cost.seconds,
            **cost.device,
        )
        engine.publish(tracker.iterations)
        return result

    # -- the public entry point ------------------------------------------------

    def schedule(
        self,
        ddg: DDG,
        seed: int = 0,
        initial_order: Optional[Tuple[int, ...]] = None,
        bounds: Optional[RegionBounds] = None,
        reference_schedule: Optional[Schedule] = None,
        fault_plan=None,
        budget: Optional[DeadlineBudget] = None,
        attempt: int = 0,
        resume: Optional[RegionCheckpoint] = None,
    ) -> ACOResult:
        """Run both passes on one region.

        ``initial_order`` is the heuristic schedule's instruction order (the
        pipeline passes the AMD baseline's); by default the LUC greedy order
        is used. ``reference_schedule`` is the heuristic's latency-aware
        schedule — pass 2 starts from it whenever it satisfies the pressure
        target and beats the stretched pass-1 order. ``bounds`` may be
        precomputed and shared.

        The resilience arguments all default to None/0 and add nothing to
        the fault-free path: ``fault_plan`` injects device faults (engines
        without a device ignore it), ``budget`` enforces the region's
        deadline in cost-model seconds, ``attempt`` names the retry attempt
        for fault-site derivation and ``resume`` restores a checkpointed
        search instead of starting over (a checkpoint for another region,
        or one that names no resumable pass, raises ``ResilienceError``).

        Every telemetry event and profiler span the call produces carries
        the region's trace context — installed here for direct callers,
        inherited (so a ladder retry's rotated seed keeps the original
        trace id) when the pipeline/ladder already opened one.
        """
        with region_trace(ddg.region.name, ddg.num_instructions, seed):
            return self._schedule_traced(
                ddg, seed, initial_order, bounds, reference_schedule,
                fault_plan, budget, attempt, resume,
            )

    def _schedule_traced(
        self,
        ddg: DDG,
        seed: int,
        initial_order: Optional[Tuple[int, ...]],
        bounds: Optional[RegionBounds],
        reference_schedule: Optional[Schedule],
        fault_plan,
        budget: Optional[DeadlineBudget],
        attempt: int,
        resume: Optional[RegionCheckpoint],
    ) -> ACOResult:
        region = ddg.region
        if bounds is None:
            bounds = region_bounds(ddg)
        # A schedule issuing ``initial_order`` whose peak may already be
        # known: the LUC order's, or the reference's when it is that order.
        initial: Optional[Schedule] = None
        if initial_order is None:
            initial = order_schedule(ddg, heuristic=self.rp_heuristic)
            initial_order = initial.order
        elif reference_schedule is not None and reference_schedule.order == tuple(initial_order):
            initial = reference_schedule
        region_state = self._open_region(ddg, seed, fault_plan, attempt)
        if resume is not None:
            if resume.region != region.name:
                raise ResilienceError(
                    "checkpoint is for region %r, not %r" % (resume.region, region.name)
                )
            resume.check_resumable()

        if resume is not None and resume.pass_index == 2:
            # Pass 1 finished before the interruption; its result and
            # outputs ride in the checkpoint, so resume re-enters pass 2
            # directly.
            assert resume.pass1 is not None
            pass1 = pass_result_from_payload(resume.pass1)
            best_order = tuple(resume.best_order)
            best_peak = dict(resume.best_peak)
        else:
            if initial is None:
                initial = Schedule.from_order(region, initial_order)
            peak = schedule_peak(initial)
            rp_best = _Best(rp_cost(peak, self.machine), tuple(initial_order), peak)
            pass1 = self._run_pass(
                region_state, ddg, seed, 1,
                rp_cost_lower_bound(bounds, self.machine), rp_best, budget, resume,
            )
            best_order, best_peak = rp_best.order, rp_best.peak

        # The pass-1 pressure constrains pass 2 at APRP granularity: any
        # pressure that keeps the same occupancy step is acceptable.
        target = self.machine.aprp(best_peak)
        initial_schedule = schedule_in_order(ddg, best_order, tracked_peak=best_peak)
        # When the heuristic's own latency-aware schedule already satisfies
        # the pressure target (always true when pass 1 made no progress), it
        # is a better starting point than the stretched pass-1 order.
        if reference_schedule is not None and reference_schedule.length < initial_schedule.length:
            ref_peak = schedule_peak(reference_schedule)
            if all(ref_peak.get(cls, 0) <= limit for cls, limit in target.items()):
                initial_schedule = reference_schedule
        length = initial_schedule.length
        ilp_best = _Best(length, best_order, best_peak, initial_schedule)
        try:
            pass2 = self._run_pass(
                region_state, ddg, seed, 2, bounds.length, ilp_best, budget,
                resume if resume is not None and resume.pass_index == 2 else None,
                target=target,
                # Length cap from the *pass-start* best (recomputed
                # identically on resume — the checkpointed best must not
                # tighten it, or the resumed search would diverge).
                max_length=max(2 * length, length + 16),
            )
        except DeviceHangError as exc:
            if exc.checkpoint is not None and exc.checkpoint.pass1 is None:
                exc.checkpoint.pass1 = pass_result_payload(pass1)
            raise
        schedule = ilp_best.schedule
        assert schedule is not None
        final_peak = schedule_peak(schedule)
        result = ACOResult(
            schedule=schedule,
            peak=final_peak,
            rp_cost_value=rp_cost(final_peak, self.machine),
            pass1=pass1,
            pass2=pass2,
        )
        recorder = self.telemetry.recorder
        if recorder is not None:
            recorder.record_schedule(
                "search",
                region=region.name,
                seed=seed,
                scheduler=self.name,
                backend=self.backend,
                order=list(schedule.order),
                cycles=list(schedule.cycles),
                length=schedule.length,
                rp_cost=result.rp_cost_value,
            )
        if self.verify_enabled:
            report = verify_order(ddg, best_order)
            report.merge(
                verify_aco_result(
                    result, ddg, self.machine, target_aprp=target,
                )
            )
            report.publish(self.telemetry, region.name)
            report.raise_if_failed()
        return result
