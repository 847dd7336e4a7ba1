"""The retry-with-degradation ladder (how a region survives its faults).

One region's scheduling request walks a fixed ladder of rungs, most
capable first:

====================  =====================================================
``vectorized``        the batch GPU engine (the configured default)
``loop``              the scalar GPU reference engine — same device, same
                      fault surface, but an independent code path (a bug
                      or hazard pattern that kills one engine often spares
                      the other; both produce bit-identical seeded
                      schedules, so the downgrade is quality-free)
``sequential``        the CPU engine — no device, no fault sites; inherits
                      the search's progress via partial checkpoint resume
``heuristic``         ship the baseline schedule; always succeeds
====================  =====================================================

On each rung the ladder attempts the engine up to ``1 + max_retries``
times. Every attempt is deterministic: attempt numbers increase globally
across the region (fault sites are keyed by them, so a retry redraws its
hazards), from-scratch retries rotate the seed with
:func:`repro.suite.rng.derive_seed`, and checkpoint resumes keep the
interrupted attempt's seed (exactness requires continuing its draw
sequence). A hang's checkpoint carries the search forward across retries
*and* across rungs; launch/OOM/corruption leave no trusted state behind,
so those retries restart from scratch.

The ladder shares one :class:`~repro.resilience.watchdog.DeadlineBudget`
across all attempts — failed attempts burn real budget, so a region that
keeps faulting runs out of road and degrades instead of retrying forever;
an exhausted budget skips straight to the heuristic rung.

Every fault, retry and degrade step is one telemetry event
(``fault``/``retry``/``degrade``). The metrics aggregator folds them into
``resilience.*`` counters, and the CLI's resilience summary and exit code
are read from those counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..aco.driver import ACOResult
from ..aco.sequential import SequentialACOScheduler
from ..config import ResilienceParams
from ..errors import InjectedFault, RegionUnrecoverable
from ..gpusim.faults import FaultPlan
from ..obs.context import current_trace, region_trace
from ..parallel.scheduler import ParallelACOScheduler
from ..suite.rng import derive_seed
from ..telemetry import Telemetry
from .checkpoint import RegionCheckpoint
from .watchdog import DeadlineBudget

AnyScheduler = Union[SequentialACOScheduler, ParallelACOScheduler]

#: Sentinel rung: ship the heuristic schedule, run no search.
HEURISTIC_RUNG = "heuristic"


@dataclass
class LadderOutcome:
    """What the ladder produced for one region.

    ``result`` is None exactly when the region ended on the heuristic
    rung — the caller ships its heuristic schedule and marks the region
    degraded. ``spent_seconds`` is everything the region's budget was
    charged, successful attempt included, so retry overhead is
    ``spent_seconds - result.seconds`` when a result exists.
    """

    result: Optional[ACOResult]
    rung: str
    attempts: int
    resumed_attempts: int = 0
    spent_seconds: float = 0.0
    #: (fault_class, rung, attempt) per injected fault, in order.
    faults: Tuple[Tuple[str, str, int], ...] = ()
    unrecoverable: bool = False

    @property
    def degraded(self) -> bool:
        """True when the region shipped without an ACO result."""
        return self.result is None

    @property
    def clean(self) -> bool:
        return not self.faults and self.attempts == 1 and not self.degraded

    @property
    def final_backend(self) -> str:
        """The engine that shipped the region — the effective final rung.

        Feeds the batch layer's per-region attribution
        (:attr:`repro.parallel.multi_region.BatchResult.final_backends`):
        a clean region reports its configured backend, a downgraded one
        the rung it landed on, a degraded one :data:`HEURISTIC_RUNG`.
        """
        return self.rung


@dataclass
class _Attempt:
    """Bookkeeping shared by the rung loop."""

    number: int = 0
    resumed: int = 0
    checkpoint: Optional[RegionCheckpoint] = None
    faults: list = field(default_factory=list)


def ladder_rungs(scheduler: AnyScheduler) -> Tuple[str, ...]:
    """The rung sequence starting at ``scheduler``'s configuration."""
    if isinstance(scheduler, ParallelACOScheduler):
        if scheduler.backend == "vectorized":
            return ("vectorized", "loop", "sequential", HEURISTIC_RUNG)
        return (scheduler.backend, "sequential", HEURISTIC_RUNG)
    return ("sequential", HEURISTIC_RUNG)


def _scheduler_for_rung(base: AnyScheduler, rung: str) -> AnyScheduler:
    """An engine for ``rung`` configured like ``base`` (same machine,
    parameters, device, telemetry and verify flag)."""
    if isinstance(base, ParallelACOScheduler):
        if rung == base.backend:
            return base
        if rung in ("vectorized", "loop"):
            return ParallelACOScheduler(
                base.machine,
                params=base.params,
                gpu_params=base.gpu_params,
                device=base.device,
                telemetry=base.telemetry,
                verify=base.verify_enabled,
                backend=rung,
            )
        return SequentialACOScheduler(
            base.machine,
            params=base.params,
            telemetry=base.telemetry,
            verify=base.verify_enabled,
        )
    return base  # sequential entry: its only engine rung is itself


def schedule_with_resilience(
    scheduler: AnyScheduler,
    ddg,
    seed: int,
    resilience: ResilienceParams,
    initial_order=None,
    bounds=None,
    reference_schedule=None,
    telemetry: Optional[Telemetry] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> LadderOutcome:
    """Run one region through the retry-with-degradation ladder.

    Returns a :class:`LadderOutcome`; raises
    :class:`~repro.errors.RegionUnrecoverable` only when degradation is
    disabled (``resilience.degrade = False``) and the entry rung's
    retries are exhausted. ``fault_plan`` overrides the default-rate plan
    derived from ``resilience.chaos_seed`` (the chaos harness passes
    plans with forced rates to prove specific ladder paths).
    """
    resilience.validate()
    tele = telemetry if telemetry is not None else scheduler.telemetry
    region_name = ddg.region.name
    budget = DeadlineBudget(resilience.deadline_seconds)
    plan = fault_plan
    if plan is None and resilience.chaos_seed is not None:
        plan = FaultPlan.from_seed(resilience.chaos_seed)
    rungs = ladder_rungs(scheduler)
    state = _Attempt()

    # The whole ladder — every retry (with its *rotated* seed), every
    # checkpoint resume, every engine downgrade — runs under ONE region
    # trace, keyed by the original seed. The pipeline or batch slot may
    # have installed it already; direct callers get one here.
    with region_trace(region_name, ddg.num_instructions, seed):
        return _run_ladder(
            scheduler, ddg, seed, resilience, initial_order, bounds,
            reference_schedule, tele, plan, rungs, state, budget, region_name,
        )


def _run_ladder(
    scheduler, ddg, seed, resilience, initial_order, bounds,
    reference_schedule, tele, plan, rungs, state, budget, region_name,
) -> LadderOutcome:
    context = current_trace()

    def attempt_span(label: str):
        """Per-attempt child span fields for the resilience events."""
        return context.child(label).fields() if context is not None else {}

    for rung_index, rung in enumerate(rungs):
        if rung == HEURISTIC_RUNG:
            break
        engine = _scheduler_for_rung(scheduler, rung)
        exhausted_budget = False
        for _ in range(1 + resilience.max_retries):
            if budget.limited and budget.exhausted:
                # No search time left anywhere on the ladder: every
                # engine would charge its pass setup and stop at once.
                exhausted_budget = True
                break
            resumed = state.checkpoint is not None
            if resumed:
                attempt_seed = state.checkpoint.seed
            elif state.number == 0:
                attempt_seed = seed
            else:
                attempt_seed = derive_seed(seed, "retry", state.number)
            if state.number > 0:
                state.resumed += 1 if resumed else 0
                tele.emit(
                    "retry",
                    region=region_name,
                    attempt=state.number,
                    seed=attempt_seed,
                    resumed=resumed,
                    backend=rung,
                    **attempt_span("attempt%d" % state.number),
                )
            try:
                result = engine.schedule(
                    ddg,
                    seed=attempt_seed,
                    initial_order=initial_order,
                    bounds=bounds,
                    reference_schedule=reference_schedule,
                    fault_plan=plan,
                    budget=budget,
                    attempt=state.number,
                    resume=state.checkpoint if resumed else None,
                )
            except InjectedFault as exc:
                state.faults.append((exc.fault_class, rung, state.number))
                tele.emit(
                    "fault",
                    region=region_name,
                    fault_class=exc.fault_class,
                    attempt=state.number,
                    seconds=exc.seconds,
                    rung=rung,
                    backend=rung,
                    **attempt_span("attempt%d" % state.number),
                )
                if exc.checkpoint is not None:
                    # A hang leaves the host-side search state intact;
                    # every later attempt resumes from the newest snapshot.
                    state.checkpoint = exc.checkpoint
                state.number += 1
                continue
            return LadderOutcome(
                result=result,
                rung=rung,
                attempts=state.number + 1,
                resumed_attempts=state.resumed,
                spent_seconds=budget.spent,
                faults=tuple(state.faults),
            )
        # Rung exhausted (all retries faulted, or the budget ran dry).
        if not resilience.degrade:
            raise RegionUnrecoverable(
                "region %r: rung %r exhausted after %d attempt(s) with "
                "degradation disabled" % (region_name, rung, state.number),
                causes=tuple(state.faults),
                spent_seconds=budget.spent,
            )
        next_rung = rungs[min(rung_index + 1, len(rungs) - 1)]
        if exhausted_budget:
            next_rung = HEURISTIC_RUNG
        tele.emit(
            "degrade",
            region=region_name,
            from_rung=rung,
            to_rung=next_rung,
            attempt=state.number,
            **attempt_span("rung%d" % rung_index),
        )
        if exhausted_budget:
            break

    # Heuristic rung: no search, the caller ships the baseline schedule.
    return LadderOutcome(
        result=None,
        rung=HEURISTIC_RUNG,
        attempts=state.number,
        resumed_attempts=state.resumed,
        spent_seconds=budget.spent,
        faults=tuple(state.faults),
    )
