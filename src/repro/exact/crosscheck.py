"""Optimality cross-check: ACO vs. the branch-and-bound certificates.

The paper's termination conditions stop on a *lower bound*, which only
certifies optimality when the bound is tight. This harness closes the gap
on small regions, where the enumerative solvers of :mod:`repro.exact.bnb`
produce true optima:

* pass-1 floor — :func:`min_pressure_order` gives the minimum APRP cost
  over all orders; no heuristic or ACO result may beat it, and a healthy
  search must land within a bounded multiplicative gap of it;
* register floor — :func:`min_register_order` (Chen's min-register
  formulation) gives the machine-independent minimum live-register count;
* pass-2 floor — :func:`min_length_schedule` under the ACO result's own
  pressure target bounds the achievable length *for that target*.

:func:`crosscheck` runs one region through every selected strategy and
returns a report of facts; the test suite (``tests/test_exact_crosscheck
.py``) turns those facts into assertions. Keeping the harness assertion-
free makes it usable from benches and notebooks without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

# Deliberate harness edge: the cross-check exists to run the search
# engines against the exact floors, so it imports them. No cycle can
# form — the layering contract forbids aco/heuristics from importing
# exact — and the solvers in .bnb stay engine-free.
from ..aco.sequential import SequentialACOScheduler  # repro: noqa[LAY-401]
from ..config import ACOParams, replace_params
from ..ddg.graph import DDG
from ..heuristics.amd_max_occupancy import AMDMaxOccupancyScheduler
from ..machine.model import MachineModel
from ..rp.cost import evaluate_schedule
from ..rp.liveness import peak_pressure
from ..schedule.schedule import Schedule
from .bnb import ExactLimits, min_length_schedule, min_pressure_order, min_register_order

#: Regions past this size are out of the certificate business entirely.
CROSSCHECK_MAX_INSTRUCTIONS = 12


@dataclass
class StrategyOutcome:
    """One strategy's result against the exact floors."""

    strategy: str
    rp_cost: int
    length: int
    #: Multiplicative gap to the exact pass-1 optimum (1.0 = optimal).
    #: Defined as cost ratio with the optimum floored at 1 to stay finite.
    rp_gap: float

    def within(self, max_gap: float) -> bool:
        return self.rp_gap <= max_gap


@dataclass
class CrosscheckReport:
    """Everything the exact solvers and the schedulers said about a region."""

    region: str
    size: int
    seed: int
    #: Exact pass-1 optimum: (order, APRP cost).
    optimal_order: Tuple[int, ...] = ()
    optimal_rp_cost: int = 0
    #: Chen min-register optimum: (order, peak live-register count).
    min_register_order: Tuple[int, ...] = ()
    min_register_count: int = 0
    #: Exact min length under the optimal order's pressure (as a Schedule).
    optimal_schedule: Optional[Schedule] = None
    optimal_length: int = 0
    #: The list-scheduling heuristic baseline.
    heuristic_rp_cost: int = 0
    heuristic_length: int = 0
    #: Per-strategy ACO outcomes, in run order.
    outcomes: Dict[str, StrategyOutcome] = field(default_factory=dict)


def _gap(cost: int, optimum: int) -> float:
    return float(cost) / float(max(1, optimum))


def crosscheck(
    ddg: DDG,
    machine: MachineModel,
    strategies: Sequence[str] = ("as", "mmas"),
    seed: int = 0,
    params: Optional[ACOParams] = None,
    limits: ExactLimits = ExactLimits(max_instructions=CROSSCHECK_MAX_INSTRUCTIONS),
) -> CrosscheckReport:
    """Certify one small region: exact floors + every strategy's landing.

    Raises :class:`~repro.exact.bnb.ExactSolverError` when the region is
    too large for the configured limits.
    """
    report = CrosscheckReport(
        region=ddg.region.name, size=ddg.num_instructions, seed=seed
    )
    report.optimal_order, report.optimal_rp_cost = min_pressure_order(
        ddg, machine, limits
    )
    report.min_register_order, report.min_register_count = min_register_order(
        ddg, limits
    )
    optimal_peak = peak_pressure(Schedule.from_order(ddg.region, report.optimal_order))
    report.optimal_schedule = min_length_schedule(
        ddg, machine, target_pressure=machine.aprp(optimal_peak), limits=limits
    )
    report.optimal_length = report.optimal_schedule.length

    heuristic = evaluate_schedule(AMDMaxOccupancyScheduler(machine).schedule(ddg), machine)
    report.heuristic_rp_cost = heuristic.rp_cost
    report.heuristic_length = heuristic.length

    for strategy in strategies:
        result = SequentialACOScheduler(
            machine, params=replace_params(params or ACOParams(), strategy=strategy)
        ).schedule(ddg, seed=seed)
        report.outcomes[strategy] = StrategyOutcome(
            strategy=strategy,
            rp_cost=result.rp_cost_value,
            length=result.length,
            rp_gap=_gap(result.rp_cost_value, report.optimal_rp_cost),
        )
    return report
