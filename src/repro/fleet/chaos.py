"""The fleet layer of the chaos harness (:mod:`repro.resilience.chaos`).

A trial is one supervised fleet run of the harness batch under a worker
fault plan. It passes when every region resolves once, every schedule
re-validates and the merge is bit-identical to the single-device run.

Runnable as a module — CI's fleet-chaos job is exactly::

    python -m repro.fleet.chaos --out fleet-proof/proof.json --bitcheck fleet-proof
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ACOParams, FleetParams, GPUParams
from ..gpusim.faults import DEFAULT_WORKER_CHAOS_RATES, WORKER_FAULT_CLASSES, FaultPlan
from ..machine.model import MachineModel
from ..parallel.multi_region import BatchItem, BatchResult, MultiRegionScheduler
from ..resilience import chaos
from ..schedule.validate import is_legal
from .supervisor import FleetSupervisor

#: Region sizes of the harness batch — small and uneven on purpose: the
#: harness is about the supervision paths, not search quality.
DEFAULT_SIZES: Tuple[int, ...] = (8, 10, 12, 9)

#: Shard counts the sweep exercises.
DEFAULT_SHARDS: Tuple[int, ...] = (2, 4)


def fleet_items(
    machine: MachineModel, sizes: Sequence[int] = DEFAULT_SIZES, seed: int = 5
) -> List[BatchItem]:
    """The harness batch: one random region per size, seeded per slot."""
    return [
        BatchItem(ddg, seed=7 + index)
        for index, ddg in enumerate(chaos.chaos_regions(machine, sizes, seed=seed))
    ]


def fleet_scheduler(machine: MachineModel) -> MultiRegionScheduler:
    """Small colony and launch: the same supervision surface, cheaper."""
    return MultiRegionScheduler(
        machine,
        params=ACOParams(max_iterations=8),
        gpu_params=GPUParams(blocks=8),
    )


def batches_identical(single: BatchResult, fleet: BatchResult) -> bool:
    """Bitwise result comparison: every differential-surface field equal."""
    if (
        single.seconds != fleet.seconds
        or single.unbatched_seconds != fleet.unbatched_seconds
        or single.blocks_per_region != fleet.blocks_per_region
        or single.errors != fleet.errors
        or single.attempts != fleet.attempts
        or single.final_backends != fleet.final_backends
        or len(single.results) != len(fleet.results)
    ):
        return False
    for a, b in zip(single.results, fleet.results):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if (
            a.schedule != b.schedule
            or a.rp_cost_value != b.rp_cost_value
            or a.seconds != b.seconds
        ):
            return False
    return True


@dataclass
class FleetTrial:
    """One chaotic fleet run compared against the single-device truth."""

    chaos_seed: int
    num_shards: int
    fault_counts: Dict[str, int]
    reassignments: int
    restarts: int
    host_fallback_regions: int
    recovered_regions: int
    resolved: bool  # every slot merged exactly once
    identical: bool  # merged batch bit-identical to single-device
    schedules_valid: bool  # every shipped schedule re-validated
    fleet_seconds: float
    batch_seconds: float

    @property
    def ok(self) -> bool:
        return self.resolved and self.identical and self.schedules_valid

    recovered = ok


def _fleet_trials(
    machine: MachineModel,
    sizes: Sequence[int],
    proof: bool,
    shards: Sequence[int] = DEFAULT_SHARDS,
) -> chaos.TrialRunner:
    items = fleet_items(machine, sizes)
    single = fleet_scheduler(machine).schedule_batch(items)
    # The proofs run each class once, on the smallest fleet.
    shards = (min(shards),) if proof else shards

    def trial(num_shards: int, plan: FaultPlan, chaos_seed: int) -> FleetTrial:
        fleet = FleetSupervisor(
            fleet_scheduler(machine),
            FleetParams(num_shards=num_shards),
            worker_faults=plan,
        ).schedule_batch(items)
        batch = fleet.batch
        return FleetTrial(
            chaos_seed=chaos_seed,
            num_shards=num_shards,
            fault_counts=dict(fleet.worker_faults),
            reassignments=fleet.reassignments,
            restarts=fleet.restarts,
            host_fallback_regions=fleet.host_fallback_regions,
            recovered_regions=fleet.recovered_regions,
            resolved=len(batch.results) == len(items),
            identical=batches_identical(single, batch),
            schedules_valid=all(
                result is not None and is_legal(result.schedule, item.ddg, machine)
                for item, result in zip(items, batch.results)
            ),
            fleet_seconds=fleet.fleet_seconds,
            batch_seconds=batch.seconds,
        )

    return lambda plan, chaos_seed: [trial(n, plan, chaos_seed) for n in shards]


FLEET = chaos.ChaosLayer(
    name="fleet-chaos",
    prog="python -m repro.fleet.chaos",
    description="Fleet chaos: worker-fault proofs + seed sweep + bitcheck.",
    flags={
        "seeds": "comma-separated worker chaos seeds for the mixed-rate sweep",
        "sizes": "comma-separated region sizes for the harness batch",
        "shards": "comma-separated shard counts for the sweep",
        "skip-proofs": "run only the mixed-rate sweep (skip the rate-1.0 proofs)",
        "out": "write the recovery-proof JSON artifact to FILE",
        "bitcheck": "record the sweep twice into DIR and diff the bundles; "
        "a mismatch writes DIR/first-divergence.json and fails",
    },
    options={"shards": DEFAULT_SHARDS},
    fault_classes=WORKER_FAULT_CLASSES,
    rates=DEFAULT_WORKER_CHAOS_RATES,
    sizes=DEFAULT_SIZES,
    trials=_fleet_trials,
    recorded="fleet runs",
    summary="{trials} trial(s), worker faults [{faults}], {reassignments} "
    "reassignment(s), recovery rate {recovery:.0f}%, merges {verdict}",
    totals=("reassignments",),
    verdicts=("DIVERGED", "all bit-identical"),
    proof_failure="a forced-fault fleet run diverged",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return chaos.main(argv, FLEET)


if __name__ == "__main__":
    raise SystemExit(main())
