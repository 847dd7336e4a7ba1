"""Adversarial miner: search for regions where ACO loses to the heuristic.

The pipeline's bet (Section III) is that ACO pays off on the regions the
invocation filter selects. This miner hunts the counterexamples: seeds of
the hostile generators (:mod:`repro.suite.hostile`) where the two-pass ACO
search ends *no better in pressure and strictly worse in length* than the
AMD max-occupancy list scheduler it is supposed to beat. Every hit is
minimized (smallest region size that still loses, same seed) and archived
as a self-contained JSON reproducer — the textual IR travels with the
metadata, so the regression suite replays the exact region even after the
generators change.

Run it::

    python -m repro.suite.adversarial --seeds 20 --out tests/data/adversarial

The search is budgeted and fully deterministic: same arguments, same
reproducers, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

# Deliberate harness edges: the miner *drives* the schedulers over
# suite-generated regions, so it reaches up into the engine stack. The
# generator modules (.hostile, .patterns) stay engine-free, and no cycle
# can form — the contract forbids every imported head from importing
# suite back.
from ..aco.sequential import SequentialACOScheduler  # repro: noqa[LAY-401]
from ..config import ACOParams, replace_params
from ..ddg import DDG  # repro: noqa[LAY-401]
from ..heuristics.amd_max_occupancy import AMDMaxOccupancyScheduler  # repro: noqa[LAY-401]
from ..ir import format_region, parse_region
from ..ir.block import SchedulingRegion
from ..machine import amd_vega20
from ..machine.model import MachineModel
from ..rp.cost import evaluate_schedule  # repro: noqa[LAY-401]
from .hostile import HOSTILE_FAMILIES, HOSTILE_NAMES, hostile_region, region_fingerprint
from .patterns import PATTERN_NAMES, pattern_region

#: Families the miner sweeps by default: the hostile families (minus
#: ``giant`` — its charter size makes per-seed ACO runs too slow for a
#: mining loop; the bench and the slow sweep cover it) plus the rocPRIM
#: pattern families whose irregular structure is where real losses hide
#: (the structured hostile shapes are exactly what ACO is good at).
MINE_FAMILIES = (
    "pressure_cliff",
    "long_chain",
    "fanout",
    "gemm_tile",
    "histogram",
    "select",
    "stencil",
)


def make_candidate(family: str, seed: int, size: int) -> SchedulingRegion:
    """One deterministic candidate region from either generator registry."""
    if family in HOSTILE_FAMILIES:
        return hostile_region(family, seed=seed, size=size)
    if family in PATTERN_NAMES:
        import random

        name = "%s_%d_s%d" % (family, size, seed)
        return pattern_region(family, random.Random(seed), size, name=name)
    raise ValueError(
        "unknown family %r (known: %s)"
        % (family, ", ".join(sorted(HOSTILE_NAMES + PATTERN_NAMES)))
    )

#: The smallest region the minimizer will propose (below this the search
#: space is trivial and a "loss" says nothing).
MIN_SIZE = 8


@dataclass
class MinedCase:
    """One archived ACO-loses-to-heuristic reproducer."""

    family: str
    seed: int
    size: int
    strategy: str
    fingerprint: str
    heuristic_length: int
    heuristic_rp_cost: int
    aco_length: int
    aco_rp_cost: int
    ir: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MinedCase":
        return cls(**json.loads(text))

    @property
    def region(self) -> SchedulingRegion:
        return parse_region(self.ir)


def aco_loss(
    region: SchedulingRegion,
    machine: Optional[MachineModel] = None,
    strategy: str = "as",
    seed: int = 0,
    params: Optional[ACOParams] = None,
) -> Optional[Dict[str, int]]:
    """Score one region; a dict of both schedulers' costs if ACO *loses*.

    Losing means the search bought nothing and sold something: the ACO
    result's RP cost is no better than the heuristic's AND its length is
    strictly worse. Ties on both axes are a wash, not a loss.
    """
    machine = machine or amd_vega20()
    ddg = DDG(region)
    heuristic = evaluate_schedule(
        AMDMaxOccupancyScheduler(machine).schedule(ddg), machine
    )
    aco = SequentialACOScheduler(
        machine, params=replace_params(params or ACOParams(), strategy=strategy)
    ).schedule(ddg, seed=seed)
    if aco.rp_cost_value >= heuristic.rp_cost and aco.length > heuristic.length:
        return {
            "heuristic_length": heuristic.length,
            "heuristic_rp_cost": heuristic.rp_cost,
            "aco_length": aco.length,
            "aco_rp_cost": aco.rp_cost_value,
        }
    return None


def _minimize(
    family: str,
    seed: int,
    size: int,
    machine: MachineModel,
    strategy: str,
    params: Optional[ACOParams],
) -> int:
    """Smallest size (same family/seed) that still loses, greedy halving.

    Bounded: at most ``O(log size)`` halving probes plus one linear walk
    over a final window of 8 sizes.
    """
    best = size
    candidate = size // 2
    while candidate >= MIN_SIZE:
        region = make_candidate(family, seed, candidate)
        if aco_loss(region, machine, strategy, seed, params) is None:
            break
        best = candidate
        candidate //= 2
    for candidate in range(max(MIN_SIZE, best - 7), best):
        region = make_candidate(family, seed, candidate)
        if aco_loss(region, machine, strategy, seed, params) is not None:
            return candidate
    return best


def mine(
    families: Sequence[str] = MINE_FAMILIES,
    seeds: int = 20,
    size: int = 48,
    strategy: str = "as",
    machine: Optional[MachineModel] = None,
    params: Optional[ACOParams] = None,
    max_cases: int = 0,
) -> List[MinedCase]:
    """Sweep ``seeds`` seeds per family; return minimized reproducers.

    ``max_cases`` (0 = unlimited) bounds the archive, not the sweep — the
    first hits in the deterministic (family, seed) order win.
    """
    machine = machine or amd_vega20()
    cases: List[MinedCase] = []
    for family in families:
        for seed in range(seeds):
            if max_cases and len(cases) >= max_cases:
                return cases
            region = make_candidate(family, seed, size)
            loss = aco_loss(region, machine, strategy, seed, params)
            if loss is None:
                continue
            small = _minimize(family, seed, size, machine, strategy, params)
            region = make_candidate(family, seed, small)
            loss = aco_loss(region, machine, strategy, seed, params)
            assert loss is not None  # the minimizer only returns losing sizes
            cases.append(
                MinedCase(
                    family=family,
                    seed=seed,
                    size=small,
                    strategy=strategy,
                    fingerprint=region_fingerprint(region),
                    ir=format_region(region),
                    **loss,
                )
            )
    return cases


def archive(cases: Sequence[MinedCase], out_dir: str) -> List[str]:
    """Write one ``<family>_s<seed>.json`` per case; return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for case in cases:
        path = os.path.join(out_dir, "%s_s%d.json" % (case.family, case.seed))
        with open(path, "w") as handle:
            handle.write(case.to_json())
        paths.append(path)
    return paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.suite.adversarial", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--families",
        default=",".join(MINE_FAMILIES),
        help="comma-separated hostile families to sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds", type=int, default=20, help="seeds per family (default: %(default)s)"
    )
    parser.add_argument(
        "--size", type=int, default=48, help="region size to mine at (default: %(default)s)"
    )
    parser.add_argument(
        "--strategy", choices=("as", "mmas"), default="as",
        help="ACO strategy under attack (default: %(default)s)",
    )
    parser.add_argument(
        "--max-cases", type=int, default=0,
        help="stop archiving after N reproducers (0 = unlimited)",
    )
    parser.add_argument(
        "--out", default="", metavar="DIR",
        help="archive reproducer JSON files into DIR (default: report only)",
    )
    args = parser.parse_args(argv)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    cases = mine(
        families=families,
        seeds=args.seeds,
        size=args.size,
        strategy=args.strategy,
        max_cases=args.max_cases,
    )
    for case in cases:
        print(
            "%s seed=%d size=%d fp=%s heuristic=%d@rp%d aco=%d@rp%d"
            % (
                case.family,
                case.seed,
                case.size,
                case.fingerprint,
                case.heuristic_length,
                case.heuristic_rp_cost,
                case.aco_length,
                case.aco_rp_cost,
            )
        )
    if args.out and cases:
        for path in archive(cases, args.out):
            print("wrote %s" % path)
    print("%d reproducer(s) mined" % len(cases))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
