"""Golden for the sequential ant's construction step.

The CPU engine's ants (:func:`repro.aco.construct_cycles` and
:func:`repro.aco.construct_order`) draw from one shared ``random.Random``,
so a step that consumes a draw differently, scores a candidate with a
different float, or lets released instructions join the ready list in a
different order changes every later ant. This golden pins, per case and
per ant, the order, the cycles, ``alive``, the length, the RP cost, every
:class:`~repro.aco.ConstructionStats` field and a sha256 of
``rng.getstate()`` after the ant. The values were recorded before the
batched pressure preview, the per-pass CP weight table and the
release-scan skip existed.

Cases cover every suite pattern (pass 2, CP and LUC, optional stalls on),
non-SSA regions, a target tight enough to force optional stalls and kill
ants, a ``max_length`` that cuts ants short, and pass 1 with LUC (the
state-dependent heuristic).
"""

import hashlib
import json
import random

import pytest

from repro.aco import PheromoneTable, construct_cycles, construct_order
from repro.aco.stalls import OptionalStallHeuristic
from repro.config import ACOParams
from repro.ddg import DDG
from repro.heuristics import CriticalPathHeuristic, LastUseCountHeuristic, order_schedule
from repro.ir.block import SchedulingRegion
from repro.ir.builder import RegionBuilder
from repro.machine import amd_vega20
from repro.rp import RegisterTable
from repro.suite.patterns import PATTERN_NAMES

from strategies import make_region

#: Ants per case; each shares the case's rng and pheromone table.
ANTS = 6
CAP = 30

HEURISTICS = {"cp": CriticalPathHeuristic(), "luc": LastUseCountHeuristic()}


def _non_ssa_region(seed):
    """A region over a small register pool, drawn the way
    ``strategies.non_ssa_regions`` draws one, from a seeded rng."""
    rng = random.Random(seed)
    pool = ["v%d" % i for i in range(rng.randint(2, 5))]
    pool += ["s%d" % i for i in range(rng.randint(0, 3))]
    b = RegionBuilder("non-ssa-%d" % seed)
    for _ in range(rng.randint(12, 20)):
        b.inst(
            rng.choice(("op1", "op2", "v_add", "global_load")),
            defs=rng.sample(pool, rng.randint(0, 2)),
            uses=rng.sample(pool, rng.randint(0, 3)),
        )
    b.live_in(*rng.sample(pool, rng.randint(0, 3)))
    region = b.build()
    candidates = sorted(region.defined_registers | region.live_in)
    live_out = rng.sample(candidates, min(len(candidates), rng.randint(0, 3)))
    return SchedulingRegion(
        region.instructions, region.name, live_in=region.live_in, live_out=live_out
    )


def _target(ddg, slack):
    """The LUC list order's peak plus ``slack`` in every class it uses."""
    peak = order_schedule(ddg, heuristic=LastUseCountHeuristic()).tracked_peak
    return {cls: max(0, value + slack) for cls, value in peak.items()}


#: Per pattern: the slack over the list order's peak. Chosen so the cases
#: mix live ants, optional stalls and ants that die on the target.
PATTERN_SLACK = {
    "gemm_tile": 0,
    "histogram": 0,
    "reduce": 6,
    "scan": 6,
    "select": 1,
    "sort": 2,
    "stencil": 2,
    "transform": 0,
}


def _cases():
    cases = []
    for k, pattern in enumerate(PATTERN_NAMES):
        heuristic = "cp" if k % 2 == 0 else "luc"
        cases.append(("cycles-%s" % pattern, lambda p=pattern, k=k: make_region(p, 40 + k, 28),
                      heuristic, PATTERN_SLACK[pattern], None))
    for seed in (3, 5, 8):
        cases.append(("cycles-non-ssa-%d" % seed, lambda s=seed: _non_ssa_region(s),
                      "cp", 0, None))
    # Targets the ants cannot hold: they stall through the budget, then die.
    cases.append(("cycles-tight-reduce", lambda: make_region("reduce", 11, 24), "cp", 0, None))
    cases.append(("cycles-tight-select", lambda: make_region("select", 42, 28), "luc", 0, None))
    # A length cap some ants overrun.
    cases.append(("cycles-capped-stencil", lambda: make_region("stencil", 21, 20), "cp", 2, CAP))
    for pattern in ("histogram", "gemm_tile"):
        cases.append(("order-%s" % pattern, lambda p=pattern: make_region(p, 17, 28),
                      "luc", None, None))
    return cases


CASES = {name: (build, heuristic, slack, max_length)
         for name, build, heuristic, slack, max_length in _cases()}


def _run(name):
    build, heuristic, slack, max_length = CASES[name]
    ddg = DDG(build())
    machine = amd_vega20()
    params = ACOParams(optional_stall_budget=0.5, optional_stall_prob=0.8)
    pheromone = PheromoneTable(ddg.num_instructions, params)
    prepared = HEURISTICS[heuristic].prepare(ddg)
    table = RegisterTable(ddg.region)
    rng = random.Random(sum(name.encode()))
    stall_heuristic = OptionalStallHeuristic(params, ddg.num_instructions)
    target = None if slack is None else _target(ddg, slack)
    records = []
    for _ant in range(ANTS):
        if target is None:
            result = construct_order(
                ddg, machine, pheromone, prepared, params, rng, table=table
            )
        else:
            result = construct_cycles(
                ddg, machine, pheromone, prepared, params, rng,
                target_pressure=target,
                allow_optional_stalls=True,
                stall_heuristic=stall_heuristic,
                max_length=max_length,
                table=table,
            )
        stats = result.stats
        records.append(
            {
                "order": list(result.order),
                "cycles": None if result.cycles is None else list(result.cycles),
                "alive": result.alive,
                "length": result.length,
                "rp_cost": result.rp_cost_value,
                "stats": [stats.steps, stats.ready_scans, stats.successor_ops,
                          stats.stalls, stats.optional_stalls],
                "rng": hashlib.sha256(repr(rng.getstate()).encode()).hexdigest(),
            }
        )
        # Reinforce the ant's links so later ants see a skewed table.
        if result.alive:
            pheromone.decay()
            pheromone.deposit(result.order, result.rp_cost_value)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    summary = (
        sum(r["alive"] for r in records),
        sum(r["stats"][3] for r in records),
        sum(r["stats"][4] for r in records),
        sum(r["stats"][0] for r in records),
    )
    return summary, digest


#: Per case: (alive ants, stalls, optional stalls, steps) over the six
#: ants, then the sha256 of every ant's record.
GOLDEN = {
    'cycles-capped-stencil': ((0, 74, 1, 126), '5d2e1be54cc29d358f6167171965670efa18b7bf1f418630b2ac329bbc72e9d2'),
    'cycles-gemm_tile': ((6, 53, 47, 221), '8e75c2585f0d97b2b7dc7a271fe8631cf6fba0d166e9d1cd5caae4db1b9d5e79'),
    'cycles-histogram': ((6, 80, 76, 245), '71bd3e899c00694e9b1b2369e1268d7a4f6e4af4d6d5e425e46f1b0b63fa477b'),
    'cycles-non-ssa-3': ((6, 198, 0, 114), 'eb2bfd01543fbf8d4edabec6f52c3dde11bd09e8557cdab0794ba7b6903358bb'),
    'cycles-non-ssa-5': ((6, 168, 0, 132), 'c49712ecb8f317e627dec9221ed6b707d2f808104cf9efb7bcb03f5550f3d94e'),
    'cycles-non-ssa-8': ((6, 217, 0, 132), 'e779ab267bff9591ad90efd8d9d8551989dfabb1dd25bcd7e2727035030eb58c'),
    'cycles-reduce': ((5, 147, 81, 245), '295b0832ff94111d6afa6cdc9a3e19f7c187dae8cbed26069fdf0a1b55c4c5c3'),
    'cycles-scan': ((6, 105, 23, 213), 'abe82a0d4b4e6aa77c2f6ede4ae90396cf37e0494959c3a6cd56047cda7d62c9'),
    'cycles-select': ((6, 55, 55, 223), 'ac6e035bd07b944146193d1ec9c78f7b0c5aa69369fcbbd9bf5bc2e89f7e76bc'),
    'cycles-sort': ((6, 89, 0, 174), '5037b9834527afbc2a405b7c9177624090e8626f1b1f7dd92f4613652f743a5f'),
    'cycles-stencil': ((1, 54, 0, 120), '728e0e9f906a1e8a8b30e20ff6d76069e9f1ffc603ba5a3c1c3cfe2d9e97b4ba'),
    'cycles-tight-reduce': ((0, 72, 72, 120), '82c8c435cd931d199b521cf7e79ece9007e4f73c18c5a837436189501c3d3d7c'),
    'cycles-tight-select': ((5, 83, 83, 232), '5afa8a3bc0a058518b55ccd436ddfe5e371414f9142b59c07baf99aa371fd9d0'),
    'cycles-transform': ((6, 50, 30, 207), 'a73abf9d8b71be481685e08d74358f8f8bad8ea48edaa0d8d30b4e7b8ac82660'),
    'order-gemm_tile': ((6, 0, 0, 168), '972fe911597a2625013de815aa28018064450d539c22eb278f45f72eabad3708'),
    'order-histogram': ((6, 0, 0, 168), '952ebc2ece1d28bf7acdb89643371afda1ec856141a79905769afee0ba23fcbe'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_golden(name):
    summary, digest = _run(name)
    expected_summary, expected_digest = GOLDEN[name]
    assert summary == expected_summary
    assert digest == expected_digest


def test_cases_exercise_stalls_and_deaths():
    """The golden is only as strong as its cases: some ants must stall
    optionally, some must die, and pass 1 must be covered."""
    summaries = {name: GOLDEN[name][0] for name in CASES}
    assert any(alive < ANTS for name, (alive, *_r) in summaries.items()
               if name.startswith("cycles-tight"))
    assert any(alive < ANTS for name, (alive, *_r) in summaries.items()
               if name.startswith("cycles-capped"))
    assert sum(s[2] for s in summaries.values()) > 0
    assert any(name.startswith("order-") for name in summaries)
