"""Pinned check counts and violation messages of the linter and verifier.

``VerificationReport.checks`` is published on every ``verify`` trace
event, and the violation list is what a failing compile prints, so both
are part of the analyses' output. These tests pin them on fixed inputs:

* the check counts of :func:`lint_ddg`, :func:`verify_schedule` and
  :func:`verify_order` on three seed-1 hostile regions (parsed from their
  IR text, as the hostile workload serves them) and on every committed
  adversarial reproducer;
* the exact ordered ``(code, message)`` list for a DDG, a schedule and an
  order that are each corrupted in several ways at once.

A change to how the checks are evaluated must leave every value here as
it is.
"""

import glob
import os
import types

import pytest

from repro.analysis import lint_ddg, verify_order, verify_schedule
from repro.ddg import DDG
from repro.ddg.graph import Dependence, DepKind
from repro.heuristics import AMDMaxOccupancyScheduler
from repro.ir import format_region, parse_region
from repro.ir.registers import SGPR, VGPR
from repro.machine import amd_vega20
from repro.rp import evaluate_schedule
from repro.suite import hostile_region
from repro.suite.adversarial import MinedCase

ADVERSARIAL_DIR = os.path.join(os.path.dirname(__file__), "data", "adversarial")

#: (family, size) of the seed-1 hostile regions whose counts are pinned.
HOSTILE_CASES = (("giant", 256), ("pressure_cliff", 96), ("fanout", 128))

#: region name -> (lint_ddg checks, verify_schedule checks, verify_order checks)
PINNED_CHECKS = {
    "giant_256_s1": (1860, 242, 235),
    "pressure_cliff_96_s1": (772, 106, 99),
    "fanout_128_s1": (996, 134, 127),
    "gemm_tile_44_s0": (300, 47, 40),
    "gemm_tile_43_s2": (292, 46, 39),
    "gemm_tile_45_s3": (308, 48, 41),
    "histogram_43_s1": (316, 49, 42),
    "stencil_44_s7": (372, 56, 49),
}

PINNED_DDG_VIOLATIONS = [
    ("latency-sanity", "edge 1 -> 6 has negative latency -2"),
    ("duality", "edge 1 -> 6 (latency -2) missing or mislabelled in the predecessor list"),
    ("edge-range", "edge 2 -> 2 leaves the region or is a self-loop"),
    ("program-order", "edge 2 -> 2 goes against program order"),
    ("duality", "edge 2 -> 2 (latency 1) missing or mislabelled in the predecessor list"),
    ("edge-range", "edge 3 -> 11 leaves the region or is a self-loop"),
    ("duality", "predecessor edge -1 -> 5 (latency 3) missing from the successor list"),
    ("program-order", "edge 6 -> 0 goes against program order"),
    ("duality", "edge 6 -> 0 (latency 1) missing or mislabelled in the predecessor list"),
    ("raw-edge-kind", "edge 0 -> 1 has unknown kind 'bogus'"),
    ("flow-latency", "flow edge 1 -> 3 has latency 0 < 1"),
    ("merge-consistency", "merged edge 0 -> 1 should carry latency 1; successor list says None"),
    ("merge-consistency", "merged edge 1 -> 3 should carry latency 0; successor list says None"),
    ("merge-consistency", "merged edge 0 -> 6 should carry latency 9; successor list says None"),
    ("merge-consistency", "merged edge -1 -> 2 should carry latency 1; successor list says None"),
    ("pred-counts", "num_predecessors disagrees with the predecessor lists"),
    ("roots", "roots list disagrees with the predecessor lists"),
    ("leaves", "leaves list disagrees with the successor lists"),
]

PINNED_SCHEDULE_VIOLATIONS = [
    ("length-mismatch", "schedule claims length 3; cycles say 12"),
    ("latency", "dependence i0 -> i21 needs 20 cycle(s); got 10"),
    ("latency", "dependence i1 -> i14 needs 24 cycle(s); got 7"),
    ("latency", "dependence i2 -> i15 needs 20 cycle(s); got 6"),
    ("latency", "dependence i3 -> i16 needs 20 cycle(s); got 7"),
    ("latency", "dependence i4 -> i13 needs 20 cycle(s); got 4"),
    ("latency", "dependence i5 -> i17 needs 20 cycle(s); got 6"),
    ("latency", "dependence i6 -> i20 needs 20 cycle(s); got 7"),
    ("latency", "dependence i7 -> i22 needs 20 cycle(s); got 8"),
    ("latency", "dependence i8 -> i12 needs 24 cycle(s); got 2"),
    ("latency", "dependence i8 -> i23 needs 24 cycle(s); got 7"),
    ("latency", "dependence i9 -> i19 needs 20 cycle(s); got 5"),
    ("latency", "dependence i10 -> i18 needs 20 cycle(s); got 4"),
    ("latency", "dependence i11 -> i12 needs 20 cycle(s); got 1"),
    ("latency", "dependence i12 -> i13 needs 2 cycle(s); got 0"),
    ("latency", "dependence i13 -> i14 needs 2 cycle(s); got 1"),
    ("latency", "dependence i14 -> i15 needs 2 cycle(s); got 0"),
    ("latency", "dependence i15 -> i16 needs 2 cycle(s); got 1"),
    ("latency", "dependence i16 -> i17 needs 1 cycle(s); got 0"),
    ("latency", "dependence i17 -> i18 needs 2 cycle(s); got 1"),
    ("latency", "dependence i18 -> i19 needs 1 cycle(s); got 0"),
    ("latency", "dependence i19 -> i20 needs 2 cycle(s); got 1"),
    ("latency", "dependence i20 -> i21 needs 1 cycle(s); got 0"),
    ("latency", "dependence i21 -> i22 needs 2 cycle(s); got 1"),
    ("latency", "dependence i22 -> i23 needs 1 cycle(s); got 0"),
    ("issue-width", "cycle 0 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 1 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 2 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 3 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 4 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 5 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 6 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 7 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 8 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 9 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 10 issues 2 instruction(s); issue width is 1"),
    ("issue-width", "cycle 11 issues 2 instruction(s); issue width is 1"),
    (
        "claimed-peak",
        "scheduler claimed peak {RegisterClass(name='VGPR', prefix='v'): 1, "
        "RegisterClass(name='SGPR', prefix='s'): 0}; recertified peak is "
        "{RegisterClass(name='VGPR', prefix='v'): 12}"
    ),
    ("claimed-cost", "scheduler claimed RP cost -1; recertified cost is 104"),
    ("aprp-target", "pass-2 APRP 24 for VGPR exceeds the pass-1 target 1"),
    ("aprp-target", "pass-2 APRP 80 for SGPR exceeds the pass-1 target 1"),
]

PINNED_ORDER_VIOLATIONS = [
    ("order-dependence", "dependence i0 -> i21 issued out of order"),
    ("order-dependence", "dependence i1 -> i14 issued out of order"),
    ("order-dependence", "dependence i2 -> i15 issued out of order"),
    ("order-dependence", "dependence i3 -> i16 issued out of order"),
    ("order-dependence", "dependence i4 -> i13 issued out of order"),
    ("order-dependence", "dependence i5 -> i17 issued out of order"),
    ("order-dependence", "dependence i6 -> i20 issued out of order"),
    ("order-dependence", "dependence i7 -> i22 issued out of order"),
    ("order-dependence", "dependence i8 -> i12 issued out of order"),
    ("order-dependence", "dependence i8 -> i23 issued out of order"),
    ("order-dependence", "dependence i9 -> i19 issued out of order"),
    ("order-dependence", "dependence i10 -> i18 issued out of order"),
    ("order-dependence", "dependence i11 -> i12 issued out of order"),
    ("order-dependence", "dependence i12 -> i13 issued out of order"),
    ("order-dependence", "dependence i13 -> i14 issued out of order"),
    ("order-dependence", "dependence i14 -> i15 issued out of order"),
    ("order-dependence", "dependence i15 -> i16 issued out of order"),
    ("order-dependence", "dependence i16 -> i17 issued out of order"),
    ("order-dependence", "dependence i17 -> i18 issued out of order"),
    ("order-dependence", "dependence i18 -> i19 issued out of order"),
    ("order-dependence", "dependence i19 -> i20 issued out of order"),
    ("order-dependence", "dependence i20 -> i21 issued out of order"),
    ("order-dependence", "dependence i21 -> i22 issued out of order"),
    ("order-dependence", "dependence i22 -> i23 issued out of order"),
]


def _pinned_regions():
    for family, size in HOSTILE_CASES:
        region = hostile_region(family, seed=1, size=size)
        yield parse_region(format_region(region))
    for path in sorted(glob.glob(os.path.join(ADVERSARIAL_DIR, "*.json"))):
        with open(path) as handle:
            yield MinedCase.from_json(handle.read()).region


def _check_counts(region, machine):
    ddg = DDG(region)
    schedule = AMDMaxOccupancyScheduler(machine).schedule(ddg)
    quality = evaluate_schedule(schedule, machine)
    verified = verify_schedule(
        schedule,
        ddg,
        machine,
        expected_peak=quality.pressure_dict,
        expected_rp_cost=quality.rp_cost,
        target_aprp=machine.aprp(quality.pressure_dict),
    )
    lint = lint_ddg(ddg)
    order = verify_order(ddg, schedule.order)
    for report in (lint, verified, order):
        assert report.ok, report.violations
    return lint.checks, verified.checks, order.checks


def _pairs(report):
    return [(v.code, v.message) for v in report.violations]


def _corrupt_ddg(ddg):
    """``ddg`` with one of every structural defect the linter knows."""
    n = ddg.num_instructions
    succs = [list(s) for s in ddg.successors]
    preds = [list(p) for p in ddg.predecessors]
    succs[2].append((2, 1))  # self-loop
    succs[3].append((n + 4, 1))  # leaves the region
    succs[n - 1].append((0, 1))  # against program order, with its dual
    preds[0].append((n - 1, 1))
    succs[1].append((n - 1, -2))  # negative latency, no dual
    victim = next(i for i in range(n) if preds[i])
    preds[victim] = preds[victim][1:]  # successor edge without its dual
    preds[n - 2].append((-1, 3))  # predecessor outside the region
    edges = list(ddg.edges)
    edges.append(types.SimpleNamespace(src=0, dst=1, latency=1, kind="bogus"))
    edges.append(Dependence(1, 3, 0, DepKind.FLOW))  # zero-latency flow
    edges.append(Dependence(0, n - 1, 9, DepKind.ANTI))  # not in the lists
    edges.append(types.SimpleNamespace(src=-1, dst=2, latency=1, kind=DepKind.OUTPUT))
    return types.SimpleNamespace(
        num_instructions=n,
        region=ddg.region,
        successors=tuple(tuple(s) for s in succs),
        predecessors=tuple(tuple(p) for p in preds),
        edges=edges,
        num_predecessors=tuple(ddg.num_predecessors[:-1]) + (7,),
        roots=tuple(ddg.roots) + (n - 1,),
        leaves=(0,),
    )


class _Forged:
    """A duck-typed schedule carrying whatever claims a test forges."""

    def __init__(self, region, cycles, order=None, length=None):
        self.region = region
        self.cycles = tuple(cycles)
        if order is not None:
            self.order = tuple(order)
        if length is not None:
            self.length = length


def _pressure_region():
    return hostile_region("pressure_cliff", seed=1, size=24)


class TestPinnedCheckCounts:
    def test_every_region_is_pinned(self):
        names = [region.name for region in _pinned_regions()]
        assert sorted(names) == sorted(PINNED_CHECKS)

    @pytest.mark.parametrize(
        "region", list(_pinned_regions()), ids=lambda region: region.name
    )
    def test_check_counts(self, region):
        assert _check_counts(region, amd_vega20()) == PINNED_CHECKS[region.name]


class TestPinnedViolations:
    def test_corrupted_ddg(self, fig1_ddg):
        report = lint_ddg(_corrupt_ddg(fig1_ddg))
        assert _pairs(report) == PINNED_DDG_VIOLATIONS
        assert report.checks == 75

    def test_corrupted_schedule(self):
        machine = amd_vega20()
        region = _pressure_region()
        ddg = DDG(region)
        n = len(region)
        # Everything issues in program order, two per cycle: latencies,
        # issue width, the length claim and every pressure claim are wrong.
        cycles = [i // 2 for i in range(n)]
        report = verify_schedule(
            _Forged(region, cycles, order=range(n), length=3),
            ddg,
            machine,
            expected_peak={VGPR: 1, SGPR: 0},
            expected_rp_cost=-1,
            target_aprp={VGPR: 1, SGPR: 1},
        )
        assert _pairs(report) == PINNED_SCHEDULE_VIOLATIONS
        assert report.checks == 46

    def test_corrupted_order(self):
        ddg = DDG(_pressure_region())
        order = list(reversed(range(ddg.num_instructions)))
        report = verify_order(ddg, order)
        assert _pairs(report) == PINNED_ORDER_VIOLATIONS
        assert report.checks == 27
