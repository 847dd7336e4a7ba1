"""Independent schedule verification (the ``-verify-machineinstrs`` analogue).

This module rechecks everything a :class:`~repro.schedule.schedule.Schedule`
claims, *without trusting any of the machinery that produced it*:

* **structural completeness** — every instruction issued exactly once, a
  cycle for each instruction, no negative cycles, no forged issue order;
* **dependence/latency legality** — every DDG edge satisfied (program-order
  only when ``respect_latencies=False``, matching pass-1 schedules);
* **issue-width** — no cycle issues more than the machine allows;
* **stall classification** — every empty cycle is classified *necessary*
  (some dependence forces it) or *optional* (an unissued instruction could
  legally have filled it);
* **APRP recertification** — peak register pressure is recomputed with an
  interval-based liveness algorithm deliberately different from the
  incremental :class:`~repro.rp.tracker.PressureTracker`, and must
  bit-match :func:`repro.rp.liveness.peak_pressure`, the scheduler's
  claimed peak, the claimed RP cost, and (for pass-2 schedules) stay within
  the pass-1 APRP target.

Both analyses are positional sweeps over difference arrays, linear in the
size of the region and its schedule:

* :func:`recompute_peak_pressure` turns each register's first def, last
  use, def points and boundary liveness into an interval of live samples
  plus isolated def points, adds them per class into a difference array and
  takes the prefix-sum maximum: O(n + defs + uses + registers).
* :func:`classify_stalls` marks, for every instruction, the cycles between
  its earliest legal cycle and its own cycle as coverable, in one
  difference array, then reads each empty cycle off the prefix sum:
  O(n + edges + length).

The recomputation shares the tracker's liveness convention (Section II-A /
Figure 1) but not its mechanism, which never replays the schedule step by
step: a register is born at its defining instruction (live-ins at entry),
dies at its last use unless live-out, last-uses close before the same
slot's defs open, and a dead definition still occupies its register for
the one slot where it issues.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Dict, Mapping, Optional, Sequence

from ..ddg.graph import DDG
from ..ir.block import SchedulingRegion
from ..ir.registers import RegisterClass, VirtualRegister
from ..machine.model import MachineModel
from ..rp.liveness import peak_pressure
from .report import VerificationReport


# -- independent liveness ----------------------------------------------------


def recompute_peak_pressure(
    region: SchedulingRegion, order: Sequence[int]
) -> Dict[RegisterClass, int]:
    """Per-class PRP of ``order``, recomputed from live intervals.

    Unlike the incremental tracker, this derives each register's live
    samples in closed form from its positions in ``order`` and sums them
    per class with a difference array. Sample point ``-1`` is region entry
    (live-ins only); sample ``k`` is "right after the k-th issued
    instruction", with last-uses closed and the slot's defs open.

    A register is live on one interval of samples plus its def points:

    * the interval starts at entry (live-in) or at its first def, and ends
      at the last sample (live-out), just before its last use, just before
      its first def (a live-in that is redefined but never read), at the
      last sample (a live-in that is never touched), or is empty (a
      defined register that is never read);
    * every def point is a live sample too, so a dead def holds its
      register for the one slot where it issues.
    """
    n = len(region)
    position = {inst_index: pos for pos, inst_index in enumerate(order)}

    # Last use position and def positions per register, in issue order.
    last_use: Dict[VirtualRegister, int] = {}
    def_positions: Dict[VirtualRegister, set] = {}
    for inst in region:
        pos = position[inst.index]
        for reg in inst.uses:
            if last_use.get(reg, -1) < pos:
                last_use[reg] = pos
        for reg in inst.defs:
            def_positions.setdefault(reg, set()).add(pos)

    classes = region.register_classes()
    entry = {cls: 0 for cls in classes}
    delta = {cls: [0] * (n + 1) for cls in classes}
    live_in, live_out = region.live_in, region.live_out
    # Only live-ins and defined registers can become live.
    for reg in live_in.union(def_positions):
        defs = def_positions.get(reg, ())
        if reg in live_in:
            entry[reg.reg_class] += 1
            first = 0
        else:
            first = min(defs)
        if reg in live_out:
            last = n - 1
        elif reg in last_use:
            last = last_use[reg] - 1
        elif reg in live_in:
            last = min(defs) - 1 if defs else n - 1
        else:
            last = -1
        counts = delta[reg.reg_class]
        if first <= last:
            counts[first] += 1
            counts[last + 1] -= 1
        for pos in defs:
            if not first <= pos <= last:
                counts[pos] += 1
                counts[pos + 1] -= 1

    return {
        cls: max(entry[cls], max(accumulate(delta[cls][:n])))
        for cls in classes
    }


# -- stall classification ----------------------------------------------------


def classify_stalls(schedule, ddg: DDG) -> Dict[str, int]:
    """Split the schedule's empty cycles into necessary vs. optional.

    A stall cycle ``c`` is *necessary* when every instruction issued after
    ``c`` has a predecessor whose latency (or issue position) keeps it out
    of ``c``; otherwise some instruction could legally have filled the
    cycle and the stall is *optional* (inserted by the pass-2 heuristic).

    Instruction ``j`` could fill every cycle from its earliest legal cycle
    (the latest release of its predecessors) up to the cycle before its
    own, so one difference array over those ranges marks every coverable
    cycle. Ranges are clamped to the schedule, so forged cycles (negative,
    or releases past the end) count as the per-cycle definition says.
    """
    cycles = schedule.cycles
    if not cycles:
        return {"necessary_stalls": 0, "optional_stalls": 0}
    length = max(cycles) + 1
    used = set(cycles)
    coverable = [0] * (length + 1)
    for j in range(ddg.num_instructions):
        earliest = 0
        for p, lat in ddg.predecessors[j]:
            release = cycles[p] + lat
            if release > earliest:
                earliest = release
        if earliest < cycles[j]:
            coverable[earliest] += 1
            coverable[cycles[j]] -= 1
    necessary = optional = 0
    covered = 0
    for c in range(length):
        covered += coverable[c]
        if c in used:
            continue
        if covered:
            optional += 1
        else:
            necessary += 1
    return {"necessary_stalls": necessary, "optional_stalls": optional}


# -- order verification ------------------------------------------------------


def verify_order(ddg: DDG, order: Sequence[int]) -> VerificationReport:
    """Check a raw instruction order (a pass-1 product) against its DDG."""
    report = VerificationReport("order for %r" % ddg.region.name)
    n = ddg.num_instructions
    counts = Counter(order)
    missing = [i for i in range(n) if counts.get(i, 0) == 0]
    duplicated = sorted(i for i, c in counts.items() if c > 1)
    alien = sorted(i for i in counts if not (0 <= i < n))
    report.check(
        "missing-instruction",
        not missing,
        "instruction(s) never issued: %s" % missing[:8],
    )
    report.check(
        "duplicate-issue",
        not duplicated,
        "instruction(s) issued more than once: %s" % duplicated[:8],
    )
    report.check(
        "alien-instruction",
        not alien,
        "order references instruction(s) outside the region: %s" % alien[:8],
    )
    if report.ok:
        position = {index: pos for pos, index in enumerate(order)}
        for src in range(n):
            successors = ddg.successors[src]
            report.checks += len(successors)
            for dst, _lat in successors:
                if not position[src] < position[dst]:
                    report.fail(
                        "order-dependence",
                        "dependence %s -> %s issued out of order"
                        % (ddg.region[src].label, ddg.region[dst].label),
                    )
    return report


# -- schedule verification ---------------------------------------------------


def verify_schedule(
    schedule,
    ddg: DDG,
    machine: Optional[MachineModel] = None,
    respect_latencies: bool = True,
    expected_peak: Optional[Mapping[RegisterClass, int]] = None,
    expected_rp_cost: Optional[int] = None,
    target_aprp: Optional[Mapping[RegisterClass, int]] = None,
) -> VerificationReport:
    """Independently recheck every invariant of a complete schedule.

    ``expected_peak`` / ``expected_rp_cost`` are the producing scheduler's
    claims (recertified against the from-scratch recomputation);
    ``target_aprp`` is the pass-1 APRP target a pass-2 schedule must never
    exceed. ``schedule`` is duck-typed (``region`` + ``cycles`` suffice) so
    corrupted or forged objects can be fed to the verifier in tests.
    """
    region = ddg.region
    report = VerificationReport("schedule for %r" % region.name)

    report.check(
        "region-mismatch",
        schedule.region == region,
        "schedule region %r does not match DDG region %r"
        % (getattr(schedule.region, "name", schedule.region), region.name),
    )

    cycles = tuple(schedule.cycles)
    n = ddg.num_instructions
    if not report.check(
        "incomplete",
        len(cycles) == n,
        "schedule assigns %d cycle(s) for %d instruction(s)" % (len(cycles), n),
    ):
        return report
    report.check(
        "negative-cycle",
        all(c >= 0 for c in cycles),
        "schedule contains negative cycle assignments",
    )

    order = getattr(schedule, "order", None)
    if order is None:
        order = tuple(
            index
            for _c, index in sorted((c, i) for i, c in enumerate(cycles))
        )
    report.check(
        "duplicate-issue",
        sorted(order) == list(range(n)),
        "issue order is not a permutation of the region's instructions",
    )
    if not report.ok:
        return report

    claimed_length = getattr(schedule, "length", None)
    true_length = max(cycles) + 1 if cycles else 0
    if claimed_length is not None:
        report.check(
            "length-mismatch",
            claimed_length == true_length,
            "schedule claims length %d; cycles say %d"
            % (claimed_length, true_length),
        )

    # Dependence / latency legality, one check per edge.
    code = "latency" if respect_latencies else "dependence"
    for src in range(n):
        successors = ddg.successors[src]
        report.checks += len(successors)
        for dst, latency in successors:
            required = latency if respect_latencies else 1
            if not cycles[dst] - cycles[src] >= required:
                report.fail(
                    code,
                    "dependence %s -> %s needs %d cycle(s); got %d"
                    % (
                        region[src].label,
                        region[dst].label,
                        required,
                        cycles[dst] - cycles[src],
                    ),
                )

    # Issue width.
    issue_width = machine.issue_width if machine is not None else 1
    per_cycle = Counter(cycles)
    for cycle, count in sorted(per_cycle.items()):
        if count > issue_width:
            # Only an overfull cycle counts as a check.
            report.checks += 1
            report.fail(
                "issue-width",
                "cycle %d issues %d instruction(s); issue width is %d"
                % (cycle, count, issue_width),
            )

    # Stall classification (informational; stats only).
    report.stats.update(classify_stalls(schedule, ddg))

    # APRP recertification from scratch.
    recertified = recompute_peak_pressure(region, order)
    report.stats["recertified_peak"] = dict(recertified)
    tracker_peak = peak_pressure(schedule) if hasattr(schedule, "order") else None
    if tracker_peak is not None:
        report.check(
            "liveness-mismatch",
            recertified == tracker_peak,
            "interval liveness says %r; rp tracker says %r"
            % (recertified, tracker_peak),
        )
    if expected_peak is not None:
        report.check(
            "claimed-peak",
            dict(expected_peak) == recertified,
            "scheduler claimed peak %r; recertified peak is %r"
            % (dict(expected_peak), recertified),
        )
    if machine is not None:
        from ..rp.cost import rp_cost

        recertified_cost = rp_cost(recertified, machine)
        report.stats["recertified_rp_cost"] = recertified_cost
        report.stats["recertified_aprp"] = machine.aprp(recertified)
        if expected_rp_cost is not None:
            report.check(
                "claimed-cost",
                expected_rp_cost == recertified_cost,
                "scheduler claimed RP cost %d; recertified cost is %d"
                % (expected_rp_cost, recertified_cost),
            )
        if target_aprp is not None:
            aprp = machine.aprp(recertified)
            for cls, limit in target_aprp.items():
                report.check(
                    "aprp-target",
                    aprp.get(cls, 0) <= limit,
                    "pass-2 APRP %d for %s exceeds the pass-1 target %d"
                    % (aprp.get(cls, 0), cls, limit),
                )
    return report


def verify_aco_result(
    result,
    ddg: DDG,
    machine: MachineModel,
    target_aprp: Optional[Mapping[RegisterClass, int]] = None,
) -> VerificationReport:
    """Recheck a two-pass ACO result: legality plus all of its claims."""
    return verify_schedule(
        result.schedule,
        ddg,
        machine,
        respect_latencies=True,
        expected_peak=result.peak,
        expected_rp_cost=result.rp_cost_value,
        target_aprp=target_aprp,
    )
