"""Brute-force references for the linear-time scalar analyses.

Verbatim copies of the original per-sample / per-cycle / per-use
implementations of :func:`repro.analysis.verifier.recompute_peak_pressure`,
:func:`repro.analysis.verifier.classify_stalls` and
:func:`repro.ddg.lower_bounds.pressure_lower_bounds`. They are quadratic or
worse, which is why they live here and not in ``src/``: the property tests
in ``test_linear_analyses.py`` check that the linear sweeps return exactly
what these return.

Also verbatim: the register-keyed :class:`PressureTracker` that
:mod:`repro.rp.tracker` replaced with its dense-id tracker, and the
``pressure_excess`` it was paired with in ``repro.aco.stalls``. Not
quadratic, but the same kind of reference: ``test_rp.py`` checks the dense
tracker against them after every step.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.ddg.graph import DDG
from repro.ir.block import SchedulingRegion
from repro.ir.instructions import Instruction
from repro.ir.registers import RegisterClass, VirtualRegister


def recompute_peak_pressure(
    region: SchedulingRegion, order: Sequence[int]
) -> Dict[RegisterClass, int]:
    """Per-class PRP of ``order``, recomputed from live intervals.

    Unlike the incremental tracker, this derives each register's live
    sample-range in closed form from its def/use positions and counts
    interval overlap per sample point. Sample point ``-1`` is region entry
    (live-ins only); sample ``k`` is "right after the k-th issued
    instruction", with last-uses closed and the slot's defs open.
    """
    n = len(region)
    position = {inst_index: pos for pos, inst_index in enumerate(order)}

    # Def positions and use-occurrence positions per register, in issue order.
    def_positions: Dict[object, list] = {}
    use_positions: Dict[object, list] = {}
    for inst in region:
        pos = position[inst.index]
        for reg in inst.uses:
            use_positions.setdefault(reg, []).append(pos)
        for reg in inst.defs:
            def_positions.setdefault(reg, []).append(pos)

    classes = region.register_classes()
    counts = [{cls: 0 for cls in classes} for _ in range(n + 1)]

    def mark_live(reg, sample: int) -> None:
        counts[sample + 1][reg.reg_class] += 1

    for reg in region.all_registers:
        defs = sorted(def_positions.get(reg, ()))
        uses = sorted(use_positions.get(reg, ()))
        live_in = reg in region.live_in
        live_out = reg in region.live_out
        def_set = set(defs)
        born = -1 if live_in else (defs[0] if defs else None)
        if born is None:
            continue  # never defined, never live-in: cannot become live
        if born == -1:
            mark_live(reg, -1)
        for sample in range(n):
            if sample < born:
                continue
            remaining = sum(1 for u in uses if u > sample)
            alive = (
                live_out
                or remaining > 0
                or sample in def_set
                or (not uses and not defs)  # untouched live-in: never killed
                or (not uses and live_in and defs and sample < defs[0])
            )
            if alive:
                mark_live(reg, sample)

    peak = {cls: 0 for cls in classes}
    for sample_counts in counts:
        for cls, value in sample_counts.items():
            if value > peak[cls]:
                peak[cls] = value
    return peak


def classify_stalls(schedule, ddg: DDG) -> Dict[str, int]:
    """Split the schedule's empty cycles into necessary vs. optional.

    A stall cycle ``c`` is *necessary* when every instruction issued after
    ``c`` has a predecessor whose latency (or issue position) keeps it out
    of ``c``; otherwise some instruction could legally have filled the
    cycle and the stall is *optional* (inserted by the pass-2 heuristic).
    """
    cycles = schedule.cycles
    used = set(cycles)
    necessary = optional = 0
    length = max(cycles) + 1 if cycles else 0
    for c in range(length):
        if c in used:
            continue
        movable = False
        for j in range(ddg.num_instructions):
            if cycles[j] <= c:
                continue
            if all(cycles[p] + lat <= c for p, lat in ddg.predecessors[j]):
                movable = True
                break
        if movable:
            optional += 1
        else:
            necessary += 1
    return {"necessary_stalls": necessary, "optional_stalls": optional}


def pressure_lower_bounds(region: SchedulingRegion) -> Dict[RegisterClass, int]:
    """A sound per-class PRP lower bound (see module docstring)."""
    classes = region.register_classes()
    bounds: Dict[RegisterClass, int] = {}
    for cls in classes:
        live_in = sum(1 for r in region.live_in if r.reg_class is cls)
        live_out = sum(1 for r in region.live_out if r.reg_class is cls)
        bound = max(live_in, live_out)
        for inst in region:
            uses = sum(1 for r in inst.uses if r.reg_class is cls)
            defs = sum(1 for r in inst.defs if r.reg_class is cls)
            # Just after `inst` issues its defs are live together with any of
            # its uses that still have a later consumer (a successor reads
            # them) or are live-out.
            live_through = 0
            for reg in inst.uses:
                if reg.reg_class is not cls:
                    continue
                if reg in region.live_out:
                    live_through += 1
                    continue
                if any(
                    other.index != inst.index and other.index > inst.index
                    and reg in other.uses
                    for other in region
                ):
                    live_through += 1
            bound = max(bound, uses, defs + live_through)
        bounds[cls] = bound
    return bounds


class PressureTracker:
    """Running per-class register pressure over a partial schedule."""

    __slots__ = (
        "region",
        "classes",
        "_remaining_uses",
        "_live",
        "current",
        "peak",
        "_total_use_counts",
    )

    def __init__(self, region: SchedulingRegion):
        self.region = region
        self.classes: Tuple[RegisterClass, ...] = region.register_classes()
        self._total_use_counts: Dict[VirtualRegister, int] = {}
        for inst in region:
            for reg in inst.uses:
                self._total_use_counts[reg] = self._total_use_counts.get(reg, 0) + 1
        self.reset()

    def reset(self) -> None:
        """Restart tracking from the empty schedule."""
        self._remaining_uses = dict(self._total_use_counts)
        self._live: Dict[VirtualRegister, bool] = {}
        self.current: Dict[RegisterClass, int] = {cls: 0 for cls in self.classes}
        self.peak: Dict[RegisterClass, int] = {cls: 0 for cls in self.classes}
        for reg in self.region.live_in:
            self._make_live(reg)
        self._update_peak()

    # -- internals -----------------------------------------------------------

    def _make_live(self, reg: VirtualRegister) -> None:
        if not self._live.get(reg, False):
            self._live[reg] = True
            self.current[reg.reg_class] = self.current.get(reg.reg_class, 0) + 1

    def _kill(self, reg: VirtualRegister) -> None:
        if self._live.get(reg, False):
            self._live[reg] = False
            self.current[reg.reg_class] -= 1

    def _update_peak(self) -> None:
        for cls, value in self.current.items():
            if value > self.peak.get(cls, 0):
                self.peak[cls] = value

    # -- the scheduling step ---------------------------------------------------

    def schedule(self, inst: Instruction) -> None:
        """Account for issuing ``inst`` (exhausted uses close, then defs open)."""
        for reg in inst.uses:
            remaining = self._remaining_uses.get(reg, 0) - 1
            self._remaining_uses[reg] = remaining
            if remaining == 0 and reg not in self.region.live_out and reg not in inst.defs:
                self._kill(reg)
        dead_defs = []
        for reg in inst.defs:
            self._make_live(reg)
            if (
                self._remaining_uses.get(reg, 0) == 0
                and reg not in self.region.live_out
            ):
                dead_defs.append(reg)
        # The defs are live at this point even if they die immediately.
        self._update_peak()
        for reg in dead_defs:
            self._kill(reg)

    def pressure_if_scheduled(self, inst: Instruction) -> Dict[RegisterClass, int]:
        """The per-class pressure right after ``inst`` would issue.

        Used by the ACO guiding heuristics and the optional-stall heuristic
        to preview an instruction's pressure impact without committing.
        """
        result = dict(self.current)
        for reg in inst.defs:
            if not self._live.get(reg, False):
                result[reg.reg_class] = result.get(reg.reg_class, 0) + 1
        for reg in inst.uses:
            if (
                self._remaining_uses.get(reg, 0) == 1
                and reg not in self.region.live_out
                and self._live.get(reg, False)
                and reg not in inst.defs
            ):
                result[reg.reg_class] -= 1
        return result

    def pressure_delta(self, inst: Instruction) -> int:
        """Net change in total pressure (all classes) if ``inst`` issued now."""
        preview = self.pressure_if_scheduled(inst)
        return sum(preview.values()) - sum(self.current.values())

    def closes_ranges(self, inst: Instruction) -> int:
        """How many live ranges ``inst`` would close (the LUC heuristic input)."""
        closing = 0
        # dict.fromkeys, not set(): insertion-ordered dedup keeps the loop
        # independent of hash order (static analysis rule DET-002).
        for reg in dict.fromkeys(inst.uses):
            if (
                self._remaining_uses.get(reg, 0) == 1
                and reg not in self.region.live_out
                and self._live.get(reg, False)
            ):
                closing += 1
        return closing

    # -- results ----------------------------------------------------------------

    def peak_pressure(self) -> Dict[RegisterClass, int]:
        """Per-class PRP of everything scheduled so far."""
        return dict(self.peak)

    def live_registers(self) -> Iterable[VirtualRegister]:
        return tuple(reg for reg, live in self._live.items() if live)


def pressure_excess(
    pressure: Mapping[RegisterClass, int], target: Mapping[RegisterClass, int]
) -> int:
    """Worst per-class overshoot of ``pressure`` relative to ``target``.

    Positive: some class exceeds its target; zero: at the target; negative:
    strictly below it everywhere.
    """
    worst = -(10**9)
    for cls, limit in target.items():
        worst = max(worst, pressure.get(cls, 0) - limit)
    return worst if worst != -(10**9) else 0
