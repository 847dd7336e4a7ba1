"""Incremental register-pressure tracking.

Every scheduler in this library (the greedy baselines, the sequential ACO
ants and the vectorized parallel colony) builds schedules one instruction at
a time and needs the running register pressure in O(defs + uses) per step.
:class:`PressureTracker` provides exactly that.

Liveness convention (matches Section II-A and the Figure 1 walk-through):

* a register becomes live when its defining instruction issues (live-in
  registers are live from the start);
* it dies at its last use, unless it is live-out (then it never dies inside
  the region);
* last-uses close **before** the same instruction's defs open: pressure is
  sampled *between* instructions, so an instruction whose destination can
  reuse one of its killed sources does not transiently need both registers.
  This matches the paper's Figure 1 (the schedule C, D, F, ... has PRP 3:
  F's definition opens only after C's and D's ranges close) and LLVM's
  kill-before-def convention;
* a definition with no uses and not live-out still occupies a register at
  its defining instruction, so it counts toward the peak at that point and
  dies immediately.

Regions are expected to be SSA-like (each virtual register defined by one
instruction); for regions with redefinitions the tracker treats all uses of
a register name as one live range, which over-approximates pressure — the
same conservative choice LLVM's pre-RA scheduler makes for un-renamed
registers.

The tracker runs over dense register ids, not :class:`VirtualRegister`
values: a :class:`RegisterTable` interns a region's registers to ``0..r-1``
once, so a scheduling step indexes lists instead of hashing frozen
dataclasses. An ACO pass builds one table and hands it to every ant's
tracker; a one-shot tracker builds its own. The parallel colony's device
image (:class:`repro.parallel.layouts.RegionDeviceData`) is built from a
table too, so both colonies number registers the same way. The registers
themselves only
reappear in the dict views (``current``, ``peak``,
:meth:`PressureTracker.pressure_if_scheduled`) and in
:meth:`PressureTracker.live_registers`.

A schedule is evaluated once per compile. The tracker that built it
already holds its peak, so that peak travels with the result instead of a
second tracker replaying the order:

* :func:`~repro.heuristics.list_schedule` and
  :func:`~repro.heuristics.order_schedule` attach theirs as
  ``Schedule.tracked_peak``. The list scheduler does so only when its
  tracker issued exactly ``Schedule.order``. A multi-issue cycle may pick
  its instructions out of index order, and the order sorts them by index,
  so the tracker's peak is then another order's.
* The ACO driver's ``ACOResult.peak`` is its final schedule's peak; the
  pipeline evaluates the ACO schedule with it.
* :func:`repro.rp.evaluate_schedule` and the driver read a carried peak
  through :func:`repro.rp.liveness.schedule_peak`, and replay when there
  is none.

:func:`repro.rp.liveness.peak_pressure` always replays. The verifier calls
it and recounts intervals on its own, so a wrong carried peak shows up as
a mismatch with the claim built from it, never as agreement.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ScheduleError
from ..ir.block import SchedulingRegion
from ..ir.instructions import Instruction
from ..ir.registers import RegisterClass, VirtualRegister

#: A pressure target compiled against one table: ``(class index, limit)``
#: per target class the region has, and the worst excess of the classes it
#: lacks (their pressure is 0), or ``None`` when it lacks none.
_Limits = Tuple[Tuple[Tuple[int, int], ...], Optional[int]]


class RegisterTable:
    """A region's registers interned to dense ids, with the static liveness
    facts every tracker step needs.

    Ids follow first appearance in program order (uses before defs), then
    live-ins no instruction touches. Per id: the register, its class index
    into ``classes``, whether it is live-out, and its total use count. Per
    instruction: its use and def ids, ``closers`` (the uses whose range the
    instruction may close: not live-out and not redefined by the same
    instruction, the kill-before-def guard), ``closable`` (the uses that
    count toward the LUC last-use count: not live-out) and ``dying_defs``
    (the defs that are not live-out, so they die at once when unread).
    """

    __slots__ = (
        "region",
        "classes",
        "registers",
        "class_of",
        "live_out",
        "use_counts",
        "live_in",
        "uses",
        "defs",
        "closers",
        "closable",
        "dying_defs",
    )

    def __init__(self, region: SchedulingRegion):
        self.region = region
        classes = self.classes = region.register_classes()
        ids: Dict[VirtualRegister, int] = {}
        intern = ids.setdefault
        uses: List[Tuple[int, ...]] = []
        defs: List[Tuple[int, ...]] = []
        for inst in region:
            uses.append(tuple([intern(reg, len(ids)) for reg in inst.uses]))
            defs.append(tuple([intern(reg, len(ids)) for reg in inst.defs]))
        for reg in sorted(region.live_in.difference(ids)):
            ids[reg] = len(ids)
        self.registers: Tuple[VirtualRegister, ...] = tuple(ids)
        # tuple.index compares by identity first: no dataclass hashing.
        self.class_of: Tuple[int, ...] = tuple(
            [classes.index(reg.reg_class) for reg in self.registers]
        )
        flags = [False] * len(ids)
        for reg in region.live_out:
            flags[ids[reg]] = True
        self.live_out: Tuple[bool, ...] = tuple(flags)
        counts = [0] * len(ids)
        for inst_uses in uses:
            for reg in inst_uses:
                counts[reg] += 1
        self.use_counts: Tuple[int, ...] = tuple(counts)
        self.live_in: Tuple[int, ...] = tuple([ids[reg] for reg in region.live_in])
        self.uses: Tuple[Tuple[int, ...], ...] = tuple(uses)
        self.defs: Tuple[Tuple[int, ...], ...] = tuple(defs)
        closable = [tuple([r for r in inst_uses if not flags[r]]) for inst_uses in uses]
        self.closable: Tuple[Tuple[int, ...], ...] = tuple(closable)
        self.closers: Tuple[Tuple[int, ...], ...] = tuple(
            [
                tuple([r for r in candidates if r not in inst_defs]) if inst_defs else candidates
                for candidates, inst_defs in zip(closable, defs)
            ]
        )
        self.dying_defs: Tuple[Tuple[int, ...], ...] = tuple(
            [tuple([r for r in inst_defs if not flags[r]]) for inst_defs in defs]
        )


class PressureTracker:
    """Running per-class register pressure over a partial schedule.

    ``table`` is the region's :class:`RegisterTable`; pass one to share it
    between trackers of the same region (the ants of an ACO pass).
    """

    __slots__ = (
        "region",
        "table",
        "classes",
        "_remaining",
        "_live",
        "_current",
        "_peak",
        "_limits_source",
        "_limits",
    )

    def __init__(self, region: SchedulingRegion, table: Optional[RegisterTable] = None):
        if table is None:
            table = RegisterTable(region)
        elif table.region is not region:
            raise ValueError("register table of region %r given for %r" % (table.region, region))
        self.region = region
        self.table = table
        self.classes: Tuple[RegisterClass, ...] = table.classes
        self._limits_source: Optional[Mapping[RegisterClass, int]] = None
        self._limits: _Limits = ((), None)
        self.reset()

    def reset(self) -> None:
        """Restart tracking from the empty schedule."""
        table = self.table
        self._remaining = list(table.use_counts)
        self._live = [False] * len(table.registers)
        self._current = [0] * len(table.classes)
        class_of = table.class_of
        for reg in table.live_in:
            self._live[reg] = True
            self._current[class_of[reg]] += 1
        self._peak = list(self._current)

    # -- internals -----------------------------------------------------------

    def _index_of(self, inst: Instruction) -> int:
        """``inst.index``, once ``inst`` is known to be this region's."""
        index = inst.index
        instructions = self.region.instructions
        if index < len(instructions):
            own = instructions[index]
            if own is inst or own == inst:
                return index
        raise ScheduleError(
            "instruction %s is not instruction %d of region %r"
            % (inst.label, index, self.region.name)
        )

    def _compile(self, limits: Mapping[RegisterClass, int]) -> None:
        """``limits`` against this table's class indices.

        Memoized by identity: the previews run once per ready candidate
        per step against the same target, so a tracker compiles each
        mapping once and keeps it alive (its id cannot be reused). A
        mapping must therefore not change while a tracker uses it.
        """
        classes = self.classes
        pairs = []
        absent: Optional[int] = None
        for cls, limit in limits.items():
            if cls in classes:
                pairs.append((classes.index(cls), limit))
            elif absent is None or -limit > absent:
                absent = -limit
        self._limits_source = limits
        self._limits = (tuple(pairs), absent)

    def _preview(self, index: int) -> List[int]:
        """Per-class pressure right after instruction ``index`` would issue."""
        table = self.table
        live = self._live
        remaining = self._remaining
        class_of = table.class_of
        result = list(self._current)
        for reg in table.defs[index]:
            if not live[reg]:
                result[class_of[reg]] += 1
        for reg in table.closers[index]:
            if remaining[reg] == 1 and live[reg]:
                result[class_of[reg]] -= 1
        return result

    # -- the scheduling step ---------------------------------------------------

    def schedule(self, inst: Instruction) -> None:
        """Account for issuing ``inst`` (exhausted uses close, then defs open)."""
        index = self._index_of(inst)
        table = self.table
        remaining = self._remaining
        live = self._live
        current = self._current
        class_of = table.class_of
        for reg in table.uses[index]:
            remaining[reg] -= 1
        for reg in table.closers[index]:
            if remaining[reg] == 0 and live[reg]:
                live[reg] = False
                current[class_of[reg]] -= 1
        for reg in table.defs[index]:
            if not live[reg]:
                live[reg] = True
                current[class_of[reg]] += 1
        # The defs are live at this point even if they die immediately.
        peak = self._peak
        for k, value in enumerate(current):
            if value > peak[k]:
                peak[k] = value
        for reg in table.dying_defs[index]:
            if remaining[reg] == 0 and live[reg]:
                live[reg] = False
                current[class_of[reg]] -= 1

    def pressure_if_scheduled(self, inst: Instruction) -> Dict[RegisterClass, int]:
        """The per-class pressure right after ``inst`` would issue.

        Previews an instruction's pressure impact without committing; the
        ACO ants use :meth:`excess_if_scheduled`, which skips the dict.
        """
        return dict(zip(self.classes, self._preview(self._index_of(inst))))

    def excess_if_scheduled(self, index: int, limits: Mapping[RegisterClass, int]) -> int:
        """Worst per-class overshoot of ``limits`` right after instruction
        ``index`` would issue.

        Positive: some class would exceed its limit; zero: at a limit;
        negative: strictly below every limit. A class of ``limits`` the
        region has no register of counts as pressure 0; empty ``limits``
        give 0.
        """
        if limits is not self._limits_source:
            self._compile(limits)
        pairs, worst = self._limits
        if not 0 <= index < len(self.table.defs):
            raise ScheduleError(
                "instruction %d is not in region %r" % (index, self.region.name)
            )
        if pairs:
            preview = self._preview(index)
            for k, limit in pairs:
                excess = preview[k] - limit
                if worst is None or excess > worst:
                    worst = excess
        return 0 if worst is None else worst

    def _exceeds(self, values: List[int], limits: Mapping[RegisterClass, int]) -> bool:
        if limits is not self._limits_source:
            self._compile(limits)
        pairs, absent = self._limits
        if absent is not None and absent > 0:
            return True
        for k, limit in pairs:
            if values[k] > limit:
                return True
        return False

    def peak_exceeds(self, limits: Mapping[RegisterClass, int]) -> bool:
        """True if the peak so far is above some class's limit."""
        return self._exceeds(self._peak, limits)

    def current_exceeds(self, limits: Mapping[RegisterClass, int]) -> bool:
        """True if the current pressure is above some class's limit (the
        AMD baseline's switch into pressure mode)."""
        return self._exceeds(self._current, limits)

    def pressure_delta(self, inst: Instruction) -> int:
        """Net change in total pressure (all classes) if ``inst`` issued now."""
        return sum(self._preview(self._index_of(inst))) - sum(self._current)

    def closes_ranges(self, inst: Instruction) -> int:
        """How many live ranges ``inst`` would close (the LUC heuristic input)."""
        return self.closes_at(self._index_of(inst))

    def closes_at(self, index: int) -> int:
        """:meth:`closes_ranges` of instruction ``index``: the greedy picks
        and the LUC score call this once per ready candidate, so it takes
        the index and skips the instruction lookup."""
        closable = self.table.closable
        if not 0 <= index < len(closable):
            raise ScheduleError(
                "instruction %d is not in region %r" % (index, self.region.name)
            )
        live = self._live
        remaining = self._remaining
        closing = 0
        for reg in closable[index]:
            if remaining[reg] == 1 and live[reg]:
                closing += 1
        return closing

    # -- results ----------------------------------------------------------------

    @property
    def current(self) -> Dict[RegisterClass, int]:
        """Per-class pressure after everything scheduled so far."""
        return dict(zip(self.classes, self._current))

    @property
    def peak(self) -> Dict[RegisterClass, int]:
        """Per-class peak so far (same as :meth:`peak_pressure`)."""
        return dict(zip(self.classes, self._peak))

    def peak_pressure(self) -> Dict[RegisterClass, int]:
        """Per-class PRP of everything scheduled so far."""
        return self.peak

    def live_registers(self) -> Tuple[VirtualRegister, ...]:
        registers = self.table.registers
        return tuple(registers[reg] for reg, live in enumerate(self._live) if live)

    # -- save and restore ---------------------------------------------------------

    def snapshot(self) -> Tuple[Tuple[int, ...], ...]:
        """The tracker's state, for a later :meth:`restore` (any number of times)."""
        return (
            tuple(self._remaining),
            tuple(self._live),
            tuple(self._current),
            tuple(self._peak),
        )

    def restore(self, snapshot: Tuple[Tuple[int, ...], ...]) -> None:
        """Return to the state :meth:`snapshot` saved."""
        remaining, live, current, peak = snapshot
        self._remaining[:] = remaining
        self._live[:] = live
        self._current[:] = current
        self._peak[:] = peak
