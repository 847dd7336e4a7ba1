"""The region's device image: padded structure-of-arrays buffers.

Section V-A: the parallel scheduler allocates nothing on the device.
Everything an ant needs — operand tables, successor lists, critical-path
heights, occupancy lookup tables — is packed into fixed-size arrays on the
host and copied over once, and per-ant dynamic state (ready lists, pressure
counters) lives in preallocated 2-D arrays whose widths are *upper bounds*:
the ready/available list is sized by the transitive-closure bound
(:meth:`repro.ddg.closure.TransitiveClosure.ready_list_upper_bound`) when
the ``tight_ready_list_bound`` optimization is on, or by the trivial bound
``n`` otherwise.

Registers are numbered by the region's :class:`~repro.rp.tracker.RegisterTable`
(first appearance in program order), the same dense ids the CPU ants'
pressure trackers use; the use counts, live-in/live-out facts and the
kill-before-def "closers" come from that table too.

The vectorized colony also reads host-side index tables derived from these:
per-instruction kill-preview columns, and slot-major copies of the operand
and successor tables whose padding and extra instruction column name the
per-ant state arrays' sentinel columns. They are not part of the transferred
image (:meth:`RegionDeviceData.device_arrays`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..ddg.closure import TransitiveClosure
from ..ddg.analysis import critical_path_info
from ..ddg.graph import DDG
from ..ir.registers import RegisterClass, VirtualRegister
from ..machine.model import MachineModel
from ..rp.tracker import RegisterTable


def _pad_lists(lists, pad_value=-1, dtype=np.int32, min_width=1):
    width = max(min_width, max((len(l) for l in lists), default=0))
    return np.array(
        [list(items) + [pad_value] * (width - len(items)) for items in lists], dtype=dtype
    )


def _slot_major(table, sentinel):
    """``table`` transposed to ``(slots, n + 1)``; column ``n`` is all ``sentinel``."""
    column = np.full((table.shape[1], 1), sentinel, dtype=table.dtype)
    return np.concatenate((table.T, column), axis=1)


class RegionDeviceData:
    """Read-only per-region arrays shared by all ants (the device image)."""

    def __init__(self, ddg: DDG, machine: MachineModel, tight_ready_bound: bool = True):
        self.ddg = ddg
        self.machine = machine
        region = ddg.region
        n = ddg.num_instructions
        self.num_instructions = n

        # Dense register ids: the tracker's own numbering (first appearance).
        table = RegisterTable(region)
        self.registers: Tuple[VirtualRegister, ...] = table.registers
        self.num_registers = len(table.registers)

        classes = machine.classes()
        self.classes: Tuple[RegisterClass, ...] = classes
        self.num_classes = len(classes)
        class_index = {cls: i for i, cls in enumerate(classes)}
        # The table indexes the region's classes; map them onto the
        # machine's. Registers of classes the machine does not constrain
        # get class -1 and are ignored by the pressure counters.
        to_machine = np.array([class_index.get(cls, -1) for cls in table.classes], dtype=np.int32)
        self.reg_class = to_machine[np.asarray(table.class_of, dtype=np.intp)]

        # Operand tables (padded; -1 terminates).
        self.uses = _pad_lists(table.uses)
        self.defs = _pad_lists(table.defs)

        # closer_slots[i, s]: use slot s of instruction i names one of the
        # table's closers, a register whose live range i may close (not
        # live-out, and not redefined by i: kill-before-def must not free it).
        closers = table.closers
        self.closer_slots = _pad_lists(
            [[reg in closers[i] for reg in inst_uses] for i, inst_uses in enumerate(table.uses)],
            pad_value=False,
            dtype=bool,
        )

        # Static per-class def counts (the stall heuristic's "opens" preview).
        self.defs_per_class = np.zeros((n, self.num_classes), dtype=np.int32)
        rows, cols = np.nonzero(self.defs >= 0)
        def_class = self.reg_class[self.defs[rows, cols]]
        constrained = def_class >= 0
        np.add.at(self.defs_per_class, (rows[constrained], def_class[constrained]), 1)

        # Dependence structure.
        self.succ_ids = _pad_lists([[s for s, _l in ddg.successors[i]] for i in range(n)])
        self.succ_lat = _pad_lists(
            [[l for _s, l in ddg.successors[i]] for i in range(n)], pad_value=0
        )
        self.pred_count = np.array(ddg.num_predecessors, dtype=np.int32)
        self.succ_count = np.array([len(ddg.successors[i]) for i in range(n)], dtype=np.int32)
        self.roots = np.array(ddg.roots, dtype=np.int32)

        # Guiding-heuristic inputs.
        cp = critical_path_info(ddg)
        self.heights = np.array(cp.height, dtype=np.float64)
        self.score_scale = float(max(cp.height) + 1)
        self.num_uses = np.count_nonzero(self.uses >= 0, axis=1).astype(np.float64)
        self.num_defs = np.count_nonzero(self.defs >= 0, axis=1).astype(np.float64)
        # Static parts of the scores. Every term is an exact small integer
        # (or the same division) in float64, so hoisting them out of the
        # per-step formula leaves every score bit-identical.
        self.cp_eta = 1.0 + self.heights
        self.luc_base = self.num_uses - self.num_defs + 1.0
        self.luc_height = self.heights / self.score_scale

        # Liveness inputs.
        self.total_use_counts = np.array(table.use_counts, dtype=np.int32)
        self.live_out_mask = np.array(table.live_out, dtype=bool)
        self.live_in_ids = np.array(sorted(table.live_in), dtype=np.int32)
        live_in_class = self.reg_class[self.live_in_ids]
        self.live_in_per_class = np.bincount(
            live_in_class[live_in_class >= 0], minlength=self.num_classes
        ).astype(np.int32)
        # The machine classes the region touches, as (class index, class):
        # the keys of a reported peak (matching rp.liveness.peak_pressure).
        self.peak_classes: Tuple[Tuple[int, RegisterClass], ...] = tuple(
            (ci, cls) for ci, cls in enumerate(classes) if cls in table.classes
        )

        # Per-instruction kill-preview columns: kill_cols[g, s, i] names the
        # register use slot s of instruction i would close, grouped by class
        # g (group num_classes holds unconstrained registers). Slots that
        # are padded, not closers, or of another group name the sentinel
        # register num_registers, which an ant's killable mask keeps False.
        # One take through this table scores every instruction for every
        # ant; candidates then gather their row entries.
        R = self.num_registers
        groups = np.where(self.reg_class >= 0, self.reg_class, self.num_classes)
        slot_regs = np.where(self.closer_slots, self.uses, R).T  # (slots, n)
        slot_groups = np.append(groups, -1)[slot_regs]
        self.kill_cols = np.stack(
            [np.where(slot_groups == g, slot_regs, R) for g in range(self.num_classes + 1)]
        ).astype(np.intp)

        # Slot-major operand and successor tables for the vectorized colony's
        # dense updates, with one extra column n: the sentinel instruction an
        # idle lane issues. Padded slots (and every slot of column n) name the
        # sentinel register R or sentinel instruction n, which address the
        # per-ant state arrays' sentinel columns.
        # Index tables are intp, the dtype numpy's take indexes with.
        self.use_cols = _slot_major(np.where(self.uses >= 0, self.uses, R), R).astype(np.intp)
        self.closer_cols = _slot_major(self.closer_slots, False)
        self.def_cols = _slot_major(np.where(self.defs >= 0, self.defs, R), R).astype(np.intp)
        # A def that dies at once when its register has no uses left: a real
        # def slot whose register is not live-out.
        self.def_dies = np.append(~self.live_out_mask, False)[self.def_cols]
        self.succ_cols = _slot_major(
            np.where(self.succ_ids >= 0, self.succ_ids, n), n
        ).astype(np.intp)
        self.succ_lat_cols = _slot_major(self.succ_lat, 0)
        self.succ_count_cols = np.append(self.succ_count, 0)
        # Register -> class column; unconstrained registers and the sentinel
        # register name the sentinel class num_classes.
        self.reg_class_cols = np.append(groups, self.num_classes).astype(np.intp)

        # Occupancy / APRP lookup tables, one row per class; index = pressure
        # clamped to the table width (beyond-table pressure -> occupancy 0).
        # Built once per machine model and shared read-only.
        luts = machine.pressure_luts
        self.lut_width = luts.width
        self.occ_lut = luts.occupancy
        self.aprp_lut = luts.aprp
        self.max_occupancy = machine.max_occupancy

        # The available-list bound of Section V-A. Available = ready and
        # semi-ready instructions, which are pairwise independent, so the
        # transitive-closure bound applies to the combined list.
        closure = TransitiveClosure(ddg)
        self.tight_ready_bound = tight_ready_bound
        tight = closure.ready_list_upper_bound()
        self.ready_capacity = min(n, tight) if tight_ready_bound else n
        #: 32-bit words of one ant's preallocated state (Section V-A): the
        #: size the per-iteration reset stores and the injected-OOM check
        #: requests.
        self.per_ant_state_words = 2 * self.ready_capacity + 2 * n + 2 * self.num_registers + 8

    # -- transfer accounting ------------------------------------------------

    def device_arrays(self):
        """The arrays copied host->device (for transfer accounting)."""
        return (
            self.reg_class,
            self.uses,
            self.defs,
            self.succ_ids,
            self.succ_lat,
            self.pred_count,
            self.succ_count,
            self.roots,
            self.heights,
            self.num_uses,
            self.num_defs,
            self.total_use_counts,
            self.live_out_mask,
            self.live_in_ids,
            self.occ_lut,
            self.aprp_lut,
        )

    def per_ant_state_bytes(self, num_ants: int) -> int:
        """Preallocated per-ant state copied/zeroed on the device.

        Dominated by the available-list arrays of width ``ready_capacity``
        (this is where the tight bound pays off) plus the order/cycle
        buffers and the register bitmaps.
        """
        cap = self.ready_capacity
        per_ant = (
            cap * 4 * 2  # available ids + release cycles
            + self.num_instructions * 4 * 3  # order, cycles, pred counters
            + self.num_registers * (4 + 1)  # remaining uses + live flags
            + self.num_classes * 4 * 2  # current + peak pressure
            + 64  # scalars
        )
        return per_ant * num_ants
