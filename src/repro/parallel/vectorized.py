"""The vectorized wavefront ant-construction engine (``backend="vectorized"``).

Every GPU thread simulates one ant (Section IV-B). This engine executes all
``blocks * 64`` ants in lockstep with numpy arrays whose leading axis is the
ant index — the exact analogue of the SIMD execution the paper's HIP kernel
gets from the hardware, and the same data layout (structure-of-arrays,
fixed-capacity available lists) the paper's Section V-A prescribes. Each
construction step is a handful of dense batch operations over the whole
population: a batched ready-list mask over the SoA layouts, one batched
pheromone x heuristic scoring pass, a wavefront-uniform (or per-thread)
explore/exploit split, batched roulette selection from the per-ant RNG
streams, and an array reduction for the iteration winner.

:mod:`repro.parallel.loop` implements the same construction semantics as a
scalar per-ant reference engine; the differential test harness
(``tests/test_differential.py``) proves the two produce bit-identical
seeded schedules. Randomness comes from the spawn-indexed per-ant streams
of :mod:`repro.parallel.rng`, so the batch draws here equal the reference
engine's scalar draws by construction.

While constructing, the engine reports abstract operations to
:class:`~repro.gpusim.kernel.KernelAccounting`, charging the *optimized*
kernel's cost: lockstep lanes execute each step's array operation once per
wavefront, so

* a wavefront's ready-list scan costs its **longest** lane's list;
* thread-level explore/exploit draws serialize the two selection paths
  (an extra scan) whenever a wavefront contains both kinds of lane;
* in pass 2, wavefronts containing both scheduling and stalling lanes pay
  the serialized stall path on top;
* each ready-list insertion allocates when the naive (dynamic-allocation)
  memory mode is simulated.

(The loop backend charges the unoptimized divergent kernel instead — every
lane serialized — which is what ``BENCH_backend.json`` quantifies.)

Dead ants (pressure-constraint violations) and finished lanes stay in
lockstep as inactive lanes — they occupy their wavefront's slot without
contributing, exactly like masked-off GPU lanes — until the wavefront
finishes or early termination retires it.

A pass-2 cycle in which no active ant holds a released candidate is a
necessary stall for every lane, and so is each cycle after it until the
earliest pending release. The driver jumps straight to that release, like
the sequential ant does. The jumped cycles skip the pressure preview and
scoring, but each one still consumes its exploit and roulette draws, adds
its charge, and runs the sanitizer's per-step checks, so draws, modeled
seconds and step counts are unchanged (see ``_idle_cycles``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.sanitizer import ColonySanitizer
from ..config import ACOParams
from ..gpusim.kernel import KernelAccounting
from ..heuristics.base import HEURISTIC_WEIGHT
from ..ir.registers import RegisterClass
from ..rp.cost import OCCUPANCY_WEIGHT
from .divergence import DivergencePolicy
from .layouts import RegionDeviceData
from .rng import AntRngStreams

_BASE_STEP_OPS = 8.0
_SELECT_OPS_PER_CANDIDATE = 2.0
_UPDATE_OPS_PER_SUCCESSOR = 2.0
_STALL_PATH_OPS = 4.0
_STATE_WORDS_BASE = 4.0


@dataclass
class ColonyIterationResult:
    """Winner and liveness data of one colony iteration."""

    winner_order: Optional[Tuple[int, ...]]
    winner_cycles: Optional[Tuple[int, ...]]
    winner_cost: float
    winner_peak: Dict[RegisterClass, int]
    num_alive: int
    steps: int


class VectorizedColony:
    """Per-region vectorized colony state (reused across iterations)."""

    #: Backend identifier exported through telemetry and the scheduler.
    backend_name = "vectorized"

    def __init__(
        self,
        data: RegionDeviceData,
        params: ACOParams,
        policy: DivergencePolicy,
        accounting: KernelAccounting,
        rng,
        sanitizer: Optional[ColonySanitizer] = None,
    ):
        self.data = data
        self.params = params
        self.policy = policy
        self.accounting = accounting
        self.sanitizer = sanitizer

        self.num_ants = policy.num_ants
        self.num_wavefronts = policy.num_wavefronts
        self.wavefront_size = policy.wavefront_size
        #: Per-ant spawn-indexed RNG streams (accepts an integer seed or a
        #: prebuilt stream set — see repro.parallel.rng).
        self.streams = AntRngStreams.coerce(rng, self.num_ants)

        d = data
        a = self.num_ants
        n, cap = d.num_instructions, d.ready_capacity
        regs, classes = d.num_registers, d.num_classes
        self._ants = np.arange(a)
        self._max_stalls = max(1, int(np.ceil(params.optional_stall_budget * d.num_instructions)))

        # Persistent per-ant state (reset each iteration). Each array has
        # one trailing sentinel column (list slot cap, instruction n,
        # register R, class C) where idle lanes and padded slots write
        # instead of being compacted away; the attribute is the view of the
        # real columns, the _flat view addresses ``ant * (width + 1) + column``.
        def state(width, dtype):
            full = np.zeros((a, width + 1), dtype=dtype)
            return full[:, :width], full.reshape(-1), full[:, width]

        self.avail_ids, self._avail_ids_flat, avail_ids_s = state(cap, np.int32)
        self.avail_release, self._avail_release_flat, avail_release_s = state(cap, np.int32)
        self.pred_remaining, self._pred_remaining_flat, pred_remaining_s = state(n, np.int32)
        self.earliest, self._earliest_flat, earliest_s = state(n, np.int32)
        self.remaining_uses, self._remaining_uses_flat, remaining_uses_s = state(regs, np.int32)
        self.live, self._live_flat, live_s = state(regs, bool)
        self.current, self._current_flat, current_s = state(classes, np.int32)
        self.order_buf, self._order_flat, order_s = state(n, np.int32)
        self.cycles_buf, self._cycles_flat, cycles_s = state(n, np.int32)
        #: (array name, sentinel column, reset value). Every idle-lane or
        #: padded-slot write leaves the column at its reset value: removals
        #: copy -1 over -1, appends write -1 / 0, predecessor and use
        #: counters are decremented by 0 there (so they never reach 0 or 1),
        #: a release never exceeds INT32_MAX, only real constrained slots
        #: move a class counter, and an idle lane issues -1 at cycle 0.
        #: The sanitizer checks them after every step.
        self.sentinel_columns = (
            ("avail_ids", avail_ids_s, -1),
            ("avail_release", avail_release_s, 0),
            ("pred_remaining", pred_remaining_s, 1),
            ("earliest", earliest_s, np.iinfo(np.int32).max),
            ("remaining_uses", remaining_uses_s, 0),
            ("live", live_s, False),
            ("current", current_s, 0),
            ("order_buf", order_s, -1),
            ("cycles_buf", cycles_s, 0),
        )
        self._list_base = self._ants * (cap + 1)
        self._inst_base = self._ants * (n + 1)
        self._reg_base = self._ants * (regs + 1)
        self._class_base = self._ants * (classes + 1)
        self.avail_len = np.zeros(a, dtype=np.int32)
        self.peak = np.zeros((a, classes), dtype=np.int32)
        self.prev_inst = np.zeros(a, dtype=np.int32)
        self.scheduled = np.zeros(a, dtype=np.int32)
        self.active = np.zeros(a, dtype=bool)
        self.dead = np.zeros(a, dtype=bool)
        self.optional_stalls = np.zeros(a, dtype=np.int32)

        # Static per-launch assignments.
        self.heuristic_of_wavefront = policy.heuristic_assignment(2)
        self.heuristic_of_ant = np.repeat(self.heuristic_of_wavefront, self.wavefront_size)
        self.stall_wavefronts = policy.stall_wavefront_mask()
        self.stall_allowed_ant = np.repeat(self.stall_wavefronts, self.wavefront_size)
        # Lanes guided by LUC, per pass primary ("luc" for pass 1, "cp" for
        # pass 2): with heuristic diversity, assignment-1 wavefronts use the
        # other heuristic. None when no lane uses LUC.
        self._luc_lanes = {}
        for primary, luc in (("luc", self.heuristic_of_ant == 0), ("cp", self.heuristic_of_ant != 0)):
            self._luc_lanes[primary] = luc if luc.any() else None
        #: cp_eta ** beta: CP's heuristic term is static.
        self._cp_eta_beta = d.cp_eta ** HEURISTIC_WEIGHT
        self._slot_ops = (d.uses.shape[1] + d.defs.shape[1]) * 2.0

        # Launch-lifetime observability counters, exported through the
        # telemetry layer by the scheduler (kernel_launch events). Pure
        # observation: nothing here feeds back into selection, accounting
        # or the RNG stream.
        self.serialized_selection_waves = 0
        self.serialized_stall_waves = 0
        self.ready_peak = 0
        self.dead_ants_total = 0
        self.constructions_total = 0

        if self.sanitizer is not None:
            self.sanitizer.audit_layout(self)

        # Score rows are instruction-major, (n, ants), so each row operation
        # runs along the ant axis, the long contiguous one. Kill-preview
        # scratch: killable[r, a] says ant a's next use of r closes r's live
        # range (the sentinel register's row stays False).
        self._killable = np.zeros((regs + 1, a), dtype=bool)
        self._remaining_uses_rows = self._remaining_uses_flat.reshape(a, regs + 1).T
        self._live_rows = self._live_flat.reshape(a, regs + 1).T
        self._defs_per_class = d.defs_per_class.T[:, :, None].astype(np.int64)
        self._luc_base = d.luc_base[:, None]
        self._luc_height = d.luc_height[:, None]
        self._cp_eta_beta_rows = self._cp_eta_beta[:, None]
        #: The current pass-2 step's per-group closes and candidate gather
        #: index, computed by _candidate_excess and reused by _eta in the
        #: same step (every pass-2 step calls _candidate_excess first, on
        #: the same available lists; _reset clears it).
        self._preview: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- per-iteration reset ---------------------------------------------------

    def _reset(self) -> None:
        d = self.data
        self.avail_ids[:] = -1
        self.avail_release[:] = 0
        roots = d.roots
        self.avail_ids[:, : len(roots)] = roots[None, :]
        self.avail_len[:] = len(roots)
        self.pred_remaining[:] = d.pred_count[None, :]
        self.earliest[:] = 0
        self.remaining_uses[:] = d.total_use_counts[None, :]
        self.live[:] = False
        if len(d.live_in_ids):
            self.live[:, d.live_in_ids] = True
        self.current[:] = d.live_in_per_class[None, :]
        self.peak[:] = self.current
        self.order_buf[:] = -1
        self.cycles_buf[:] = 0
        for _name, column, value in self.sentinel_columns:
            column[:] = value
        self.prev_inst[:] = d.num_instructions  # virtual start row
        self.scheduled[:] = 0
        self.active[:] = True
        self.dead[:] = False
        self.optional_stalls[:] = 0
        self._preview = None

    # -- score computation -------------------------------------------------------

    def _kill_preview(self) -> np.ndarray:
        """Per-instruction count of live ranges each use-slot group would close.

        Returns ``(groups, n, ants)`` int8: for each class group of
        ``data.kill_cols`` (machine classes, then unconstrained registers),
        instruction and ant, the instruction's closers of that group (its
        uses that are not live-out and that it does not redefine) whose
        remaining use count is 1 and that are live.
        """
        d = self.data
        killable = self._killable
        np.equal(self._remaining_uses_rows, 1, out=killable)
        np.logical_and(killable, self._live_rows, out=killable)
        gathered = killable.take(d.kill_cols, axis=0).view(np.int8)
        # A short loop over slots: a .sum over a 2-3 long axis costs far
        # more than these few adds at this size.
        closes = gathered[:, 0]
        for slot in range(1, d.uses.shape[1]):
            closes = closes + gathered[:, slot]
        return closes

    def _gather_index(self, cand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ids (any valid id in masked columns) and their offsets
        into an ``(n, ants)`` score row."""
        safe = np.maximum(cand, 0)
        return safe, safe * self.num_ants + self._ants[:, None]

    def _eta(
        self, index: np.ndarray, safe: np.ndarray, closes: Optional[np.ndarray], primary: str
    ) -> np.ndarray:
        """Per-candidate ``eta ** HEURISTIC_WEIGHT`` for each ant's heuristic.

        ``primary`` is the pass's base heuristic (``"luc"`` for pass 1,
        ``"cp"`` for pass 2); with heuristic diversity on, wavefronts with
        assignment 1 use the other heuristic. LUC lanes score every
        instruction once per ant, then gather the candidates' entries.
        """
        d = self.data
        luc_lanes = self._luc_lanes[primary]
        if luc_lanes is None:
            return self._cp_eta_beta.take(safe)
        if closes is None:
            closes = self._kill_preview()
        total = closes[0]
        for group in range(1, closes.shape[0]):
            total = total + closes[group]
        luc_score = (total + self._luc_base) * d.score_scale + self._luc_height
        rows = np.maximum(1e-6, 1.0 + luc_score) ** HEURISTIC_WEIGHT
        if not luc_lanes.all():
            rows = np.where(luc_lanes, rows, self._cp_eta_beta_rows)
        return rows.take(index)

    def _scores(
        self, tau: np.ndarray, cand: np.ndarray, valid: np.ndarray, primary: str
    ) -> np.ndarray:
        """``tau[prev, c] * eta[c] ** beta`` per candidate column, 0 where not ``valid``.

        A pass-2 step reuses the closes and gather index its
        :meth:`_candidate_excess` computed over the same available lists.
        """
        if self._preview is not None:
            closes, safe, index = self._preview
        else:
            closes = None
            safe, index = self._gather_index(cand)
        tau_vals = tau.take((self.prev_inst * tau.shape[1])[:, None] + safe)
        return np.where(valid, tau_vals * self._eta(index, safe, closes, primary), 0.0)

    def _select(self, scores: np.ndarray, doers: np.ndarray) -> np.ndarray:
        """Pick a candidate column per ant (exploit argmax / explore roulette)."""
        exploit = self.policy.exploit_draw_streams(
            self.streams, self.params.exploitation_prob
        )
        if self.sanitizer is not None and self.policy.wavefront_level_choice:
            self.sanitizer.check_exploit_uniform(
                exploit, self.num_wavefronts, self.wavefront_size
            )
        sel = np.argmax(scores, axis=1)
        # Every ant draws its roulette value every step; the roulette itself
        # runs only when some lane explores (with wavefront-level choice,
        # most steps every lane exploits).
        draws = self.streams.uniform_ants()
        if not exploit.all():
            cum = np.cumsum(scores, axis=1)
            draws = draws * np.maximum(cum[:, -1], 1e-300)
            sel_explore = np.minimum(
                (cum <= draws[:, None]).sum(axis=1), scores.shape[1] - 1
            )
            sel = np.where(exploit, sel, sel_explore)
        # Divergence accounting: thread-level draws serialize the two
        # selection formulas whenever a wavefront holds both kinds of lane.
        if not self.policy.wavefront_level_choice:
            lanes = (exploit & doers).reshape(self.num_wavefronts, -1)
            lanes_other = (~exploit & doers).reshape(self.num_wavefronts, -1)
            both = lanes.any(axis=1) & lanes_other.any(axis=1)
            self._divergent_selection = both
            self.serialized_selection_waves += int(both.sum())
        else:
            self._divergent_selection = np.zeros(self.num_wavefronts, dtype=bool)
        return sel

    # -- state mutation ------------------------------------------------------------

    def _check_columns(self, name: str, mask: np.ndarray, cols: np.ndarray) -> None:
        """Sanitize mode: ``self.<name>[ant, cols]`` is in bounds where ``mask``.

        ``mask`` and ``cols`` are ``(ants,)`` or ``(slots, ants)``. Folded
        into a flat offset, a column of the row width would land in the
        sentinel column and one past it in the neighbouring ant's row, so
        each real column is checked against the real width before the write.
        """
        rows = np.nonzero(mask)[-1]  # the ant axis is the last one
        self.sanitizer.check_index(name, getattr(self, name).shape, rows, cols[mask])

    def _schedule_chosen(self, doers: np.ndarray, chosen: np.ndarray, cycle: int) -> None:
        """Apply the scheduling of ``chosen`` for ants where ``doers``.

        ``chosen`` is -1 for the other ants, as :meth:`_remove_from_avail`
        returns it. Every lane runs every update, like the paper's lockstep
        lanes: a non-doer issues the sentinel instruction n, and its writes
        and those of padded operand and successor slots land in the
        sentinel columns without changing them (see ``sentinel_columns``).
        Operand slots run in order, so a register an instruction uses twice
        is closed once; one instruction's successors are distinct, so the
        successor slots update at once.
        """
        d = self.data
        n, regs = d.num_instructions, d.num_registers
        picks = np.where(doers, chosen, n)
        uses = d.use_cols.take(picks, axis=1)
        defs = d.def_cols.take(picks, axis=1)
        succs = d.succ_cols.take(picks, axis=1)
        if self.sanitizer is not None:
            self._check_columns("order_buf", doers, self.scheduled)
            self._check_columns("cycles_buf", doers, chosen)
            self._check_columns("remaining_uses", uses < regs, uses)
            self._check_columns("live", defs < regs, defs)
            self._check_columns("pred_remaining", succs < n, succs)
        self._order_flat[self._inst_base + np.where(doers, self.scheduled, n)] = chosen
        self._cycles_flat[self._inst_base + picks] = doers * cycle
        self.scheduled += doers
        np.copyto(self.prev_inst, chosen, where=doers)

        remaining = self._remaining_uses_flat
        live = self._live_flat
        current = self._current_flat
        num_classes = d.num_classes
        # Kill-before-def pressure update (mirrors rp.tracker semantics).
        closers = d.closer_cols.take(picks, axis=1)
        use_class = d.reg_class_cols.take(uses)
        use_counted = use_class < num_classes
        use_at = self._reg_base + uses
        use_class_at = self._class_base + use_class
        use_real = uses < regs
        for slot in range(uses.shape[0]):
            at = use_at[slot]
            left = remaining.take(at) - use_real[slot]
            remaining[at] = left
            was_live = live.take(at)
            kill = (left == 0) & closers[slot] & was_live
            live[at] = was_live ^ kill
            at = use_class_at[slot]
            current[at] = current.take(at) - (kill & use_counted[slot])
        def_class = d.reg_class_cols.take(defs)
        def_counted = def_class < num_classes
        def_at = self._reg_base + defs
        def_class_at = self._class_base + def_class
        def_real = defs < regs
        for slot in range(defs.shape[0]):
            at = def_at[slot]
            was_live = live.take(at)
            fresh = def_real[slot] > was_live
            live[at] = was_live | fresh
            at = def_class_at[slot]
            current[at] = current.take(at) + (fresh & def_counted[slot])
        # Idle lanes' counters are unchanged since their last sample.
        np.maximum(self.peak, self.current, out=self.peak)
        # Dead defs (no uses, not live-out) die right after the peak sample.
        dies = d.def_dies.take(picks, axis=1)
        for slot in range(defs.shape[0]):
            at = def_at[slot]
            was_live = live.take(at)
            dead = (remaining.take(at) == 0) & dies[slot] & was_live
            live[at] = was_live ^ dead
            at = def_class_at[slot]
            current[at] = current.take(at) - (dead & def_counted[slot])

        # Release successors into the available list, in slot order.
        at = self._inst_base + succs
        release = np.maximum(
            self._earliest_flat.take(at), cycle + d.succ_lat_cols.take(picks, axis=1)
        )
        self._earliest_flat[at] = release
        left = self._pred_remaining_flat.take(at) - (succs < n)
        self._pred_remaining_flat[at] = left
        newly = left == 0
        rank = np.cumsum(newly, axis=0)
        pos = np.where(newly, self.avail_len + rank - 1, d.ready_capacity)
        if self.sanitizer is not None:
            self._check_columns("avail_ids", newly, pos)
        at = self._list_base + pos
        self._avail_ids_flat[at] = np.where(newly, succs, -1)
        self._avail_release_flat[at] = release * newly
        self.avail_len += rank[-1]

    def _remove_from_avail(self, doers: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """Swap-remove the selected column; returns the chosen instruction ids
        (-1 for non-doers, whose removal runs on the sentinel slot)."""
        if self.sanitizer is not None:
            self._check_columns("avail_ids", doers, sel)
            self._check_columns("avail_ids", doers, self.avail_len - 1)
        cap = self.data.ready_capacity
        at = self._list_base + np.where(doers, sel, cap)
        last = self._list_base + np.where(doers, self.avail_len - 1, cap)
        ids = self._avail_ids_flat
        release = self._avail_release_flat
        chosen = ids.take(at)
        ids[at] = ids.take(last)
        release[at] = release.take(last)
        ids[last] = -1
        self.avail_len -= doers
        return chosen

    # -- accounting helpers -----------------------------------------------------------

    def _wave_max(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per-wavefront max of ``values`` over lanes where ``mask``."""
        v = np.where(mask, values, 0)
        return v.reshape(self.num_wavefronts, -1).max(axis=1).astype(np.float64)

    def _charge_step(
        self,
        active: np.ndarray,
        scan: np.ndarray,
        doers: np.ndarray,
        chosen: np.ndarray,
        stalling: Optional[np.ndarray] = None,
    ) -> None:
        self._charge(self._step_charge(active, scan, doers, chosen, stalling))

    def _charge(self, charge: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """Add one step's per-wavefront ``(ops, words, allocations)``."""
        ops, words, allocations = charge
        self.accounting.charge_compute(ops)
        self.accounting.charge_memory(words)
        self.accounting.charge_alloc(allocations)

    def _step_charge(
        self,
        active: np.ndarray,
        scan: np.ndarray,
        doers: np.ndarray,
        chosen: np.ndarray,
        stalling: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One lockstep step's per-wavefront charge: wave-max lane work."""
        d = self.data
        waves = self.num_wavefronts
        scan_max = self._wave_max(scan, active)
        # Non-doers count the sentinel instruction's zero successors.
        succ = d.succ_count_cols.take(np.where(doers, chosen, d.num_instructions))
        succ_max = succ.reshape(waves, -1).max(axis=1).astype(np.float64)
        wave_active = active.reshape(waves, -1).any(axis=1)

        ops = np.where(
            wave_active,
            _BASE_STEP_OPS
            + scan_max * _SELECT_OPS_PER_CANDIDATE
            + succ_max * _UPDATE_OPS_PER_SUCCESSOR
            + self._slot_ops,
            0.0,
        )
        ops += scan_max * _SELECT_OPS_PER_CANDIDATE * self._divergent_selection
        if stalling is not None:
            wave_stall = stalling.reshape(waves, -1).any(axis=1)
            wave_sched = doers.reshape(waves, -1).any(axis=1)
            serialized = wave_stall & wave_sched
            ops += _STALL_PATH_OPS * serialized
            self.serialized_stall_waves += int(serialized.sum())
        words = np.where(
            wave_active,
            _STATE_WORDS_BASE
            + scan_max
            + succ_max
            + d.uses.shape[1]
            + d.defs.shape[1],
            0.0,
        )
        return ops, words, succ_max

    # -- cost evaluation ------------------------------------------------------------

    def _rp_costs(self) -> np.ndarray:
        """Per-ant scalar RP cost (vectorized rp.cost.rp_cost)."""
        d = self.data
        idx = np.minimum(self.peak, d.lut_width - 1)
        over = self.peak >= d.lut_width
        occ = np.where(over, 0, d.occ_lut[np.arange(d.num_classes)[None, :], idx]).min(axis=1)
        aprp = np.where(over, self.peak, d.aprp_lut[np.arange(d.num_classes)[None, :], idx]).sum(axis=1)
        return (d.max_occupancy - occ).astype(np.float64) * OCCUPANCY_WEIGHT + aprp

    def _peak_dict(self, ant: int) -> Dict[RegisterClass, int]:
        """Per-class peak, over the classes the region actually touches
        (matching :func:`repro.rp.liveness.peak_pressure`)."""
        return {cls: int(self.peak[ant, ci]) for ci, cls in self.data.peak_classes}

    # -- pass 1 -----------------------------------------------------------------------

    def run_rp_iteration(self, tau: np.ndarray) -> ColonyIterationResult:
        """All ants construct a latency-blind order; returns the RP winner."""
        d = self.data
        self._reset()
        self.constructions_total += self.num_ants
        cap = d.ready_capacity
        col = np.arange(cap)[None, :]
        for step in range(d.num_instructions):
            self.ready_peak = max(self.ready_peak, int(self.avail_len.max()))
            valid = col < self.avail_len[:, None]
            scores = self._scores(tau, self.avail_ids, valid, primary="luc")
            sel = self._select(scores, self.active)
            chosen = self._remove_from_avail(self.active, sel)
            scan = self.avail_len.astype(np.int64) + 1  # pre-removal size
            self._schedule_chosen(self.active, chosen, cycle=step)
            self._charge_step(self.active, scan, self.active, chosen)
            if self.sanitizer is not None:
                self.sanitizer.check_step(self)
        costs = self._rp_costs()
        winner = int(np.argmin(costs))
        if self.sanitizer is not None:
            self.sanitizer.check_iteration_end(self, winner)
        return ColonyIterationResult(
            winner_order=tuple(int(i) for i in self.order_buf[winner]),
            winner_cycles=None,
            winner_cost=float(costs[winner]),
            winner_peak=self._peak_dict(winner),
            num_alive=self.num_ants,
            steps=d.num_instructions,
        )

    # -- pass 2 -----------------------------------------------------------------------

    def _candidate_excess(
        self, any_cand: np.ndarray, target: np.ndarray
    ) -> np.ndarray:
        """Per-candidate worst per-class overshoot if scheduled now.

        ``excess[a, c] <= 0`` means candidate ``c`` keeps ant ``a`` within
        the pass-2 pressure target. Mirrors
        :meth:`repro.rp.tracker.PressureTracker.pressure_if_scheduled`
        (up to the redefinition of a live register: ``defs_per_class``
        counts that def as opening a range, the tracker does not). Every
        instruction's overshoot is computed once per ant, then each
        candidate column gathers its entry (masked columns gather any).
        """
        d = self.data
        closes = self._kill_preview()
        safe, index = self._gather_index(self.avail_ids)
        self._preview = (closes, safe, index)
        base = (self.current - target).T
        excess = self._defs_per_class[0] + base[0]
        excess -= closes[0]
        for ci in range(1, d.num_classes):
            after = self._defs_per_class[ci] + base[ci]
            after -= closes[ci]
            np.maximum(excess, after, out=excess)
        return excess.take(index)

    def _stall_decisions(
        self,
        considering: np.ndarray,
        ready_mask: np.ndarray,
        semi_mask: np.ndarray,
        excess: np.ndarray,
    ) -> np.ndarray:
        """Vectorized optional-stall heuristic (mirrors aco.stalls)."""
        if not considering.any():
            return np.zeros(self.num_ants, dtype=bool)
        big = 10**9
        ready_excess = np.where(ready_mask, excess, big).min(axis=1)
        semi_excess = np.where(semi_mask, excess, big).min(axis=1)
        helpful = considering & (ready_excess >= 0) & (semi_excess < ready_excess)
        budget = np.maximum(0.0, 1.0 - self.optional_stalls / self._max_stalls)
        prob = np.where(ready_excess > 0, budget, self.params.optional_stall_prob * budget)
        return helpful & (self.streams.uniform_ants() < prob)

    def _idle_cycles(self, cycles: int) -> None:
        """Run ``cycles`` pass-2 steps in which no active lane can issue.

        Such a step changes no ant's state. It considers no stall, so it
        draws no stall value, but it still draws the exploit decisions and
        the roulette values, and it still charges every active lane a
        stall. That charge is the same on every one of these steps, so it
        is computed once, then added step by step (float sums depend on
        their order). The sanitizer audits every step, as it would have.
        """
        self._divergent_selection = np.zeros(self.num_wavefronts, dtype=bool)
        charge = self._step_charge(
            self.active,
            np.zeros(self.num_ants, dtype=np.int64),
            np.zeros(self.num_ants, dtype=bool),
            np.full(self.num_ants, -1),
            stalling=self.active,
        )
        for _ in range(cycles):
            exploit = self.policy.exploit_draw_streams(
                self.streams, self.params.exploitation_prob
            )
            if self.sanitizer is not None and self.policy.wavefront_level_choice:
                self.sanitizer.check_exploit_uniform(
                    exploit, self.num_wavefronts, self.wavefront_size
                )
            self.streams.uniform_ants()
            self._charge(charge)
            if self.sanitizer is not None:
                self.sanitizer.check_step(self)

    def run_ilp_iteration(
        self,
        tau: np.ndarray,
        target_pressure: Dict[RegisterClass, int],
        max_length: int,
    ) -> ColonyIterationResult:
        """All ants construct cycle-accurate schedules under the RP target."""
        d = self.data
        self._reset()
        cap = d.ready_capacity
        col = np.arange(cap)[None, :]
        target = np.array(
            [target_pressure.get(cls, 10**9) for cls in d.classes], dtype=np.int64
        )
        finished = np.zeros(self.num_ants, dtype=bool)
        self.constructions_total += self.num_ants
        cycle = 0
        while self.active.any() and cycle <= max_length:
            self.ready_peak = max(self.ready_peak, int(self.avail_len.max()))
            valid = col < self.avail_len[:, None]
            released = self.avail_release <= cycle
            ready_mask = valid & released
            semi_mask = valid & ~released
            have_ready = ready_mask.any(axis=1)
            # No active lane can issue: every one takes a necessary stall
            # until the earliest pending release. After the first step no
            # active lane is finished or over the target, so nothing but
            # the draws and the charge changes until then; jump there.
            if cycle and not (self.active & have_ready).any():
                stop = int(
                    np.min(
                        self.avail_release,
                        where=semi_mask & self.active[:, None],
                        initial=max_length + 1,
                    )
                )
                self._idle_cycles(stop - cycle)
                cycle = stop
                continue
            have_semi = semi_mask.any(axis=1)

            # Candidates that would push the peak past the target doom the
            # ant with certainty (the peak never recedes), so selection is
            # restricted to *safe* candidates — a pure pruning of the
            # paper's terminate-on-violation rule.
            excess = self._candidate_excess(valid, target)
            safe_ready = ready_mask & (excess <= 0)
            has_safe = safe_ready.any(axis=1)

            budget_ok = self.optional_stalls < self._max_stalls
            stall_capable = self.stall_allowed_ant & budget_ok & have_semi
            ready_lanes = self.active & have_ready
            considering = ready_lanes & has_safe & stall_capable
            opt_stall = self._stall_decisions(considering, ready_mask, semi_mask, excess)
            # Ants whose every ready candidate violates must stall or die.
            stuck = ready_lanes & ~has_safe
            doomed = stuck & ~stall_capable
            self.dead |= doomed
            self.active &= ~doomed
            self.optional_stalls += opt_stall | (stuck & stall_capable)

            doers = ready_lanes & has_safe & ~opt_stall
            stalling = self.active & ~doers  # necessary + optional stalls

            scores = self._scores(tau, self.avail_ids, safe_ready, primary="cp")
            # Lanes with no safe ready candidate keep a zero score row; they
            # are excluded from doers so their (arbitrary) pick is discarded.
            sel = self._select(scores, doers)
            scan = np.count_nonzero(ready_mask, axis=1)
            chosen = self._remove_from_avail(doers, sel)
            self._schedule_chosen(doers, chosen, cycle=cycle)
            self._charge_step(self.active, scan, doers, chosen, stalling=stalling)
            if self.sanitizer is not None:
                self.sanitizer.check_step(self)

            # Safety net: the pruning above should make violations
            # impossible, but keep the paper's terminate-on-violation rule.
            violated = self.active & (self.peak > target[None, :]).any(axis=1)
            self.dead |= violated
            self.active &= ~violated

            done = self.active & (self.scheduled == d.num_instructions)
            finished |= done
            self.active &= ~done
            if self.policy.early_wavefront_termination and done.any():
                won = done.reshape(self.num_wavefronts, -1).any(axis=1)
                retire = np.repeat(won, self.wavefront_size)
                self.active &= ~retire
            cycle += 1

        self.dead_ants_total += int(self.dead.sum())
        if not finished.any():
            return ColonyIterationResult(
                winner_order=None,
                winner_cycles=None,
                winner_cost=float("inf"),
                winner_peak={},
                num_alive=0,
                steps=cycle,
            )
        lengths = self.cycles_buf.max(axis=1) + 1
        lengths = np.where(finished, lengths, np.iinfo(np.int32).max)
        winner = int(np.argmin(lengths))
        if self.sanitizer is not None:
            self.sanitizer.check_iteration_end(self, winner)
        order = tuple(int(i) for i in self.order_buf[winner])
        cycles = tuple(int(c) for c in self.cycles_buf[winner])
        return ColonyIterationResult(
            winner_order=order,
            winner_cycles=cycles,
            winner_cost=float(lengths[winner]),
            winner_peak=self._peak_dict(winner),
            num_alive=int(finished.sum()),
            steps=cycle,
        )
