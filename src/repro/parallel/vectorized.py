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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.sanitizer import ColonySanitizer
from ..config import ACOParams
from ..gpusim.kernel import KernelAccounting
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
        #: Per-ant spawn-indexed RNG streams (accepts a seed, a Generator,
        #: or a prebuilt stream set — see repro.parallel.rng).
        self.streams = AntRngStreams.coerce(rng, self.num_ants)

        d = data
        a = self.num_ants
        self._ants = np.arange(a)
        self._max_stalls = max(1, int(np.ceil(params.optional_stall_budget * d.num_instructions)))

        # Persistent per-ant state (reset each iteration).
        self.avail_ids = np.zeros((a, d.ready_capacity), dtype=np.int32)
        self.avail_release = np.zeros((a, d.ready_capacity), dtype=np.int32)
        self.avail_len = np.zeros(a, dtype=np.int32)
        self.pred_remaining = np.zeros((a, d.num_instructions), dtype=np.int32)
        self.earliest = np.zeros((a, d.num_instructions), dtype=np.int32)
        self.remaining_uses = np.zeros((a, d.num_registers), dtype=np.int32)
        self.live = np.zeros((a, d.num_registers), dtype=bool)
        self.current = np.zeros((a, d.num_classes), dtype=np.int32)
        self.peak = np.zeros((a, d.num_classes), dtype=np.int32)
        self.order_buf = np.full((a, d.num_instructions), -1, dtype=np.int32)
        self.cycles_buf = np.zeros((a, d.num_instructions), dtype=np.int32)
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

        # Flat views of the per-ant state that _schedule_chosen and
        # _remove_from_avail address as ``ant * width + column``.
        self._avail_ids_flat = self.avail_ids.reshape(-1)
        self._avail_release_flat = self.avail_release.reshape(-1)
        self._pred_remaining_flat = self.pred_remaining.reshape(-1)
        self._earliest_flat = self.earliest.reshape(-1)
        self._remaining_uses_flat = self.remaining_uses.reshape(-1)
        self._live_flat = self.live.reshape(-1)
        self._current_flat = self.current.reshape(-1)
        self._order_flat = self.order_buf.reshape(-1)
        self._cycles_flat = self.cycles_buf.reshape(-1)

        # Kill-preview scratch: killable[a, r] says ant a's next use of r
        # closes r's live range; the last column is the kill table's
        # sentinel and stays False. One flat take through
        # data.kill_table reads it for every candidate use slot.
        self._killable = np.zeros((a, d.num_registers + 1), dtype=bool)
        self._killable_regs = self._killable[:, : d.num_registers]
        self._kill_base = (self._ants * (d.num_registers + 1))[:, None, None]
        self._not_live_out = ~d.live_out_mask
        #: The current pass-2 step's per-group closes, computed by
        #: _candidate_excess and reused by _eta in the same step (every
        #: pass-2 step calls _candidate_excess first; _reset clears it).
        self._preview: Optional[List[np.ndarray]] = None

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
        self.prev_inst[:] = d.num_instructions  # virtual start row
        self.scheduled[:] = 0
        self.active[:] = True
        self.dead[:] = False
        self.optional_stalls[:] = 0
        self._preview = None

    # -- score computation -------------------------------------------------------

    def _kill_preview(self, safe: np.ndarray) -> List[np.ndarray]:
        """Per-candidate count of live ranges each use-slot group would close.

        Returns one ``(ants, cols)`` int8 array per class group of
        ``data.kill_table`` (machine classes, then unconstrained registers):
        the candidate's closers of that group (its uses that are not
        live-out and that it does not redefine) whose remaining use count
        is 1 and that are live.
        """
        d = self.data
        killable = self._killable_regs
        np.equal(self.remaining_uses, 1, out=killable)
        np.logical_and(killable, self.live, out=killable)
        offsets = d.kill_table.take(safe, axis=0)
        offsets += self._kill_base
        gathered = self._killable.reshape(-1).take(offsets).view(np.int8)
        slots = d.uses.shape[1]
        closes = []
        for group in range(d.num_classes + 1):
            # A short loop over slots: a .sum over a 2-3 long axis costs
            # far more than these few adds at this size.
            total = gathered[:, :, group * slots]
            for slot in range(1, slots):
                total = total + gathered[:, :, group * slots + slot]
            closes.append(total)
        return closes

    def _eta(self, safe: np.ndarray, primary: str) -> np.ndarray:
        """Per-candidate eta for each ant's assigned heuristic.

        ``safe`` holds the candidate ids (0 in invalid columns).
        ``primary`` is the pass's base heuristic (``"luc"`` for pass 1,
        ``"cp"`` for pass 2); with heuristic diversity on, wavefronts with
        assignment 1 use the other heuristic.
        """
        d = self.data
        cp_eta = d.cp_eta.take(safe)
        need_luc = primary == "luc" or bool(self.heuristic_of_ant.any())
        if not need_luc:
            return cp_eta
        # Pass 2 previewed every available candidate this step already;
        # the columns scored here (the safe ready ones) are a subset, and
        # _scores zeroes the others.
        groups = self._preview if self._preview is not None else self._kill_preview(safe)
        closes = groups[0]
        for group in groups[1:]:
            closes = closes + group
        luc_score = (closes + d.luc_base.take(safe)) * d.score_scale + d.luc_height.take(safe)
        luc_eta = np.maximum(1e-6, 1.0 + luc_score)
        if primary == "luc":
            return np.where((self.heuristic_of_ant == 0)[:, None], luc_eta, cp_eta)
        return np.where((self.heuristic_of_ant == 0)[:, None], cp_eta, luc_eta)

    def _scores(
        self, tau: np.ndarray, cand: np.ndarray, valid: np.ndarray, primary: str
    ) -> np.ndarray:
        safe = np.where(valid, cand, 0)
        tau_vals = tau.take(self.prev_inst[:, None] * tau.shape[1] + safe)
        eta = self._eta(safe, primary)
        scores = tau_vals * eta**self.params.heuristic_weight
        scores[~valid] = 0.0
        return scores

    def _select(self, scores: np.ndarray, doers: np.ndarray) -> np.ndarray:
        """Pick a candidate column per ant (exploit argmax / explore roulette)."""
        exploit = self.policy.exploit_draw_streams(
            self.streams, self.params.exploitation_prob
        )
        if self.sanitizer is not None and self.policy.wavefront_level_choice:
            self.sanitizer.check_exploit_uniform(
                exploit, self.num_wavefronts, self.wavefront_size
            )
        sel_exploit = np.argmax(scores, axis=1)
        cum = np.cumsum(scores, axis=1)
        total = cum[:, -1]
        draws = self.streams.uniform_ants() * np.maximum(total, 1e-300)
        sel_explore = np.minimum(
            (cum <= draws[:, None]).sum(axis=1), scores.shape[1] - 1
        )
        sel = np.where(exploit, sel_exploit, sel_explore)
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

    def _offsets(self, name: str, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Offsets of ``self.<name>[rows, cols]`` into its flat view.

        Folding ``(ant, column)`` into one offset turns an out-of-row column
        into a valid-looking cell of a neighbouring ant, so sanitize mode
        checks the pair first.
        """
        array = getattr(self, name)
        if self.sanitizer is not None:
            self.sanitizer.check_index(name, array.shape, rows, cols)
        return rows * array.shape[1] + cols

    def _schedule_chosen(self, doers: np.ndarray, chosen: np.ndarray, cycle: int) -> None:
        """Apply the scheduling of ``chosen`` for ants where ``doers``.

        Per-ant state is read and written through flat ``ant * width +
        column`` offsets. Each per-slot pass touches every ant at most once,
        and the slots run in order, so a register an instruction uses twice
        is closed once.
        """
        d = self.data
        ants = self._ants[doers]
        picks = chosen[doers]
        self._order_flat[self._offsets("order_buf", ants, self.scheduled[ants])] = picks
        self._cycles_flat[self._offsets("cycles_buf", ants, picks)] = cycle
        self.scheduled[ants] += 1
        self.prev_inst[ants] = picks

        remaining = self._remaining_uses_flat
        live = self._live_flat
        current = self._current_flat
        # Kill-before-def pressure update (mirrors rp.tracker semantics).
        for slot in range(d.uses.shape[1]):
            u = d.uses[picks, slot]
            m = u >= 0
            au, uu = ants[m], u[m]
            at = self._offsets("remaining_uses", au, uu)
            left = remaining[at] - 1
            remaining[at] = left
            kill = (left == 0) & d.closer_slots[picks[m], slot] & live[at]
            live[at[kill]] = False
            cls = d.reg_class[uu[kill]]
            cm = cls >= 0
            current[self._offsets("current", au[kill][cm], cls[cm])] -= 1
        def_slots = []
        for slot in range(d.defs.shape[1]):
            dd = d.defs[picks, slot]
            m = dd >= 0
            ad, rd = ants[m], dd[m]
            at = self._offsets("live", ad, rd)
            def_slots.append((ad, rd, at))
            fresh = ~live[at]
            live[at[fresh]] = True
            cls = d.reg_class[rd[fresh]]
            cm = cls >= 0
            current[self._offsets("current", ad[fresh][cm], cls[cm])] += 1
        self.peak[ants] = np.maximum(self.peak[ants], self.current[ants])
        # Dead defs (no uses, not live-out) die right after the peak sample.
        for ad, rd, at in def_slots:
            dead_def = (remaining[at] == 0) & self._not_live_out[rd] & live[at]
            live[at[dead_def]] = False
            cls = d.reg_class[rd[dead_def]]
            cm = cls >= 0
            current[self._offsets("current", ad[dead_def][cm], cls[cm])] -= 1

        # Release successors into the available list.
        earliest = self._earliest_flat
        pred_remaining = self._pred_remaining_flat
        for slot in range(d.succ_ids.shape[1]):
            s = d.succ_ids[picks, slot]
            m = s >= 0
            asucc, ss = ants[m], s[m]
            at = self._offsets("earliest", asucc, ss)
            release = np.maximum(earliest[at], cycle + d.succ_lat[picks[m], slot])
            earliest[at] = release
            left = pred_remaining[at] - 1
            pred_remaining[at] = left
            newly = left == 0
            an = asucc[newly]
            pos = self._offsets("avail_ids", an, self.avail_len[an])
            self._avail_ids_flat[pos] = ss[newly]
            self._avail_release_flat[pos] = release[newly]
            self.avail_len[an] += 1

    def _remove_from_avail(self, doers: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """Swap-remove the selected column; returns the chosen instruction ids."""
        ants = self._ants[doers]
        at = self._offsets("avail_ids", ants, sel[doers])
        last = self._offsets("avail_ids", ants, self.avail_len[ants] - 1)
        ids = self._avail_ids_flat
        release = self._avail_release_flat
        chosen_ids = ids[at]
        ids[at] = ids[last]
        release[at] = release[last]
        ids[last] = -1
        self.avail_len[ants] -= 1
        chosen = np.full(self.num_ants, -1, dtype=np.int32)
        chosen[doers] = chosen_ids
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
        d = self.data
        scan_max = self._wave_max(scan, active)
        succ = np.zeros(self.num_ants, dtype=np.int64)
        succ[doers] = d.succ_count[chosen[doers]]
        succ_max = self._wave_max(succ, doers)
        wave_active = active.reshape(self.num_wavefronts, -1).any(axis=1)

        ops = np.where(
            wave_active,
            _BASE_STEP_OPS
            + scan_max * _SELECT_OPS_PER_CANDIDATE
            + succ_max * _UPDATE_OPS_PER_SUCCESSOR
            + (d.uses.shape[1] + d.defs.shape[1]) * 2.0,
            0.0,
        )
        ops += scan_max * _SELECT_OPS_PER_CANDIDATE * self._divergent_selection
        if stalling is not None:
            wave_stall = stalling.reshape(self.num_wavefronts, -1).any(axis=1)
            wave_sched = doers.reshape(self.num_wavefronts, -1).any(axis=1)
            serialized = wave_stall & wave_sched
            ops += _STALL_PATH_OPS * serialized
            self.serialized_stall_waves += int(serialized.sum())
        self.accounting.charge_compute(ops)

        words = np.where(
            wave_active,
            _STATE_WORDS_BASE
            + scan_max
            + succ_max
            + d.uses.shape[1]
            + d.defs.shape[1],
            0.0,
        )
        self.accounting.charge_memory(words)
        self.accounting.charge_alloc(succ_max)

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
        counts that def as opening a range, the tracker does not).
        """
        d = self.data
        safe = np.where(any_cand, self.avail_ids, 0)
        closes = self._kill_preview(safe)
        self._preview = closes
        excess = np.full(safe.shape, -(10**9), dtype=np.int64)
        for ci in range(d.num_classes):
            after = self.current[:, ci : ci + 1] + d.defs_per_class[:, ci].take(safe) - closes[ci]
            excess = np.maximum(excess, after - target[ci])
        return excess

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
            ready_mask = valid & (self.avail_release <= cycle)
            semi_mask = valid & (self.avail_release > cycle)
            have_ready = ready_mask.any(axis=1)
            have_semi = semi_mask.any(axis=1)

            # Candidates that would push the peak past the target doom the
            # ant with certainty (the peak never recedes), so selection is
            # restricted to *safe* candidates — a pure pruning of the
            # paper's terminate-on-violation rule.
            excess = self._candidate_excess(ready_mask | semi_mask, target)
            safe_ready = ready_mask & (excess <= 0)
            has_safe = safe_ready.any(axis=1)

            budget_ok = self.optional_stalls < self._max_stalls
            stall_capable = self.stall_allowed_ant & budget_ok & have_semi
            considering = self.active & have_ready & has_safe & stall_capable
            opt_stall = self._stall_decisions(considering, ready_mask, semi_mask, excess)
            # Ants whose every ready candidate violates must stall or die.
            forced_stall = self.active & have_ready & ~has_safe & stall_capable
            doomed = self.active & have_ready & ~has_safe & ~stall_capable
            self.dead |= doomed
            self.active &= ~doomed
            stalls = opt_stall | forced_stall
            self.optional_stalls[stalls] += 1

            doers = self.active & have_ready & has_safe & ~opt_stall
            stalling = self.active & ~doers  # necessary + optional stalls

            scores = self._scores(tau, self.avail_ids, safe_ready, primary="cp")
            # Lanes with no safe ready candidate keep a zero score row; they
            # are excluded from doers so their (arbitrary) pick is discarded.
            sel = self._select(scores, doers)
            scan = ready_mask.sum(axis=1).astype(np.int64)
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
