"""The scalar per-ant reference engine (``backend="loop"``).

:class:`LoopColony` constructs each ant with explicit Python loops — one
ant at a time, one ready-list slot at a time — exactly the control flow a
naive one-thread-per-ant GPU kernel would execute with full divergence.
It shares the iteration drivers, state arrays, reset/cost logic and the
per-ant RNG streams with :class:`~repro.parallel.vectorized.VectorizedColony`
and overrides only the per-step primitives, which keeps the two backends'
*semantics* aligned by construction while making every per-ant decision
individually followable.

Two properties make it the differential-testing reference:

* **Bit-identical decisions.** Each override performs the same IEEE-754
  operations on one ant's row that the vectorized engine performs on the
  whole population array (elementwise float ops, ``cumsum``, first-max
  ``argmax`` are all row-independent), and draws from the same per-ant
  stream in the same per-stream order (see :mod:`repro.parallel.rng`).
  ``tests/test_differential.py`` asserts the resulting schedules equal the
  vectorized backend's bit for bit.

* **Divergent cost model.** The loop engine charges the *unoptimized*
  kernel's cost: every lane's work is serialized within its wavefront
  (sum over lanes, via ``KernelAccounting.serialize_lanes``) instead of
  running in lockstep (max over lanes). The committed
  ``BENCH_backend.json`` baseline quantifies the resulting gap — the
  paper's Section V argument, reproduced as a measurement.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..heuristics.base import HEURISTIC_WEIGHT
from .vectorized import (
    _BASE_STEP_OPS,
    _SELECT_OPS_PER_CANDIDATE,
    _STALL_PATH_OPS,
    _STATE_WORDS_BASE,
    _UPDATE_OPS_PER_SUCCESSOR,
    VectorizedColony,
)


class LoopColony(VectorizedColony):
    """Scalar per-ant construction with serialized-lane cost accounting."""

    backend_name = "loop"

    # -- score computation (one ant row at a time) ---------------------------

    def _eta_row(self, ant: int, cand: np.ndarray, valid: np.ndarray, primary: str) -> np.ndarray:
        d = self.data
        safe = np.where(valid, cand, 0)
        cp_eta = 1.0 + d.heights[safe]
        use_luc = (primary == "luc") == (self.heuristic_of_ant[ant] == 0)
        if not use_luc:
            return cp_eta
        closes = np.zeros(cand.shape, dtype=np.float64)
        for slot in range(d.uses.shape[1]):
            u = d.uses[safe, slot]
            m = valid & d.closer_slots[safe, slot]
            um = np.where(m, u, 0)
            pred_kill = m & (self.remaining_uses[ant, um] == 1) & self.live[ant, um]
            closes += pred_kill
        net = closes - d.num_defs[safe]
        luc_score = (net + d.num_uses[safe] + 1.0) * d.score_scale + d.heights[safe] / d.score_scale
        return np.maximum(1e-6, 1.0 + luc_score)

    def _scores(
        self, tau: np.ndarray, cand: np.ndarray, valid: np.ndarray, primary: str
    ) -> np.ndarray:
        scores = np.zeros((self.num_ants, cand.shape[1]), dtype=np.float64)
        for ant in range(self.num_ants):
            row_valid = valid[ant]
            safe = np.where(row_valid, cand[ant], 0)
            tau_vals = tau[self.prev_inst[ant], safe]
            eta = self._eta_row(ant, cand[ant], row_valid, primary)
            row = tau_vals * eta**HEURISTIC_WEIGHT
            row[~row_valid] = 0.0
            scores[ant] = row
        return scores

    def _select(self, scores: np.ndarray, doers: np.ndarray) -> np.ndarray:
        q0 = self.params.exploitation_prob
        exploit = np.zeros(self.num_ants, dtype=bool)
        if self.policy.wavefront_level_choice:
            for w in range(self.num_wavefronts):
                draw = self.streams.uniform_ant(w * self.wavefront_size)
                lo = w * self.wavefront_size
                exploit[lo : lo + self.wavefront_size] = draw < q0
        else:
            for ant in range(self.num_ants):
                exploit[ant] = self.streams.uniform_ant(ant) < q0
        if self.sanitizer is not None and self.policy.wavefront_level_choice:
            self.sanitizer.check_exploit_uniform(
                exploit, self.num_wavefronts, self.wavefront_size
            )
        sel = np.zeros(self.num_ants, dtype=np.int64)
        for ant in range(self.num_ants):
            # Every ant burns its roulette draw every step — like a
            # masked-off GPU lane, and like the vectorized batch draw.
            draw = self.streams.uniform_ant(ant)
            row = scores[ant]
            if exploit[ant]:
                sel[ant] = int(np.argmax(row))
            else:
                cum = np.cumsum(row)
                total = cum[-1]
                scaled = draw * max(total, 1e-300)
                sel[ant] = min(int((cum <= scaled).sum()), row.shape[0] - 1)
        # Divergence counters are a property of the decisions, not of the
        # engine, so both backends report the same values.
        if not self.policy.wavefront_level_choice:
            lanes = (exploit & doers).reshape(self.num_wavefronts, -1)
            lanes_other = (~exploit & doers).reshape(self.num_wavefronts, -1)
            both = lanes.any(axis=1) & lanes_other.any(axis=1)
            self._divergent_selection = both
            self.serialized_selection_waves += int(both.sum())
        else:
            self._divergent_selection = np.zeros(self.num_wavefronts, dtype=bool)
        return sel

    # -- state mutation ------------------------------------------------------

    def _check(self, name: str, ant: int, col: int) -> None:
        """In sanitize mode, bounds-check ``self.<name>[ant, col]``."""
        if self.sanitizer is not None:
            self.sanitizer.check_index(name, getattr(self, name).shape, ant, col)

    def _schedule_chosen(self, doers: np.ndarray, chosen: np.ndarray, cycle: int) -> None:
        d = self.data
        for ant in range(self.num_ants):
            if not doers[ant]:
                continue
            pick = int(chosen[ant])
            self._check("order_buf", ant, self.scheduled[ant])
            self._check("cycles_buf", ant, pick)
            self.order_buf[ant, self.scheduled[ant]] = pick
            self.cycles_buf[ant, pick] = cycle
            self.scheduled[ant] += 1
            self.prev_inst[ant] = pick

            for slot in range(d.uses.shape[1]):
                u = int(d.uses[pick, slot])
                if u < 0:
                    continue
                self.remaining_uses[ant, u] -= 1
                if (
                    self.remaining_uses[ant, u] == 0
                    and d.closer_slots[pick, slot]
                    and self.live[ant, u]
                ):
                    self.live[ant, u] = False
                    cls = int(d.reg_class[u])
                    if cls >= 0:
                        self.current[ant, cls] -= 1
            for slot in range(d.defs.shape[1]):
                r = int(d.defs[pick, slot])
                if r < 0:
                    continue
                if not self.live[ant, r]:
                    self.live[ant, r] = True
                    cls = int(d.reg_class[r])
                    if cls >= 0:
                        self.current[ant, cls] += 1
            self.peak[ant] = np.maximum(self.peak[ant], self.current[ant])
            for slot in range(d.defs.shape[1]):
                r = int(d.defs[pick, slot])
                if r < 0:
                    continue
                if (
                    self.remaining_uses[ant, r] == 0
                    and not d.live_out_mask[r]
                    and self.live[ant, r]
                ):
                    self.live[ant, r] = False
                    cls = int(d.reg_class[r])
                    if cls >= 0:
                        self.current[ant, cls] -= 1

            for slot in range(d.succ_ids.shape[1]):
                s = int(d.succ_ids[pick, slot])
                if s < 0:
                    continue
                release = cycle + int(d.succ_lat[pick, slot])
                if release > self.earliest[ant, s]:
                    self.earliest[ant, s] = release
                self.pred_remaining[ant, s] -= 1
                if self.pred_remaining[ant, s] == 0:
                    pos = int(self.avail_len[ant])
                    self._check("avail_ids", ant, pos)
                    self.avail_ids[ant, pos] = s
                    self.avail_release[ant, pos] = self.earliest[ant, s]
                    self.avail_len[ant] += 1

    def _remove_from_avail(self, doers: np.ndarray, sel: np.ndarray) -> np.ndarray:
        chosen = np.full(self.num_ants, -1, dtype=np.int32)
        for ant in range(self.num_ants):
            if not doers[ant]:
                continue
            col = int(sel[ant])
            last = int(self.avail_len[ant]) - 1
            self._check("avail_ids", ant, col)
            self._check("avail_ids", ant, last)
            chosen[ant] = int(self.avail_ids[ant, col])
            self.avail_ids[ant, col] = self.avail_ids[ant, last]
            self.avail_release[ant, col] = self.avail_release[ant, last]
            self.avail_ids[ant, last] = -1
            self.avail_len[ant] -= 1
        return chosen

    # -- pass 2 primitives ---------------------------------------------------

    def _candidate_excess(
        self, any_cand: np.ndarray, target: np.ndarray
    ) -> np.ndarray:
        d = self.data
        excess = np.full(
            (self.num_ants, any_cand.shape[1]), -(10**9), dtype=np.int64
        )
        for ant in range(self.num_ants):
            m_any = any_cand[ant]
            safe = np.where(m_any, self.avail_ids[ant], 0)
            row_ex = excess[ant]
            for ci in range(d.num_classes):
                closes = np.zeros(safe.shape, dtype=np.int64)
                for slot in range(d.uses.shape[1]):
                    u = d.uses[safe, slot]
                    m = m_any & (u >= 0) & (d.reg_class[np.where(u >= 0, u, 0)] == ci)
                    um = np.where(m, u, 0)
                    pred_kill = (
                        m
                        & d.closer_slots[safe, slot]
                        & (self.remaining_uses[ant, um] == 1)
                        & self.live[ant, um]
                    )
                    closes += pred_kill
                after = self.current[ant, ci] + d.defs_per_class[safe, ci] - closes
                row_ex = np.maximum(row_ex, after - target[ci])
            excess[ant] = row_ex
        return excess

    def _stall_decisions(
        self,
        considering: np.ndarray,
        ready_mask: np.ndarray,
        semi_mask: np.ndarray,
        excess: np.ndarray,
    ) -> np.ndarray:
        if not considering.any():
            return np.zeros(self.num_ants, dtype=bool)
        big = 10**9
        out = np.zeros(self.num_ants, dtype=bool)
        for ant in range(self.num_ants):
            draw = self.streams.uniform_ant(ant)
            ready_excess = np.where(ready_mask[ant], excess[ant], big).min()
            semi_excess = np.where(semi_mask[ant], excess[ant], big).min()
            helpful = (
                bool(considering[ant])
                and ready_excess >= 0
                and semi_excess < ready_excess
            )
            budget = max(0.0, 1.0 - self.optional_stalls[ant] / self._max_stalls)
            if ready_excess > 0:
                prob = budget
            else:
                prob = self.params.optional_stall_prob * budget
            out[ant] = helpful and draw < prob
        return out

    # -- accounting: the divergent serialized-lane model ---------------------

    def _step_charge(
        self,
        active: np.ndarray,
        scan: np.ndarray,
        doers: np.ndarray,
        chosen: np.ndarray,
        stalling: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every lane's work, serialized within its wavefront.

        Same per-lane operation counts as the vectorized engine, but summed
        over lanes (``KernelAccounting.serialize_lanes``) instead of
        wave-maxed: a divergent kernel executes one lane's step while the
        other 63 wait.
        """
        d = self.data
        lane_scan = np.where(active, scan, 0).astype(np.float64)
        succ = np.zeros(self.num_ants, dtype=np.float64)
        succ[doers] = d.succ_count[chosen[doers]]
        per_inst = (d.uses.shape[1] + d.defs.shape[1]) * 2.0

        ops = np.where(
            active,
            _BASE_STEP_OPS
            + lane_scan * _SELECT_OPS_PER_CANDIDATE
            + succ * _UPDATE_OPS_PER_SUCCESSOR
            + per_inst,
            0.0,
        )
        if stalling is not None:
            ops = ops + _STALL_PATH_OPS * stalling
            wave_stall = stalling.reshape(self.num_wavefronts, -1).any(axis=1)
            wave_sched = doers.reshape(self.num_wavefronts, -1).any(axis=1)
            self.serialized_stall_waves += int((wave_stall & wave_sched).sum())
        words = np.where(
            active,
            _STATE_WORDS_BASE
            + lane_scan
            + succ
            + d.uses.shape[1]
            + d.defs.shape[1],
            0.0,
        )
        lanes = self.accounting.serialize_lanes
        waves = self.num_wavefronts
        return (
            lanes(ops.reshape(waves, -1)),
            lanes(words.reshape(waves, -1)),
            lanes(succ.reshape(waves, -1)),
        )
