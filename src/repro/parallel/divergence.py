"""The thread-divergence policy of Section V-B.

Bundles the four divergence optimizations as explicit, individually
togglable decisions (Table 4.b ablates them as a group, Table 6 sweeps the
stall-wavefront fraction):

1. **wavefront-level explore/exploit** — one draw per wavefront per step
   instead of one per thread, so the two selection formulas never serialize
   within a wavefront;
2. **stall-wavefront fraction** — only this fraction of wavefronts may
   insert optional stalls in pass 2 (the paper's best value: 25%);
3. **early wavefront termination** — a wavefront stops as soon as one of
   its lanes completes a valid schedule (no other lane can win the
   iteration, since they would finish later and thus longer);
4. **heuristic diversity** — wavefront group ``g`` is guided by heuristic
   ``g mod len(heuristics)``, keeping behaviour uniform inside a wavefront
   while still exploring differently across wavefronts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import GPUParams


@dataclass(frozen=True)
class DivergencePolicy:
    """Resolved per-launch divergence decisions."""

    wavefront_level_choice: bool
    stall_wavefront_fraction: float
    early_wavefront_termination: bool
    heuristic_diversity: bool
    num_wavefronts: int
    wavefront_size: int

    @classmethod
    def from_params(cls, gpu: GPUParams, wavefront_size: int) -> "DivergencePolicy":
        """The launch's policy; a block is one wavefront of the device's
        ``wavefront_size`` lanes."""
        return cls(
            wavefront_level_choice=gpu.wavefront_level_choice,
            stall_wavefront_fraction=gpu.stall_wavefront_fraction,
            early_wavefront_termination=gpu.early_wavefront_termination,
            heuristic_diversity=gpu.heuristic_diversity,
            num_wavefronts=gpu.wavefronts,
            wavefront_size=wavefront_size,
        )

    @property
    def num_ants(self) -> int:
        return self.num_wavefronts * self.wavefront_size

    def stall_wavefront_mask(self) -> np.ndarray:
        """Which wavefronts may insert optional stalls (evenly spread)."""
        allowed = int(round(self.stall_wavefront_fraction * self.num_wavefronts))
        mask = np.zeros(self.num_wavefronts, dtype=bool)
        if allowed <= 0:
            return mask
        stride = self.num_wavefronts / allowed
        positions = (np.arange(allowed) * stride).astype(int)
        mask[np.clip(positions, 0, self.num_wavefronts - 1)] = True
        return mask

    def heuristic_assignment(self, num_heuristics: int) -> np.ndarray:
        """Heuristic index per wavefront (all zeros when diversity is off)."""
        if not self.heuristic_diversity or num_heuristics <= 1:
            return np.zeros(self.num_wavefronts, dtype=np.int32)
        return (np.arange(self.num_wavefronts) % num_heuristics).astype(np.int32)

    def exploit_draw_streams(self, streams, q0: float) -> np.ndarray:
        """Per-ant exploit decisions drawn from per-ant RNG streams.

        Wavefront-level: the wavefront leader's (lane 0) stream decides for
        all its lanes. Thread-level: every ant draws from its own stream.
        The draw order is per-stream, so the scalar and vectorized engines
        consume identical randomness (see :mod:`repro.parallel.rng`).
        """
        if self.wavefront_level_choice:
            per_wave = streams.uniform_wavefront_leaders(
                self.num_wavefronts, self.wavefront_size
            )
            return np.repeat(per_wave < q0, self.wavefront_size)
        return streams.uniform_ants() < q0
