"""Kernel-side and transfer-side cost accounting.

:class:`KernelAccounting` accumulates cycles per wavefront while the colony
executes; the colony reports abstract operations (compute ops, memory
words, allocations) and the accounting applies the device's coalescing and
divergence rules. :class:`TransferAccounting` models the host<->device
copies of Section V-A, where consolidating many small copies into one
batched copy is one of the headline memory optimizations.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import GPUSimError
from ..obs.report import attribute_seconds
from .device import GPUDevice

ArrayOrFloat = Union[np.ndarray, float, int]


class KernelAccounting:
    """Per-wavefront cycle accumulation for one kernel launch.

    Besides the per-wavefront totals that determine the launch's execution
    time, the accounting keeps a public per-*category* breakdown —
    ``compute_cycles``, ``memory_cycles``, ``alloc_cycles`` and
    ``uniform_cycles``, each summed across all wavefronts — which the
    telemetry layer exports on ``kernel_launch`` events so profiles can
    attribute simulated time to ALU work, memory traffic, dynamic
    allocation and synchronization.
    """

    def __init__(self, device: GPUDevice, num_wavefronts: int, coalesced: bool,
                 dynamic_alloc: bool = False):
        if num_wavefronts < 1:
            raise GPUSimError("kernel needs at least one wavefront")
        self.device = device
        self.num_wavefronts = num_wavefronts
        self.coalesced = coalesced
        self.dynamic_alloc = dynamic_alloc
        self.wavefront_cycles = np.zeros(num_wavefronts, dtype=np.float64)
        #: Cycles charged per category, summed across wavefronts.
        self.compute_cycles = 0.0
        self.memory_cycles = 0.0
        self.alloc_cycles = 0.0
        self.uniform_cycles = 0.0

    def _total(self, charged) -> float:
        """Sum a per-wavefront charge (scalar charges hit every wavefront)."""
        charged = np.asarray(charged, dtype=np.float64)
        if charged.ndim == 0:
            return float(charged) * self.num_wavefronts
        return float(charged.sum())

    # -- charging primitives (all accept per-wavefront arrays or scalars) ----

    def charge_compute(self, ops: ArrayOrFloat) -> None:
        """Lockstep ALU work: ``ops`` abstract operations per wavefront."""
        charged = np.asarray(ops, dtype=np.float64) * self.device.cost.cycles_per_op
        self.wavefront_cycles += charged
        self.compute_cycles += self._total(charged)

    def charge_memory(self, words: ArrayOrFloat) -> None:
        """Wavefront-wide state accesses of ``words`` array rows.

        Coalesced (SoA) layout: one transaction per row. AoS layout: the
        lanes' strided accesses split into ``uncoalesced_factor``
        transactions per row.
        """
        words = np.asarray(words, dtype=np.float64)
        factor = 1.0 if self.coalesced else self.device.cost.uncoalesced_factor
        charged = words * factor * self.device.cost.cycles_per_transaction
        self.wavefront_cycles += charged
        self.memory_cycles += self._total(charged)

    def charge_alloc(self, allocations: ArrayOrFloat) -> None:
        """Device-side dynamic allocations (only charged in naive mode)."""
        if not self.dynamic_alloc:
            return
        allocations = np.asarray(allocations, dtype=np.float64)
        charged = allocations * self.device.cost.alloc_cycles
        self.wavefront_cycles += charged
        self.alloc_cycles += self._total(charged)

    # -- per-lane charging (the divergent, serialized execution model) -------

    def serialize_lanes(self, lanes) -> np.ndarray:
        """Collapse a ``(wavefronts, lanes)`` charge by serializing lanes.

        A fully divergent kernel executes one lane's work while its
        wavefront's other lanes wait, so a wavefront's cost is the *sum* of
        its lanes — versus the lockstep charges, where uniform work costs
        each wavefront a single (or wave-max) execution. The loop backend
        charges its per-lane work through this; the ratio between the two
        models is the speedup ``BENCH_backend.json`` records.
        """
        lanes = np.asarray(lanes, dtype=np.float64)
        if lanes.ndim != 2 or lanes.shape[0] != self.num_wavefronts:
            raise GPUSimError(
                "lane charge must be shaped (num_wavefronts, lanes), got %s"
                % (lanes.shape,)
            )
        return lanes.sum(axis=1)

    def charge_uniform_cycles(self, cycles: float) -> None:
        """The same cycle cost on every wavefront (reductions, sync)."""
        self.wavefront_cycles += cycles
        self.uniform_cycles += float(cycles) * self.num_wavefronts

    def charge_totals(self) -> dict:
        """The per-category cycle breakdown (keys are stable metric names)."""
        return {
            "compute_cycles": self.compute_cycles,
            "memory_cycles": self.memory_cycles,
            "alloc_cycles": self.alloc_cycles,
            "uniform_cycles": self.uniform_cycles,
        }

    # -- results ---------------------------------------------------------------

    def kernel_seconds(self) -> float:
        """Execution time of the launch (excludes launch overhead).

        Wavefronts dispatch in launch order; each batch of
        ``device.concurrent_wavefronts`` runs concurrently and takes its
        slowest member's time.
        """
        cap = self.device.concurrent_wavefronts
        total_cycles = 0.0
        for start in range(0, self.num_wavefronts, cap):
            total_cycles += float(self.wavefront_cycles[start:start + cap].max())
        return self.device.cost.cycles_to_seconds(total_cycles)

    def batches(self) -> int:
        """Execution batches (capacity waves) this launch needs."""
        return self.device.batches(self.num_wavefronts)

    def attributed_seconds(self) -> dict:
        """Kernel seconds split per category by cycle share.

        Keys are the categories of :meth:`charge_totals` without the
        ``_cycles`` suffix; the values sum to :meth:`kernel_seconds` up to
        float rounding (the profiler and the ``kernel_launch`` telemetry
        event both publish this split).
        """
        return attribute_seconds(self.kernel_seconds(), self.charge_totals())


class TransferAccounting:
    """Host<->device copy accounting for one region's scheduling."""

    def __init__(self, device: GPUDevice, batched: bool):
        self.device = device
        self.batched = batched
        self.total_bytes = 0
        self.array_count = 0

    def add_array(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise GPUSimError("array size must be >= 0")
        self.total_bytes += num_bytes
        self.array_count += 1

    def add_ndarray(self, array: np.ndarray) -> None:
        self.add_array(int(array.nbytes))

    def seconds(self) -> float:
        """Copy time: one batched call, or one call per array when naive.

        Includes the result copy-back (one more call either way).
        """
        calls = (1 if self.batched else max(1, self.array_count)) + 1
        return self.device.cost.copy_seconds(self.total_bytes, calls)
