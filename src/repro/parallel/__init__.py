"""The GPU-parallel ACO scheduler (Sections IV-B and V).

One ant per GPU thread, 64-thread single-wavefront blocks, lane-vectorized
lockstep execution on the simulated device of :mod:`repro.gpusim`:

* :mod:`~repro.parallel.layouts` — the region's "device image": padded
  structure-of-arrays buffers sized with the transitive-closure ready-list
  bound (the Section V-A memory optimizations, togglable for Table 4.a);
* :mod:`~repro.parallel.divergence` — the Section V-B divergence policy
  (wavefront-level explore/exploit, stall-wavefront fraction, early
  wavefront termination, heuristic diversity), togglable for Table 4.b;
* :mod:`~repro.parallel.rng` — spawn-indexed per-ant RNG streams shared by
  both construction backends, so their draw orders coincide per ant;
* :mod:`~repro.parallel.vectorized` — the batch construction engine: every
  lane of every wavefront advances in lockstep numpy operations while the
  kernel accounting charges the optimized (wave-max) cost model;
* :mod:`~repro.parallel.loop` — the scalar per-ant reference engine with
  the divergent (serialized-lane) cost model, bit-identical in its
  decisions to the vectorized engine;
* :mod:`~repro.parallel.colony` — the backend registry
  (``backend="loop"|"vectorized"``);
* :mod:`~repro.parallel.scheduler` — the GPU construction engine under
  the shared two-pass driver (:mod:`repro.aco.driver`).
"""

from .layouts import RegionDeviceData
from .divergence import DivergencePolicy
from .rng import AntRngStreams
from .vectorized import VectorizedColony
from .loop import LoopColony
from .colony import BACKENDS, ColonyIterationResult, resolve_backend
from .scheduler import ParallelACOScheduler
from .multi_region import (
    BatchItem,
    BatchResult,
    MultiRegionScheduler,
    SlotOutcome,
    partition_blocks,
)

__all__ = [
    "RegionDeviceData",
    "DivergencePolicy",
    "AntRngStreams",
    "VectorizedColony",
    "LoopColony",
    "BACKENDS",
    "resolve_backend",
    "ColonyIterationResult",
    "ParallelACOScheduler",
    "BatchItem",
    "BatchResult",
    "MultiRegionScheduler",
    "SlotOutcome",
    "partition_blocks",
]
