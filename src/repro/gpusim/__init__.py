"""A lockstep SIMT execution model with cost accounting.

This package stands in for the AMD Radeon VII that the paper runs its
scheduling kernel on. The parallel colony (:mod:`repro.parallel`) executes
ants lane-vectorized (numpy across lanes = SIMD across a wavefront) and
reports every abstract operation to :class:`~repro.gpusim.kernel.KernelAccounting`,
which converts them to cycles under the device's divergence and
memory-coalescing rules:

* a wavefront's cost for a data-dependent loop is the **maximum** over its
  lanes (lanes with shorter ready lists wait for the longest);
* divergent control paths within a wavefront **serialize** (both paths'
  costs are charged);
* a structure-of-arrays access is **one transaction** per wavefront, an
  array-of-structures access costs a transaction *per active lane*;
* device-side dynamic allocation has a large fixed cycle cost
  (Section V-A: "Dynamic memory allocation on the GPU is known to be very
  slow");
* kernel launches and host/device copies have fixed overheads, and
  unbatched copies pay a per-call cost.
"""

from .device import GPUDevice
from .faults import (
    DEFAULT_CHAOS_RATES,
    FAULT_CLASSES,
    FaultPlan,
)
from .kernel import KernelAccounting, TransferAccounting
from .reduction import reduction_cycles

__all__ = [
    "DEFAULT_CHAOS_RATES",
    "FAULT_CLASSES",
    "FaultPlan",
    "GPUDevice",
    "KernelAccounting",
    "TransferAccounting",
    "reduction_cycles",
]
