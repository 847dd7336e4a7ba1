"""Configuration dataclasses for the schedulers, the simulator and the suite.

The defaults reproduce the settings reported in the paper:

* 180 blocks of one wavefront each = 11,520 ants per parallel iteration on
  the 64-lane device (Section VI-A),
* pheromone decay factor 0.8 (Section IV-A),
* termination conditions 1 / 2 / 3 for region-size classes [1-49], [50-99]
  and >= 100 instructions (Section VI-A),
* 25% of wavefronts allowed to insert optional stalls (Section V-B),
* a cycle-threshold filter of 21 cycles (Section VI-D).

Settings the paper fixes once, and no caller varies, are named constants
beside their reader instead of fields here: the heuristic exponent beta
(:data:`repro.heuristics.base.HEURISTIC_WEIGHT`), the revert filter's
+3 occupancy vs. +63 cycles price (:mod:`repro.pipeline.filters`), the
hang watchdog's heartbeat (:data:`repro.parallel.scheduler.HANG_SECONDS`)
and the fleet supervision timings (:mod:`repro.fleet.supervisor`). The
pheromone strategy has one home, :attr:`ACOParams.strategy`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ConfigError

#: Region-size classes used throughout the evaluation (Section VI-A).
SIZE_CLASSES: Tuple[Tuple[int, int], ...] = ((1, 49), (50, 99), (100, 10**9))

#: Human-readable labels for :data:`SIZE_CLASSES`, matching the paper tables.
SIZE_CLASS_LABELS: Tuple[str, ...] = ("1-49", "50-99", ">=100")

#: Selectable pheromone-update strategies (see :mod:`repro.aco.strategy`):
#: the paper's Ant System rules ("as", default) and MAX-MIN Ant System
#: ("mmas": tau clamping, best-only deposit, stagnation restarts).
STRATEGY_NAMES: Tuple[str, ...] = ("as", "mmas")


def _is_count(value) -> bool:
    """An integral count: an int or NumPy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_counts(params, *names: str) -> None:
    """:class:`ConfigError` unless each named field of ``params`` is a count;
    a float count passes the range checks but crashes where it is used."""
    for name in names:
        value = getattr(params, name)
        if not _is_count(value):
            raise ConfigError("%s must be an integer, got %r" % (name, value))


def size_class_index(num_instructions: int) -> int:
    """Return the index of the size class containing ``num_instructions``."""
    for index, (low, high) in enumerate(SIZE_CLASSES):
        if low <= num_instructions <= high:
            return index
    raise ConfigError("region size %d is outside every size class" % num_instructions)


@dataclass(frozen=True)
class ACOParams:
    """Parameters of the ACO search shared by both the sequential and the
    parallel scheduler.

    The selection rule follows the Ant Colony System of Gambardella and
    Dorigo as adapted by Shobaki et al. (TACO 2022): with probability
    ``exploitation_prob`` an ant greedily picks the candidate maximizing
    ``tau * eta**beta`` (exploitation); otherwise it samples from the
    distribution proportional to the same product (exploration).
    """

    #: Probability q0 of an exploitation (greedy) step. The Ant Colony
    #: System default (Gambardella & Dorigo) is strongly exploitative.
    exploitation_prob: float = 0.9
    #: Pheromone decay factor applied at the end of each iteration.
    decay: float = 0.8
    #: Initial value of every pheromone-table entry.
    initial_pheromone: float = 1.0
    #: Deposit scale: the iteration winner deposits ``deposit / (1 + cost)``
    #: on each of its links.
    deposit: float = 6.0
    #: Pheromone entries are clamped into [min_pheromone, max_pheromone]
    #: (MAX-MIN style, keeps exploration alive under the strong 0.8 decay).
    min_pheromone: float = 0.1
    max_pheromone: float = 16.0
    #: Iterations without improvement tolerated before terminating, one entry
    #: per size class in :data:`SIZE_CLASSES`.
    termination_conditions: Tuple[int, int, int] = (1, 2, 3)
    #: Number of ants per iteration used by the *sequential* scheduler.
    sequential_ants: int = 10
    #: Hard cap on iterations per pass (safety net; the paper relies on the
    #: stagnation condition only).
    max_iterations: int = 64
    #: Probability scale of inserting an optional stall when the stall
    #: heuristic judges one beneficial (pass 2 only).
    optional_stall_prob: float = 0.5
    #: Maximum optional stalls per schedule, as a fraction of region size.
    #: Too small a budget starves ants on pressure-tight regions with
    #: long-latency load fronts (they die instead of waiting), forcing the
    #: pass-2 fallback to the stretched pass-1 schedule.
    optional_stall_budget: float = 0.5
    #: Pheromone-update strategy: "as" (the paper's Ant System rules) or
    #: "mmas" (MAX-MIN Ant System). Both schedulers read it only from here.
    strategy: str = "as"
    #: MMAS: stagnation-limit multiplier over the paper's 1/2/3 termination
    #: conditions. Restarts need room to fire; with the paper's limits an
    #: MMAS pass would stop before its first reinitialization.
    mmas_patience: int = 4
    #: MMAS: reinitialize the table to tau_max after every this many
    #: consecutive non-improving iterations.
    mmas_reinit_stagnation: int = 2
    #: MMAS: tau_min = tau_max / (scale * num_instructions).
    mmas_tau_min_scale: float = 2.0

    def termination_condition(self, num_instructions: int) -> int:
        """Stagnation limit for a region of the given size (Section VI-A)."""
        return self.termination_conditions[size_class_index(num_instructions)]

    def validate(self) -> None:
        # Every check is a positive condition, so NaN fails it.
        if not 0.0 <= self.exploitation_prob <= 1.0:
            raise ConfigError("exploitation_prob must be in [0, 1]")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError("decay must be in (0, 1]")
        if not self.initial_pheromone > 0.0:
            raise ConfigError("initial_pheromone must be positive")
        if not 0.0 < self.min_pheromone <= self.max_pheromone:
            raise ConfigError("need 0 < min_pheromone <= max_pheromone")
        if not self.deposit > 0.0:
            raise ConfigError("deposit must be positive")
        if len(self.termination_conditions) != len(SIZE_CLASSES):
            raise ConfigError(
                "termination_conditions needs %d entries" % len(SIZE_CLASSES)
            )
        if not all(_is_count(t) for t in self.termination_conditions):
            raise ConfigError(
                "termination conditions must be integers, got %r"
                % (self.termination_conditions,)
            )
        if not all(t >= 1 for t in self.termination_conditions):
            raise ConfigError("termination conditions must be >= 1")
        _check_counts(
            self, "sequential_ants", "max_iterations", "mmas_patience",
            "mmas_reinit_stagnation",
        )
        if not self.sequential_ants >= 1:
            raise ConfigError("sequential_ants must be >= 1")
        if not self.max_iterations >= 1:
            raise ConfigError("max_iterations must be >= 1")
        if not self.optional_stall_prob >= 0.0:
            raise ConfigError("optional_stall_prob must be >= 0")
        if not self.optional_stall_budget >= 0.0:
            raise ConfigError("optional_stall_budget must be >= 0")
        if self.strategy not in STRATEGY_NAMES:
            raise ConfigError(
                "strategy must be one of %s, got %r"
                % (", ".join(STRATEGY_NAMES), self.strategy)
            )
        if not self.mmas_patience >= 1:
            raise ConfigError("mmas_patience must be >= 1")
        if not self.mmas_reinit_stagnation >= 1:
            raise ConfigError("mmas_reinit_stagnation must be >= 1")
        if not self.mmas_tau_min_scale > 0.0:
            raise ConfigError("mmas_tau_min_scale must be positive")
        if self.strategy == "mmas" and not self.decay < 1.0:
            raise ConfigError(
                "mmas needs decay < 1 (tau_max is deposit / (1 - decay))"
            )


@dataclass(frozen=True)
class GPUParams:
    """Launch geometry and divergence/memory optimization toggles of the
    parallel scheduler (Sections IV-B, V-A and V-B).

    A block is one wavefront, so it needs no block-level synchronization:
    its thread count is the device's wavefront size, not a setting.
    """

    #: Blocks per kernel launch. The paper launches 3x the CU count.
    blocks: int = 180

    # --- Memory optimizations (Section V-A), togglable for Table 4.a ---
    #: Structure-of-arrays layout for per-ant state (coalesced accesses).
    soa_layout: bool = True
    #: Size fixed arrays with the transitive-closure ready-list upper bound
    #: instead of the trivial bound n.
    tight_ready_list_bound: bool = True
    #: Consolidate host->device transfers into one batched copy.
    batched_transfers: bool = True

    # --- Divergence optimizations (Section V-B), togglable for Table 4.b ---
    #: Randomize explore/exploit per wavefront instead of per thread.
    wavefront_level_choice: bool = True
    #: Fraction of wavefronts allowed to insert optional stalls (pass 2).
    stall_wavefront_fraction: float = 0.25
    #: Terminate a wavefront once any lane finishes its schedule (pass 2).
    early_wavefront_termination: bool = True
    #: Rotate guiding heuristics across wavefront groups.
    heuristic_diversity: bool = True

    #: Ant-construction engine: ``"vectorized"`` (lockstep batch engine,
    #: wave-max cost model) or ``"loop"`` (scalar per-ant reference engine,
    #: serialized-lane cost model). Both produce bit-identical seeded
    #: schedules; see repro.parallel.colony.BACKENDS.
    backend: str = "vectorized"

    @property
    def wavefronts(self) -> int:
        """Total wavefronts per launch (one per block by construction)."""
        return self.blocks

    def total_threads(self, wavefront_size: int) -> int:
        """Ants per launch on a device with ``wavefront_size`` lanes."""
        return self.blocks * wavefront_size

    def validate(self) -> None:
        _check_counts(self, "blocks")
        if not self.blocks >= 1:
            raise ConfigError("blocks must be >= 1")
        if not 0.0 <= self.stall_wavefront_fraction <= 1.0:
            raise ConfigError("stall_wavefront_fraction must be in [0, 1]")
        if self.backend not in ("loop", "vectorized"):
            raise ConfigError(
                "backend must be 'loop' or 'vectorized', got %r" % (self.backend,)
            )

    def without_memory_opts(self) -> "GPUParams":
        """A copy with every Section V-A optimization disabled (Table 4.a baseline)."""
        return replace_params(
            self, soa_layout=False, tight_ready_list_bound=False, batched_transfers=False
        )

    def without_divergence_opts(self) -> "GPUParams":
        """A copy with every Section V-B optimization disabled (Table 4.b baseline).

        Optional stalls stay enabled (every wavefront may insert them); the
        *restriction* to a fraction of wavefronts is the optimization.
        """
        return replace_params(
            self,
            wavefront_level_choice=False,
            stall_wavefront_fraction=1.0,
            early_wavefront_termination=False,
            heuristic_diversity=False,
        )


def replace_params(params, **changes):
    """``dataclasses.replace`` that works on any of the frozen param classes."""
    import dataclasses

    return dataclasses.replace(params, **changes)


@dataclass(frozen=True)
class FilterParams:
    """Selective-invocation filters from Section VI-D."""

    #: Pass-2 ACO runs only when heuristic length exceeds the LB by more than
    #: this many cycles. Table 7 sweeps this; 21 was best.
    cycle_threshold: int = 21

    def validate(self) -> None:
        if not self.cycle_threshold >= 0:
            raise ConfigError("cycle_threshold must be >= 0")


@dataclass(frozen=True)
class ResilienceParams:
    """Fault handling: deadlines, retry ladder, chaos.

    All defaults are inert — no deadline, no chaos seed — and an inert
    configuration leaves every code path bit-identical to a build without
    the resilience layer: the pipeline only wraps a region in the retry
    ladder when :attr:`active` is true, that is when a deadline or a chaos
    seed is set. A retried hang always resumes from its checkpoint.
    """

    #: Per-region scheduling deadline in cost-model seconds (both ACO
    #: passes and every retry share one budget); None = unlimited.
    deadline_seconds: Optional[float] = None
    #: Retries per ladder rung before degrading to the next rung.
    max_retries: int = 2
    #: Permit backend downgrade (vectorized -> loop -> sequential ->
    #: heuristic). With False, a region whose retries are exhausted is
    #: recorded as unrecoverable instead of silently falling back.
    degrade: bool = True
    #: Chaos seed driving the deterministic fault model; None = no faults.
    chaos_seed: Optional[int] = None

    @property
    def active(self) -> bool:
        """Whether the pipeline should route regions through the ladder."""
        return self.deadline_seconds is not None or self.chaos_seed is not None

    def validate(self) -> None:
        if self.deadline_seconds is not None and not float(self.deadline_seconds) > 0.0:
            raise ConfigError("deadline_seconds must be positive (or None)")
        _check_counts(self, "max_retries")
        if not self.max_retries >= 0:
            raise ConfigError("max_retries must be >= 0")
        if self.chaos_seed is not None and (
            isinstance(self.chaos_seed, bool)
            or not isinstance(self.chaos_seed, numbers.Integral)
        ):
            raise ConfigError(
                "chaos_seed must be an integer (or None), got %r" % (self.chaos_seed,)
            )


@dataclass(frozen=True)
class FleetParams:
    """Fleet sharding: how a region batch spreads over simulated workers.

    Inert by default (``num_shards = 1`` keeps the historical single-device
    batch path, byte for byte). The supervision timings are constants of
    :mod:`repro.fleet.supervisor`, and worker faults come from the
    supervisor's ``worker_faults`` plan
    (:meth:`repro.gpusim.faults.FaultPlan.worker_plan`).
    """

    #: Simulated shard workers a batch is partitioned across. 1 = the
    #: plain single-device :class:`repro.parallel.MultiRegionScheduler`
    #: path (no supervisor, no fleet events).
    num_shards: int = 1

    def validate(self) -> None:
        _check_counts(self, "num_shards")
        if not self.num_shards >= 1:
            raise ConfigError("num_shards must be >= 1")


@dataclass(frozen=True)
class SuiteParams:
    """Shape of the synthetic rocPRIM-like benchmark suite (Table 1)."""

    #: Number of benchmarks to generate (paper: 341 scheduling-sensitive).
    num_benchmarks: int = 341
    #: Number of distinct kernels shared by the benchmarks (paper: 269).
    num_kernels: int = 269
    #: Mean number of scheduling regions per kernel. The paper's suite has
    #: 181,883 regions over 269 kernels (~676 each); the default here is far
    #: smaller so the full pipeline runs in seconds, and experiments state
    #: their own scale.
    regions_per_kernel: int = 24
    #: Base RNG seed; every kernel derives its own stream from it.
    seed: int = 2024

    def validate(self) -> None:
        _check_counts(self, "num_benchmarks", "num_kernels", "regions_per_kernel")
        if min(self.num_benchmarks, self.num_kernels, self.regions_per_kernel) < 1:
            raise ConfigError("suite parameters must be >= 1")


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean used by the speedup tables; empty input -> 1.0."""
    import math

    if not values:
        return 1.0
    if any(v <= 0.0 for v in values):
        raise ConfigError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
