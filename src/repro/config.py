"""Configuration dataclasses for the schedulers, the simulator and the suite.

The defaults reproduce the settings reported in the paper:

* 180 blocks x 64 threads = 11,520 ants per parallel iteration (Section VI-A),
* pheromone decay factor 0.8 (Section IV-A),
* termination conditions 1 / 2 / 3 for region-size classes [1-49], [50-99]
  and >= 100 instructions (Section VI-A),
* 25% of wavefronts allowed to insert optional stalls (Section V-B),
* cycle-threshold filter of 21 cycles and the post-scheduling revert filter
  (+3 occupancy vs. +63 cycles, Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    ``tau * eta**heuristic_weight`` (exploitation); otherwise it samples from
    the distribution proportional to the same product (exploration).
    """

    #: Probability q0 of an exploitation (greedy) step. The Ant Colony
    #: System default (Gambardella & Dorigo) is strongly exploitative.
    exploitation_prob: float = 0.9
    #: Exponent beta applied to the guiding-heuristic value.
    heuristic_weight: float = 2.0
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
    #: "mmas" (MAX-MIN Ant System). Overridable per scheduler via the
    #: constructor argument or GPUParams.strategy.
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
        if not 0.0 <= self.exploitation_prob <= 1.0:
            raise ConfigError("exploitation_prob must be in [0, 1]")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError("decay must be in (0, 1]")
        if self.initial_pheromone <= 0.0:
            raise ConfigError("initial_pheromone must be positive")
        if self.min_pheromone <= 0.0 or self.max_pheromone < self.min_pheromone:
            raise ConfigError("need 0 < min_pheromone <= max_pheromone")
        if len(self.termination_conditions) != len(SIZE_CLASSES):
            raise ConfigError(
                "termination_conditions needs %d entries" % len(SIZE_CLASSES)
            )
        if any(t < 1 for t in self.termination_conditions):
            raise ConfigError("termination conditions must be >= 1")
        if self.sequential_ants < 1:
            raise ConfigError("sequential_ants must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.strategy not in STRATEGY_NAMES:
            raise ConfigError(
                "strategy must be one of %s, got %r"
                % (", ".join(STRATEGY_NAMES), self.strategy)
            )
        if self.mmas_patience < 1:
            raise ConfigError("mmas_patience must be >= 1")
        if self.mmas_reinit_stagnation < 1:
            raise ConfigError("mmas_reinit_stagnation must be >= 1")
        if self.mmas_tau_min_scale <= 0.0:
            raise ConfigError("mmas_tau_min_scale must be positive")
        if self.strategy == "mmas" and self.decay >= 1.0:
            raise ConfigError(
                "mmas needs decay < 1 (tau_max is deposit / (1 - decay))"
            )


@dataclass(frozen=True)
class GPUParams:
    """Launch geometry and divergence/memory optimization toggles of the
    parallel scheduler (Sections IV-B, V-A and V-B)."""

    #: Blocks per kernel launch. The paper launches 3x the CU count.
    blocks: int = 180
    #: Threads per block; set to the wavefront size so a block is one
    #: wavefront and needs no block-level synchronization.
    threads_per_block: int = 64

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

    #: Per-device override of the pheromone-update strategy (see
    #: :data:`STRATEGY_NAMES`); ``None`` inherits ``ACOParams.strategy``.
    strategy: Optional[str] = None

    @property
    def wavefronts(self) -> int:
        """Total wavefronts per launch (one per block by construction)."""
        return self.blocks

    @property
    def total_threads(self) -> int:
        return self.blocks * self.threads_per_block

    def validate(self, wavefront_size: int = 64) -> None:
        if self.blocks < 1:
            raise ConfigError("blocks must be >= 1")
        if self.threads_per_block != wavefront_size:
            raise ConfigError(
                "threads_per_block (%d) must equal the wavefront size (%d) to "
                "avoid block-level synchronization" % (self.threads_per_block, wavefront_size)
            )
        if not 0.0 <= self.stall_wavefront_fraction <= 1.0:
            raise ConfigError("stall_wavefront_fraction must be in [0, 1]")
        if self.backend not in ("loop", "vectorized"):
            raise ConfigError(
                "backend must be 'loop' or 'vectorized', got %r" % (self.backend,)
            )
        if self.strategy is not None and self.strategy not in STRATEGY_NAMES:
            raise ConfigError(
                "strategy must be one of %s, got %r"
                % (", ".join(STRATEGY_NAMES), self.strategy)
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
    #: Post-scheduling revert: if ACO gains at least this much occupancy ...
    revert_occupancy_gain: int = 3
    #: ... but lengthens the schedule by more than this many cycles, keep the
    #: heuristic schedule instead.
    revert_length_degradation: int = 63

    def validate(self) -> None:
        if self.cycle_threshold < 0:
            raise ConfigError("cycle_threshold must be >= 0")
        if self.revert_occupancy_gain < 0 or self.revert_length_degradation < 0:
            raise ConfigError("revert filter parameters must be >= 0")


@dataclass(frozen=True)
class ResilienceParams:
    """Fault handling: deadlines, retry ladder, checkpoints, chaos.

    All defaults are inert — no deadline, no chaos seed — and an inert
    configuration leaves every code path bit-identical to a build without
    the resilience layer (the pipeline only wraps a region in the retry
    ladder when :attr:`active` is true). ``enabled`` forces the ladder on
    or off regardless of the other knobs; leave it None for the natural
    rule "active iff a deadline or a chaos seed is set".
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
    #: Resume retried passes from the fault checkpoint when one exists
    #: (hangs), instead of restarting the search.
    checkpoint: bool = True
    #: Chaos seed driving the deterministic fault model; None = no faults.
    chaos_seed: Optional[int] = None
    #: Force the retry ladder on/off; None = active iff deadline or chaos.
    enabled: Optional[bool] = None

    @property
    def active(self) -> bool:
        """Whether the pipeline should route regions through the ladder."""
        if self.enabled is not None:
            return bool(self.enabled)
        return self.deadline_seconds is not None or self.chaos_seed is not None

    def validate(self) -> None:
        if self.deadline_seconds is not None and not float(self.deadline_seconds) > 0.0:
            raise ConfigError("deadline_seconds must be positive (or None)")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.chaos_seed is not None:
            int(self.chaos_seed)


@dataclass(frozen=True)
class FleetParams:
    """Fleet sharding: how a region batch spreads over simulated workers.

    Inert by default (``num_shards = 1`` keeps the historical single-device
    batch path, byte for byte). All timing knobs are cost-model seconds —
    like everything else in the reproduction, the fleet has no wall clock.
    """

    #: Simulated shard workers a batch is partitioned across. 1 = the
    #: plain single-device :class:`repro.parallel.MultiRegionScheduler`
    #: path (no supervisor, no fleet events).
    num_shards: int = 1
    #: Supervisor heartbeat interval in cost-model seconds: the detection
    #: latency charged when a worker crashes or hangs mid-dispatch.
    heartbeat_seconds: float = 2e-3
    #: A worker whose epoch busy time exceeds this multiple of the fleet
    #: median is flagged a straggler (telemetry + dispatch demotion).
    straggler_factor: float = 2.0
    #: Restarts granted to a dead worker before it stays dead.
    max_worker_restarts: int = 1
    #: Cost-model seconds a restarted worker spends coming back.
    backoff_seconds: float = 1e-3
    #: Re-dispatches granted per region across the whole fleet before the
    #: region falls back to serial host execution (the PR 5 ladder).
    max_slot_redispatches: int = 4
    #: Seed of the worker-level fault plan (crash/hang/corrupt sites);
    #: None = fault-free fleet.
    chaos_seed: Optional[int] = None

    def validate(self) -> None:
        if self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if self.heartbeat_seconds <= 0.0:
            raise ConfigError("heartbeat_seconds must be positive")
        if self.straggler_factor < 1.0:
            raise ConfigError("straggler_factor must be >= 1")
        if self.max_worker_restarts < 0:
            raise ConfigError("max_worker_restarts must be >= 0")
        if self.backoff_seconds < 0.0:
            raise ConfigError("backoff_seconds must be >= 0")
        if self.max_slot_redispatches < 1:
            raise ConfigError("max_slot_redispatches must be >= 1")
        if self.chaos_seed is not None:
            int(self.chaos_seed)


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
        if min(self.num_benchmarks, self.num_kernels, self.regions_per_kernel) < 1:
            raise ConfigError("suite parameters must be >= 1")


@dataclass(frozen=True)
class ReproConfig:
    """Top-level bundle used by the pipeline and the experiment harness."""

    aco: ACOParams = field(default_factory=ACOParams)
    gpu: GPUParams = field(default_factory=GPUParams)
    filters: FilterParams = field(default_factory=FilterParams)
    suite: SuiteParams = field(default_factory=SuiteParams)
    resilience: ResilienceParams = field(default_factory=ResilienceParams)
    fleet: FleetParams = field(default_factory=FleetParams)

    def validate(self, wavefront_size: int = 64) -> None:
        self.aco.validate()
        self.gpu.validate(wavefront_size)
        self.filters.validate()
        self.suite.validate()
        self.resilience.validate()
        self.fleet.validate()


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean used by the speedup tables; empty input -> 1.0."""
    import math

    if not values:
        return 1.0
    if any(v <= 0.0 for v in values):
        raise ConfigError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
