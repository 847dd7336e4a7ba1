"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming mistakes (``TypeError`` and friends propagate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed IR: unknown opcode, duplicate definition, bad register."""


class ParseError(IRError):
    """The textual region format could not be parsed."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = "line {}: {}".format(line, message)
        super().__init__(message)


class DDGError(ReproError):
    """Dependence-graph construction or analysis failure (e.g. a cycle)."""


class ScheduleError(ReproError):
    """An illegal schedule: dependence, latency or issue-limit violation."""


class MachineModelError(ReproError):
    """Inconsistent machine description (e.g. a non-monotone occupancy table)."""


class ConfigError(ReproError):
    """Invalid configuration parameters."""


class GPUSimError(ReproError):
    """SIMT simulator misuse (bad launch geometry, lane mismatch, ...)."""


class PipelineError(ReproError):
    """Compile-pipeline failure."""


class TelemetryError(ReproError):
    """Telemetry misuse: bad metric kinds, schema-invalid trace records."""


class ProfileError(ReproError):
    """Span-profiler misuse (corrupted span stack)."""


class BenchError(ReproError):
    """Continuous-benchmark harness failure (bad BENCH file, bad baseline)."""


class AnalysisError(ReproError):
    """Static-analysis / verification layer failure (repro.analysis)."""


class VerificationError(AnalysisError):
    """An independent verification pass found one or more violations."""

    def __init__(self, message: str, violations=()):
        self.violations = tuple(violations)
        super().__init__(message)


class SanitizerError(AnalysisError):
    """The gpusim sanitizer caught a memory/uniformity invariant violation."""


class ResilienceError(ReproError):
    """Base class of the fault/recovery layer (repro.resilience).

    Everything under here is *survivable by design*: the compile pipeline's
    retry ladder catches ``ResilienceError`` (and only it) around a region,
    retries with a rotated seed or a downgraded backend, and falls back to
    the heuristic schedule rather than failing the compile.
    """


class InjectedFault(ResilienceError):
    """An injected (simulated) GPU fault.

    ``fault_class`` names the fault taxonomy entry (see
    :class:`repro.gpusim.faults.FaultClass`); ``seconds`` is the modelled
    time the failed attempt burned before the fault surfaced, which the
    retry ladder charges against the region's deadline budget.
    """

    fault_class = "fault"

    def __init__(self, message: str, seconds: float = 0.0, checkpoint=None):
        self.seconds = float(seconds)
        self.checkpoint = checkpoint
        super().__init__(message)


class KernelLaunchError(InjectedFault):
    """The scheduling kernel's launch returned an error (bad cooperative
    launch, driver hiccup): nothing ran, only the launch overhead is lost."""

    fault_class = "launch"


class DeviceOOMError(InjectedFault):
    """The Section V-A preallocation of per-ant device state failed: the
    device-side allocation limit rejected the request before any launch."""

    fault_class = "oom"


class CorruptionDetected(InjectedFault):
    """The copy-back integrity check found a corrupted transfer.

    The host<->device copies carry a checksum; a corrupted region image or
    result buffer fails the compare at copy-back, so a corrupted search is
    detected *before* its schedule can ship — never silently wrong. The
    attempt's state is untrusted, so no checkpoint accompanies this fault.
    """

    fault_class = "corruption"


class DeviceHangError(InjectedFault):
    """The watchdog declared the kernel hung (no heartbeat within budget).

    The host-side colony state at the last completed iteration survives in
    ``checkpoint`` (pheromone table, global best, RNG streams), so a retry
    resumes mid-search instead of restarting.
    """

    fault_class = "hang"


class WorkerCrash(InjectedFault):
    """A simulated shard worker died mid-dispatch (process loss).

    Everything the worker was holding — its current region and its queued
    regions — is gone; the fleet supervisor re-dispatches the work to the
    surviving workers. The crash itself burns only the detection latency
    (the supervisor's next missed heartbeat).
    """

    fault_class = "worker_crash"


class WorkerHang(InjectedFault):
    """A simulated shard worker stopped heartbeating (wedged, not dead).

    Detected by the supervisor's cost-model-denominated heartbeat: after
    ``heartbeat_seconds`` of silence the worker is declared hung, killed,
    and its regions re-dispatched. The detection latency is charged to the
    fleet's makespan.
    """

    fault_class = "worker_hang"


class FleetError(ReproError):
    """Fleet-shard layer misuse (bad shard count, incomplete merge)."""


class DeadlineExceeded(ResilienceError):
    """A region's deadline budget ran out before an attempt could start."""


class RegionUnrecoverable(ResilienceError):
    """The retry ladder exhausted every permitted rung for a region.

    Carries ``causes`` — one entry per failed attempt — so the caller can
    report what was tried. The pipeline still ships the heuristic schedule
    (a region never takes the compile down), but records the region as an
    error; the CLI maps any unrecoverable region to a nonzero exit.
    """

    def __init__(self, message: str, causes=(), spent_seconds: float = 0.0):
        self.causes = tuple(causes)
        # Data field on an exception, not an accounting mutation: the value
        # was already charged by the ladder before being carried here.
        self.spent_seconds = float(spent_seconds)  # repro: noqa[ACC-301]
        super().__init__(message)
