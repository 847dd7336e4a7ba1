"""The four workloads of the host-time benchmark.

A workload turns a seed into a list of requests (the only thing the
program receives is the regions they carry) and serves one request through
the program's public API. Everything here runs inside one pass's child
process; ``passes.py`` times it.

Sizes are scaled so one pass of each workload takes seconds on a 2-core
machine. Request counts stay at >= 100 (enough for ten samples beyond
p90); the region sizes were shrunk instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import (
    ACOParams,
    AMDMaxOccupancyScheduler,
    CompilePipeline,
    DDG,
    FilterParams,
    GPUParams,
    ParallelACOScheduler,
    SequentialACOScheduler,
    SuiteParams,
    amd_vega20,
    evaluate_schedule,
    format_region,
    generate_suite,
    parse_region,
    region_bounds,
    validate_schedule,
)
from repro.analysis.ddg_lint import lint_ddg
from repro.analysis.verifier import verify_schedule
from repro.config import FleetParams, ResilienceParams
from repro.fleet.supervisor import FleetSupervisor
from repro.gpusim.faults import FaultPlan
from repro.obs.aggregate import AggregatingSink
from repro.parallel.multi_region import BatchItem, MultiRegionScheduler
from repro.pipeline.filters import FilterDecision
from repro.profile import SpanProfiler, profile_session
from repro.resilience.chaos import chaos_regions
from repro.suite import hostile_region, pattern_region
from repro.suite.rng import derive_seed, derived_rng
from repro.telemetry import Telemetry

#: suite_*: 34 kernels x 5 regions = 170 requests, region sizes capped at
#: 24. Each region's ACO time varies ~60% with its contents, so more,
#: smaller regions make the total move less from seed to seed; 170 still
#: leaves room for two vectorized passes in a 24 s run.
SUITE_KERNELS = 34
SUITE_REGIONS_PER_KERNEL = 5
SUITE_MAX_REGION_SIZE = 24
SUITE_SHAPE_SEED = SuiteParams.seed

#: hostile_verified: 100 regions, round-robin over the families.
HOSTILE_FAMILIES = ("giant", "pressure_cliff", "long_chain", "fanout")
HOSTILE_REQUESTS = 100
HOSTILE_SIZES = (32, 256)

#: fleet_chaos: 100 batches of 2-3 tiny regions on a 3-block launch.
FLEET_BATCHES = 100
FLEET_REGIONS_PER_BATCH = (2, 3)
FLEET_SIZES = (6, 14)
FLEET_BLOCKS = 3
#: Retries per ladder rung. With the default 2, the ~3% of regions that
#: fail three times in a row drop to the scalar ``loop`` engine, which then
#: took a fifth of the pass and three quarters of its seed-to-seed spread.
#: With 3 every region recovers on the vectorized engine; retries and
#: checkpoint resumes are unchanged.
FLEET_MAX_RETRIES = 3
#: Batches the fleet and instrumentation overhead comparisons run on.
FLEET_OVERHEAD_SUBSET = 25

#: Seed of the warm-up request, so set-up does the same work whatever the
#: run's seed (a seed-drawn warm-up moved ``setup_s`` by 10-15%).
WARM_UP_SEED = 0


@dataclass(frozen=True)
class Request:
    id: str
    #: A region (suite_*), IR text (hostile_verified) or a tuple of regions
    #: (fleet_chaos).
    payload: Any
    seed: int


@dataclass
class Shipped:
    """One schedule the program shipped, with what it claimed about it."""

    ddg: DDG
    schedule: Any
    #: ``verify_schedule`` keyword claims (peak pressure, RP cost).
    claims: Dict[str, Any]


class NullTracer:
    """The timed passes' tracer: records nothing."""

    request: Optional[int] = None

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, request index]``."""

    def __init__(self):
        self.spans: List[list] = []
        self.request: Optional[int] = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()


class LayerProxy:
    """Forwards every attribute to ``target`` and times calls to ``schedule``.

    Passed to the program through constructor arguments, so the traced
    pass sees layer boundaries without assigning into ``repro`` modules.
    """

    def __init__(self, target, tracer: Tracer, span: str):
        self._target = target
        self._tracer = tracer
        self._span = span

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        if name != "schedule":
            return value

        def timed(*args, **kwargs):
            with self._tracer.span(self._span):
                return value(*args, **kwargs)

        return timed


def digest(*parts) -> str:
    text = "|".join(",".join(map(str, p)) if isinstance(p, (tuple, list)) else str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _layer(tracer, target, span: str):
    return target if isinstance(tracer, NullTracer) else LayerProxy(target, tracer, span)


class Workload:
    """Base: a seeded request list plus the objects that serve it."""

    name = ""
    #: Requests per pass.
    size = 0

    def __init__(self, seed: int, tracer, limit: Optional[int] = None):
        self.tracer = tracer
        self.machine = amd_vega20()
        count = min(limit, self.size) if limit else self.size
        self.requests: List[Request] = [self.make_request(seed, i) for i in range(count)]

    def make_request(self, seed: int, index: int) -> Request:
        raise NotImplementedError

    def session(self):
        """Context the warm-up and every request run inside."""
        return contextlib.nullcontext()

    def serve(self, request: Request):
        raise NotImplementedError

    def warm_up(self) -> None:
        """The one request set-up ends with: the first request of
        ``WARM_UP_SEED`` (its result is discarded)."""
        self.serve(self.make_request(WARM_UP_SEED, 0))

    def regions(self, request: Request) -> int:
        return 1

    def describe(self, outcome) -> Tuple[str, float, List[Shipped], Optional[str]]:
        """(digest, modeled seconds, shipped schedules, program-reported error)."""
        raise NotImplementedError

    def counters(self, outcomes: List[Any]) -> Dict[str, float]:
        return {}

    def overheads(self) -> Dict[str, float]:
        return {}

    def check(self, shipped: Shipped, traced: bool) -> None:
        """Legality of one shipped schedule, rechecked outside the timed window.

        Raises on an illegal schedule. The traced pass also times the
        bounds and RP evaluation of the same inputs.
        """
        tracer = self.tracer
        validate_schedule(shipped.schedule, shipped.ddg, self.machine)
        with tracer.span("analysis.verify"):
            report = lint_ddg(shipped.ddg)
            report.merge(
                verify_schedule(shipped.schedule, shipped.ddg, self.machine, **shipped.claims)
            )
        report.raise_if_failed()
        if traced:
            with tracer.span("ddg.bounds"):
                region_bounds(shipped.ddg)
            with tracer.span("rp.evaluate"):
                evaluate_schedule(shipped.schedule, self.machine)


class _Pipelined(Workload):
    """Requests served by ``CompilePipeline.compile_region``."""

    #: The ACO layer the pipeline's scheduler belongs to, if any.
    engine: Optional[str] = None

    def __init__(self, seed, tracer, limit=None):
        super().__init__(seed, tracer, limit)
        self.pipeline = self.make_pipeline()

    def make_pipeline(self) -> CompilePipeline:
        raise NotImplementedError

    def region_of(self, request: Request):
        return request.payload

    def serve(self, request):
        region = self.region_of(request)
        with self.tracer.span("ddg.build"):
            ddg = DDG(region)
        with self.tracer.span("pipeline.compile_region"):
            return ddg, self.pipeline.compile_region(ddg, seed=request.seed)

    def describe(self, outcome):
        ddg, outcome = outcome
        schedule = outcome.schedule
        final = outcome.final
        shipped = Shipped(
            ddg, schedule, {"expected_peak": final.pressure_dict, "expected_rp_cost": final.rp_cost}
        )
        key = digest(schedule.order, schedule.cycles, final.length, final.rp_cost)
        return key, outcome.scheduling_seconds, [shipped], None

    def counters(self, outcomes):
        done = [o[1] for o in outcomes if o is not None]
        invoked = [o for o in done if o.aco_invoked]
        applied = sum(1 for o in invoked if o.decision is FilterDecision.ACO_APPLIED)
        values = {
            "pipeline.aco_invoked_ratio": len(invoked) / len(done),
            "pipeline.aco_applied_ratio": applied / len(invoked) if invoked else 0.0,
        }
        if self.engine:
            values[self.engine + ".iterations"] = sum(
                p.iterations for o in invoked for p in (o.pass1, o.pass2) if p is not None
            )
        return values


class SuiteWorkload(_Pipelined):
    size = SUITE_KERNELS * SUITE_REGIONS_PER_KERNEL

    def __init__(self, seed, tracer, limit=None):
        # Kernel patterns and region sizes come from one fixed suite; the
        # seed draws each region's contents (at SUITE_SHAPE_SEED this is
        # exactly generate_suite). Seeds then differ in structure, not in
        # how much work they hold.
        shape = generate_suite(
            SuiteParams(
                num_kernels=SUITE_KERNELS,
                regions_per_kernel=SUITE_REGIONS_PER_KERNEL,
                seed=SUITE_SHAPE_SEED,
            ),
            max_region_size=SUITE_MAX_REGION_SIZE,
        )
        self.slots = [
            (k, kernel, i, template)
            for k, kernel in enumerate(shape.kernels)
            for i, template in enumerate(kernel.regions)
        ]
        super().__init__(seed, tracer, limit)

    def make_request(self, seed, index):
        k, kernel, i, template = self.slots[index]
        region = pattern_region(
            kernel.pattern, derived_rng(seed, "region", k, i), len(template), template.name
        )
        return Request(
            "%s/%d" % (kernel.name, i), region, derive_seed(seed, "schedule", kernel.name, i)
        )

    def make_scheduler(self):
        raise NotImplementedError

    def make_pipeline(self):
        return CompilePipeline(
            self.machine,
            scheduler=_layer(self.tracer, self.make_scheduler(), self.engine + ".schedule"),
            filters=FilterParams(cycle_threshold=0),
            baseline=_layer(self.tracer, AMDMaxOccupancyScheduler(self.machine), "heuristics.schedule"),
        )


class SuiteVectorized(SuiteWorkload):
    name = "suite_vectorized"
    engine = "parallel"

    def make_scheduler(self):
        # The test-scale experiment geometry (repro.experiments SCALES["test"]).
        return ParallelACOScheduler(
            self.machine, params=ACOParams(), gpu_params=GPUParams(blocks=3), backend="vectorized"
        )


class SuiteSequential(SuiteWorkload):
    name = "suite_sequential"
    engine = "aco"

    def make_scheduler(self):
        return SequentialACOScheduler(self.machine, params=ACOParams())


class HostileVerified(_Pipelined):
    name = "hostile_verified"
    size = HOSTILE_REQUESTS

    def make_request(self, seed, j):
        # Stratified sizes: each family covers the size range evenly, so
        # seeds differ in region structure, not in how much work they hold.
        lo, hi = HOSTILE_SIZES
        strata = HOSTILE_REQUESTS // len(HOSTILE_FAMILIES)
        family = HOSTILE_FAMILIES[j % len(HOSTILE_FAMILIES)]
        jitter = derived_rng(seed, "hostile-size", j).random()
        size = lo + int((hi - lo) * (j // len(HOSTILE_FAMILIES) + jitter) / strata)
        region = hostile_region(family, derive_seed(seed, "hostile", j), size=size)
        return Request("%s/%d" % (family, j), format_region(region), 0)

    def make_pipeline(self):
        return CompilePipeline(
            self.machine,
            scheduler=None,
            verify=True,
            baseline=_layer(self.tracer, AMDMaxOccupancyScheduler(self.machine), "heuristics.schedule"),
        )

    def region_of(self, request):
        with self.tracer.span("ir.parse"):
            return parse_region(request.payload)


class FleetChaos(Workload):
    name = "fleet_chaos"
    size = FLEET_BATCHES

    def __init__(self, seed, tracer, limit=None):
        super().__init__(seed, tracer, limit)
        self.sink = AggregatingSink()
        self.telemetry = Telemetry(sink=self.sink)
        self.profiler = SpanProfiler()

    def make_request(self, seed, b):
        # The seed draws the regions' contents. Batch shapes and the fault
        # schedule (keyed by region names, which encode sizes) are the same
        # for every seed: the recovery tail decides p90, and a seed-drawn
        # fault mix would move it by half.
        chaos_seed = derive_seed(0, "fleet-chaos", b)
        rng = derived_rng(chaos_seed, "sizes")
        sizes = [rng.randint(*FLEET_SIZES) for _ in range(rng.randint(*FLEET_REGIONS_PER_BATCH))]
        ddgs = chaos_regions(self.machine, sizes, seed=derive_seed(seed, "fleet", b))
        return Request("batch/%d" % b, tuple(d.region for d in ddgs), chaos_seed)

    def session(self):
        return profile_session(self.profiler)

    def warm_up(self):
        super().warm_up()
        self.warm_up_events = self.sink.aggregator.events

    def regions(self, request):
        return len(request.payload)

    def _items(self, request):
        items = []
        for j, region in enumerate(request.payload):
            with self.tracer.span("ddg.build"):
                ddg = DDG(region)
            items.append(BatchItem(ddg, seed=derive_seed(request.seed, "slot", j)))
        return items

    def _scheduler(self, telemetry):
        return MultiRegionScheduler(
            self.machine,
            ACOParams(max_iterations=8),
            GPUParams(blocks=FLEET_BLOCKS),
            telemetry=telemetry,
        )

    def _resilience(self, request):
        return ResilienceParams(chaos_seed=request.seed, max_retries=FLEET_MAX_RETRIES)

    def _run_fleet(self, request, telemetry):
        supervisor = FleetSupervisor(
            self._scheduler(telemetry),
            FleetParams(num_shards=2),
            worker_faults=FaultPlan.worker_plan(request.seed),
        )
        items = self._items(request)
        with self.tracer.span("fleet.schedule_batch"):
            result = supervisor.schedule_batch(
                items,
                fault_plan=FaultPlan.from_seed(request.seed),
                resilience=self._resilience(request),
            )
        return items, result

    def serve(self, request):
        return self._run_fleet(request, self.telemetry)

    def describe(self, outcome):
        items, fleet = outcome
        batch = fleet.batch
        parts: List[Any] = [batch.seconds, batch.attempts, batch.final_backends]
        shipped = []
        for item, result, error in zip(items, batch.results, batch.errors):
            if result is None:
                parts.append(error)
                continue
            schedule = result.schedule
            parts.append(digest(schedule.order, schedule.cycles, result.length, result.rp_cost_value))
            shipped.append(Shipped(
                item.ddg, schedule,
                {"expected_peak": result.peak, "expected_rp_cost": result.rp_cost_value},
            ))
        failed = [e for e in batch.errors if e is not None]
        error = "%d slot(s) failed: %s" % (len(failed), failed[0]) if failed else None
        return digest(*parts), fleet.fleet_seconds, shipped, error

    def counters(self, outcomes):
        fleets = [o[1] for o in outcomes if o is not None]
        regions = sum(len(f.batch.results) for f in fleets)
        return {
            "fleet.dispatches_per_region": sum(f.dispatches for f in fleets) / regions,
            "fleet.reassignments": sum(f.reassignments for f in fleets),
            "fleet.recovered_regions": sum(f.recovered_regions for f in fleets),
            "resilience.attempts_per_region": sum(sum(f.batch.attempts) for f in fleets) / regions,
            "obs.events": self.sink.aggregator.events - self.warm_up_events,
        }

    def overheads(self) -> Dict[str, float]:
        """Host-time overhead of the fleet over one device, and of the
        instrumentation (telemetry + span profiler) over none, on the first
        batches. Variants alternate and each keeps its fastest run."""
        subset = self.requests[:FLEET_OVERHEAD_SUBSET]
        tracer, self.tracer = self.tracer, NullTracer()

        def fleet_on(request):
            self._run_fleet(request, self.telemetry)

        def fleet_off(request):
            self._run_fleet(request, None)

        def single(request):
            self._scheduler(self.telemetry).schedule_batch(
                self._items(request),
                fault_plan=FaultPlan.from_seed(request.seed),
                resilience=self._resilience(request),
                fleet=FleetParams(num_shards=1),
            )

        variants = {"on": (fleet_on, True), "single": (single, True), "off": (fleet_off, False)}
        best: Dict[str, float] = {}
        for label in ("on", "single", "off", "off", "single", "on"):
            serve, instrumented = variants[label]
            with profile_session(self.profiler) if instrumented else contextlib.nullcontext():
                start = time.perf_counter()
                for request in subset:
                    serve(request)
                elapsed = time.perf_counter() - start
            best[label] = min(elapsed, best.get(label, elapsed))
        self.tracer = tracer
        return {
            "fleet.overhead_pct": 100.0 * (best["on"] - best["single"]) / best["single"],
            "obs.overhead_pct": 100.0 * (best["on"] - best["off"]) / best["off"],
        }


WORKLOADS = {w.name: w for w in (SuiteVectorized, SuiteSequential, HostileVerified, FleetChaos)}
