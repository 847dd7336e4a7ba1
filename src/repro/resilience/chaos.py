"""Chaos harness: prove injection -> detection -> recovery per fault class.

One harness serves two layers; a :class:`ChaosLayer` holds what differs.
:func:`fault_class_proofs` forces each fault class at rate 1.0 and
demands that every trial passes; :func:`chaos_sweep` runs pinned seeds at
mixed rates; :func:`bitcheck` records the sweep twice and diffs the
bundles. :data:`LADDER` is the per-region retry ladder, whose trials pass
when the shipped schedule re-validates against the DDG;
``repro.fleet.chaos.FLEET`` is the sharded batch layer.

Runnable as a module — CI's chaos-sweep job is exactly::

    python -m repro.resilience.chaos --bitcheck bitcheck

Exit status: 0 when every proof, sweep trial and recording passed; 1
otherwise; 2 on a malformed comma list.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import ACOParams, GPUParams, ResilienceParams
from ..ddg.graph import DDG
from ..gpusim.faults import DEFAULT_CHAOS_RATES, FAULT_CLASSES, FaultPlan
from ..machine.model import MachineModel
from ..machine.targets import amd_vega20
from ..schedule.validate import is_legal
from ..suite.patterns import random_region
from .ladder import schedule_with_resilience
from .log import ResilienceLog, resilience_log_session

#: The pinned sweep CI runs (arbitrary but fixed: changing them changes
#: which faults the sweep sees, so treat edits like baseline updates).
PINNED_SEEDS: Tuple[int, ...] = (11, 23, 37, 58, 71, 94)

#: Region sizes for the chaos suite — small on purpose: the harness is
#: about fault paths, not search quality, and must stay CI-fast.
DEFAULT_SIZES: Tuple[int, ...] = (10, 12, 14)

#: ``run(plan, chaos_seed)``: one trial per case under one fault plan.
TrialRunner = Callable[[FaultPlan, int], List[Any]]


@dataclass(frozen=True)
class ChaosLayer:
    """What one layer plugs into the harness.

    Its trials are dataclasses with ``fault_counts`` (class -> faults),
    ``recovered``, ``ok`` and a writable ``schedules_valid``.
    """

    name: str  # output prefix "[name]" and bitcheck bundle prefix
    prog: str
    description: str
    #: ``--help`` text per flag, in ``--help`` order. Flags are ``seeds``,
    #: ``sizes``, ``skip-proofs``, ``bitcheck``, ``out`` or an option name.
    flags: Mapping[str, str]
    fault_classes: Tuple[str, ...]
    rates: Mapping[str, float]  # the sweep's default mixed rates
    sizes: Tuple[int, ...]
    trials: Callable[..., TrialRunner]  # (machine, sizes, proof, **options)
    recorded: str  # what the bitcheck recorded, for its verdict line
    summary: str  # str.format template over the report and its totals
    totals: Tuple[str, ...]  # trial attributes the report sums
    verdicts: Tuple[str, str]  # summary verdict: (some failed, all passed)
    proof_failure: str  # printed when a forced-fault trial did not recover
    #: Extra comma-list flags and their defaults, passed on as keywords.
    options: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)


@dataclass
class ChaosReport:
    """Aggregate of a sweep or of the per-class proofs."""

    layer: ChaosLayer
    trials: List[Any] = field(default_factory=list)

    @property
    def faults_by_class(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for trial in self.trials:
            for name, count in trial.fault_counts.items():
                counts[name] = counts.get(name, 0) + count
        return counts

    @property
    def faulted_trials(self) -> List[Any]:
        return [t for t in self.trials if any(t.fault_counts.values())]

    @property
    def recovery_rate(self) -> float:
        """Fraction of faulted trials that recovered."""
        faulted = self.faulted_trials
        if not faulted:
            return 1.0
        return sum(1 for t in faulted if t.recovered) / len(faulted)

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.trials)

    def total(self, name: str) -> float:
        """One trial attribute summed over the report."""
        return sum(getattr(t, name) for t in self.trials)

    def summary(self) -> str:
        faults = ", ".join("%s=%d" % kv for kv in sorted(self.faults_by_class.items()))
        return self.layer.summary.format(
            trials=len(self.trials),
            faults=faults or "none",
            recovery=100.0 * self.recovery_rate,
            verdict=self.layer.verdicts[self.all_ok],
            **{name: self.total(name) for name in self.layer.totals},
        )

    def to_json(self) -> Dict:
        """Deterministic JSON payload (the CI recovery-proof artifact)."""
        return {
            "trials": [asdict(t) for t in self.trials],
            "faults_by_class": self.faults_by_class,
            "recovery_rate": self.recovery_rate,
            "all_ok": self.all_ok,
            **{name: self.total(name) for name in self.layer.totals},
        }


def _report(layer, machine, sizes, proof, plans, options) -> ChaosReport:
    sizes = layer.sizes if sizes is None else sizes
    run = layer.trials(machine or amd_vega20(), sizes, proof, **options)
    report = ChaosReport(layer)
    for plan, chaos_seed in plans:
        report.trials.extend(run(plan, chaos_seed))
    return report


def fault_class_proofs(
    layer: ChaosLayer,
    machine: Optional[MachineModel] = None,
    sizes: Optional[Sequence[int]] = None,
    **options,
) -> ChaosReport:
    """Force each fault class at rate 1.0 and demand full recovery."""
    plans = [(FaultPlan(seed=1, rates={c: 1.0}), 1) for c in layer.fault_classes]
    report = _report(layer, machine, sizes, True, plans, options)
    for trial in report.trials:
        if not any(trial.fault_counts.values()):
            trial.schedules_valid = False  # rate-1.0 must inject
    return report


def chaos_sweep(
    layer: ChaosLayer,
    seeds: Sequence[int] = PINNED_SEEDS,
    machine: Optional[MachineModel] = None,
    sizes: Optional[Sequence[int]] = None,
    rates: Optional[Dict[str, float]] = None,
    **options,
) -> ChaosReport:
    """Run the layer's cases under every chaos seed at mixed fault rates."""
    plans = [(FaultPlan(seed=s, rates=dict(rates or layer.rates)), s) for s in seeds]
    return _report(layer, machine, sizes, False, plans, options)


def bitcheck(
    layer: ChaosLayer,
    seeds: Sequence[int],
    sizes: Sequence[int],
    out_dir: str,
    **options,
) -> Tuple[bool, Dict]:
    """Record the sweep twice under ``out_dir`` and diff the two bundles."""
    import os

    from ..obs.diff import diff_bundles, write_report
    from ..obs.record import record_run

    paths = [os.path.join(out_dir, "%s-%s" % (layer.name, x)) for x in "ab"]
    for path in paths:
        with record_run(path):
            chaos_sweep(layer, seeds, sizes=sizes, **options)
    report = diff_bundles(paths[0], paths[1])
    if not report["identical"]:
        write_report(report, os.path.join(out_dir, "first-divergence.json"))
    return bool(report["identical"]), report


# -- the retry-ladder layer --------------------------------------------------


@dataclass
class RegionTrial:
    """One region run through the ladder under one fault plan."""

    chaos_seed: int
    faults: Tuple[Tuple[str, str, int], ...]  # (class, rung, attempt)
    recovered: bool  # shipped a real ACO result
    schedules_valid: bool  # shipped schedule passed independent validation
    spent_seconds: float
    result_seconds: float  # 0.0 when degraded

    @property
    def fault_counts(self) -> Dict[str, int]:
        return Counter(fault_class for fault_class, _rung, _attempt in self.faults)

    @property
    def ok(self) -> bool:
        return self.schedules_valid

    @property
    def degraded(self) -> bool:
        return not self.recovered

    @property
    def retry_overhead_seconds(self) -> float:
        """Budget spent beyond the successful attempt's own cost."""
        return max(0.0, self.spent_seconds - self.result_seconds)


def chaos_regions(
    machine: MachineModel, sizes: Sequence[int] = DEFAULT_SIZES, seed: int = 5
) -> List[DDG]:
    """The harness's region set: one random region per requested size."""
    rng = random.Random(seed)
    return [
        DDG(random_region(rng, size, name="chaos_%02d" % size))
        for size in sizes
    ]


def _ladder_trials(
    machine: MachineModel, sizes: Sequence[int], proof: bool
) -> TrialRunner:
    from ..parallel.scheduler import ParallelACOScheduler

    regions = chaos_regions(machine, sizes)
    # At rate 1.0 one retry reaches the downgrade; the sweep allows two.
    resilience = ResilienceParams(enabled=True, max_retries=1 if proof else 2)

    def trial(ddg: DDG, plan: FaultPlan, chaos_seed: int) -> RegionTrial:
        # Small colony: the fault surface (launches, transfers,
        # iterations) is identical, only the search is cheaper — 4 blocks
        # instead of the production 180, and a tight iteration cap.
        scheduler = ParallelACOScheduler(
            machine,
            params=ACOParams(max_iterations=12),
            gpu_params=GPUParams(blocks=4),
        )
        with resilience_log_session(ResilienceLog()):
            outcome = schedule_with_resilience(
                scheduler, ddg, 0, resilience, fault_plan=plan
            )
        result = outcome.result
        return RegionTrial(
            chaos_seed=chaos_seed,
            faults=outcome.faults,
            recovered=result is not None,
            schedules_valid=result is None or is_legal(result.schedule, ddg, machine),
            spent_seconds=outcome.spent_seconds,
            result_seconds=0.0 if result is None else result.seconds,
        )

    return lambda plan, chaos_seed: [trial(d, plan, chaos_seed) for d in regions]


LADDER = ChaosLayer(
    name="chaos",
    prog="python -m repro.resilience.chaos",
    description="Chaos harness: per-class fault proofs + seed sweep.",
    flags={
        "seeds": "comma-separated chaos seeds for the mixed-rate sweep",
        "sizes": "comma-separated region sizes for the chaos suite",
        "skip-proofs": "run only the mixed-rate sweep (skip the rate-1.0 proofs)",
        "bitcheck": "additionally record the sweep twice into DIR and diff "
        "the run bundles; a mismatch writes DIR/first-divergence.json and "
        "fails the harness",
    },
    fault_classes=FAULT_CLASSES,
    rates=DEFAULT_CHAOS_RATES,
    sizes=DEFAULT_SIZES,
    trials=_ladder_trials,
    recorded="sweeps",
    summary="{trials} trial(s), faults [{faults}], recovery rate "
    "{recovery:.0f}%, {degraded} degraded, retry overhead "
    "{retry_overhead_seconds:.3g}s, schedules {verdict}",
    totals=("degraded", "retry_overhead_seconds"),
    verdicts=("INVALID", "all valid"),
    proof_failure="a forced-fault region lost its ACO result",
)


# -- the command line of both layers -----------------------------------------

#: argparse keywords of the flags that are not comma lists.
_SWITCHES: Dict[str, Dict[str, Any]] = {
    "skip-proofs": {"action": "store_true"},
    "out": {"metavar": "FILE"},
    "bitcheck": {"metavar": "DIR"},
}


def main(argv: Optional[Sequence[str]] = None, layer: ChaosLayer = LADDER) -> int:
    """Run the layer's proofs, sweep and bitcheck; return the exit status."""
    import argparse
    import json
    import os

    parser = argparse.ArgumentParser(prog=layer.prog, description=layer.description)
    parser.set_defaults(out=None)
    lists = {"seeds": PINNED_SEEDS, "sizes": layer.sizes, **layer.options}
    for flag, text in layer.flags.items():
        if flag in lists:
            default = ",".join(str(v) for v in lists[flag])
            parser.add_argument("--" + flag, default=default, help=text)
        else:
            parser.add_argument("--" + flag, help=text, **_SWITCHES[flag])
    args = parser.parse_args(argv)
    options = {}
    for name in lists:
        try:
            options[name] = tuple(int(v) for v in getattr(args, name).split(","))
        except ValueError:
            options[name] = ()
        if not options[name] or min(options[name]) < 1:
            parser.error("--%s takes comma-separated positive integers" % name)
    seeds, sizes = options.pop("seeds"), options.pop("sizes")

    tag = "[%s]" % layer.name
    failed = False
    payload: Dict = {}
    if not args.skip_proofs:
        proofs = fault_class_proofs(layer, sizes=sizes, **options)
        print("%s per-class proofs: %s" % (tag, proofs.summary()))
        for fault_class in layer.fault_classes:
            if not proofs.faults_by_class.get(fault_class):
                print("%s FAIL: class %r never injected" % (tag, fault_class))
        if proofs.recovery_rate < 1.0:
            print("%s FAIL: %s" % (tag, layer.proof_failure))
        # A class that never fired left its trials invalid: not all_ok.
        failed = proofs.recovery_rate < 1.0 or not proofs.all_ok
        payload["proofs"] = proofs.to_json()

    sweep = chaos_sweep(layer, seeds=seeds, sizes=sizes, **options)
    print("%s mixed-rate sweep: %s" % (tag, sweep.summary()))
    failed = failed or not sweep.all_ok
    payload["sweep"] = sweep.to_json()

    if args.bitcheck:
        identical, report = bitcheck(layer, seeds, sizes, args.bitcheck, **options)
        payload["bitcheck_identical"] = identical
        if identical:
            print("%s bitcheck: recorded %s byte-identical" % (tag, layer.recorded))
        else:
            from ..obs.diff import render_report

            print("%s FAIL: recorded %s diverged" % (tag, layer.recorded))
            print(render_report(report), end="")
            failed = True

    if args.out:
        payload["ok"] = not failed
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("%s recovery proof written to %s" % (tag, args.out))

    print("%s %s" % (tag, "FAILED" if failed else "OK"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
