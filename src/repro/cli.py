"""Command-line interface: ``repro <experiment> [--scale NAME]``.

``repro list`` shows the available experiments; ``repro all`` runs every
table and figure in paper order. The scale (suite size and launch
geometry) defaults to ``default``.

The flags below fix the run's configuration once: :func:`main` folds them
into the scale's parameters, a :class:`~repro.config.ResilienceParams`
and a ``verify`` flag, and hands those to the
:class:`~repro.experiments.common.ExperimentContext` it builds. Nothing
travels through the process environment.

Observability: ``--trace PATH`` streams every telemetry event (regions,
ACO iterations, simulated kernel launches — the schema of
:mod:`repro.telemetry.schema`) to a JSONL file and prints its profile;
``--metrics`` prints the counters, gauges and histogram quantiles that
every run folds from its event stream into one
:class:`~repro.obs.MetricsAggregator`; ``--profile``
renders the hierarchical span profile of the run's simulated time and
``--profile-stacks PATH`` writes it in collapsed-stack format for
flamegraph/speedscope tooling (see :mod:`repro.profile`); ``--watch``
renders the :mod:`repro.obs` terminal dashboard, judged against
``--slo-target``. A run writes only primary artifacts (``--trace``,
``--record``, ``--profile-stacks``); the OpenMetrics, snapshot and
Perfetto exports are views of the trace, written offline by
``python -m repro.obs TRACE --openmetrics/--snapshot/--perfetto PATH``.
All of them leave results bit-identical: observability observes, it
never steers.

Backends: ``--backend loop|vectorized`` selects the parallel scheduler's
ant-construction engine (the scale's ``gpu.backend``). Both engines produce
bit-identical seeded schedules; they differ in which kernel the cost
accounting simulates (see :mod:`repro.parallel.colony`).

Strategies: ``--strategy as|mmas`` selects the pheromone-update rule set
for both schedulers (the scale's ``aco.strategy``): the paper's Ant System
("as", default) or MAX-MIN Ant System ("mmas" — clamped pheromone,
best-only deposit, stagnation restarts; see :mod:`repro.aco.strategy`).

Verification: ``--verify`` turns on the scheduler sanitizer
(:mod:`repro.analysis`) — every shipped schedule is independently
rechecked, DDGs are linted, and the GPU simulation bounds-checks every
computed per-ant state index. Results stay bit-identical; the run only gets
slower.

Resilience: ``--deadline SECONDS`` caps each region's scheduling budget,
``--chaos SEED`` injects deterministic GPU faults, and ``--max-retries N``
sizes the retry ladder (see :mod:`repro.resilience`). Exit codes encode
the outcome: 0 with a warning summary when every region shipped (even
degraded to the heuristic), 2 for a bad flag value or an output path that
cannot be written, 3 when any region was unrecoverable. The
``[resilience]`` summary and the exit code are read from the run's
aggregator (:func:`repro.obs.render_resilience`), so replaying a
``--trace`` file yields the same line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List


def _render(result) -> str:
    if isinstance(result, list):
        return "\n".join(table.render() for table in result)
    return result.render()


def _writable(path: str, directory: bool) -> bool:
    """Whether the run can write ``path``: a file, or a directory that
    is made on demand (any missing parents included)."""
    target = os.path.abspath(path)
    if os.path.exists(target):
        return os.path.isdir(target) == directory and os.access(target, os.W_OK)
    parent = os.path.dirname(target)
    while directory and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


def main(argv: List[str] = None) -> int:
    from .config import ResilienceParams, replace_params
    from .errors import ConfigError
    from .experiments import EXPERIMENTS, SCALES, ExperimentContext
    from .obs.record import DRAW_LEVELS, RunRecorder
    from .obs.slo import DEFAULT_SLO_TARGET, slo_target_arg

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Instruction Scheduling for the GPU on the GPU' "
            "(CGO 2024): regenerate the paper's tables and figures on the "
            "simulated device."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (%s), 'all', or 'list'" % ", ".join(sorted(EXPERIMENTS)),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="experiment scale (default: %(default)s)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each table as a CSV file into DIR (the paper's "
        "artifact emits spreadsheets)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL telemetry trace of the run to PATH and print "
        "its profile (see repro.telemetry)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="fold the run's event stream into counters, gauges and "
        "histograms (see repro.obs.aggregate) and print them at the end",
    )
    parser.add_argument(
        "--record",
        metavar="DIR",
        default=None,
        help="record the run as a canonical bundle directory (events, "
        "metrics, schedules, RNG draw digests) diffable with "
        "python -m repro.obs.diff",
    )
    parser.add_argument(
        "--record-draws",
        choices=DRAW_LEVELS,
        default="digest",
        help="how --record captures RNG draws: chained digests (default), "
        "full raw values, or off",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run's simulated time with the span profiler and "
        "print the span tree at the end (see repro.profile)",
    )
    parser.add_argument(
        "--profile-stacks",
        metavar="PATH",
        default=None,
        help="write the span profile in collapsed-stack format to PATH "
        "(feed to flamegraph.pl or speedscope); implies --profile",
    )
    parser.add_argument(
        "--backend",
        choices=("loop", "vectorized"),
        default=None,
        help="ant-construction engine for the parallel scheduler: the "
        "lockstep batch engine ('vectorized', default) or the scalar "
        "per-ant reference engine with the divergent cost model ('loop'; "
        "see repro.parallel.colony)",
    )
    parser.add_argument(
        "--strategy",
        choices=("as", "mmas"),
        default=None,
        help="pheromone-update strategy for both schedulers: the paper's "
        "Ant System ('as', default) or MAX-MIN Ant System ('mmas'; see "
        "repro.aco.strategy)",
    )
    parser.add_argument(
        "--deadline",
        metavar="SECONDS",
        type=float,
        default=None,
        help="per-region scheduling deadline in cost-model seconds; both "
        "ACO passes and every retry share the budget, and a region that "
        "runs out ships its best-so-far schedule (see repro.resilience)",
    )
    parser.add_argument(
        "--max-retries",
        metavar="N",
        type=int,
        default=ResilienceParams.max_retries,
        help="retries per resilience-ladder rung before degrading to the "
        "next engine (default: %(default)s; only meaningful with "
        "--deadline or --chaos)",
    )
    parser.add_argument(
        "--chaos",
        metavar="SEED",
        type=int,
        default=None,
        help="inject deterministic GPU faults (launch failures, transfer "
        "corruption, hangs, OOM) driven by SEED and recover via the retry "
        "ladder (see repro.resilience)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="forbid the resilience ladder's engine downgrade: a region "
        "whose retries are exhausted is reported unrecoverable (exit 3) "
        "instead of shipping its heuristic schedule",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run the scheduler sanitizer: independent verification of "
        "every shipped schedule, DDG/closure linting and bounds checks on "
        "per-ant state indices in the GPU simulation (see repro.analysis)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="render the repro.obs terminal dashboard (throughput, latency "
        "percentiles, backend mix, SLO burn) from the run's event stream "
        "after the experiments finish",
    )
    parser.add_argument(
        "--slo-target",
        metavar="FRACTION",
        type=slo_target_arg,
        default=DEFAULT_SLO_TARGET,
        help="region-success SLO target for the dashboard "
        "(default %(default)s; a region violates by tripping its deadline or "
        "shipping degraded/unrecoverable)",
    )
    args = parser.parse_args(argv)

    resilience = ResilienceParams(
        deadline_seconds=args.deadline,
        max_retries=args.max_retries,
        degrade=not args.no_degrade,
        chaos_seed=args.chaos,
    )
    try:
        resilience.validate()
    except ConfigError as exc:
        parser.error(str(exc))

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    scale = SCALES[args.scale]
    if args.strategy:
        aco = replace_params(scale.aco, strategy=args.strategy)
        scale = replace_params(scale, aco=aco)
    if args.backend:
        gpu = replace_params(scale.gpu, backend=args.backend)
        scale = replace_params(scale, gpu=gpu)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown), file=sys.stderr)
        print("available: %s" % ", ".join(sorted(EXPERIMENTS)), file=sys.stderr)
        return 2

    for flag, path, directory in (
        ("--trace", args.trace, False),
        ("--profile-stacks", args.profile_stacks, False),
        ("--record", args.record, True),
        ("--csv", args.csv, True),
    ):
        if path and not _writable(path, directory):
            parser.error("%s: cannot write to %r" % (flag, path))

    csv_dir = None
    if args.csv:
        csv_dir = args.csv
        os.makedirs(csv_dir, exist_ok=True)

    from contextlib import ExitStack

    from .obs import AggregatingSink, MetricsAggregator
    from .telemetry import JSONLSink, Telemetry, TeeSink

    # Every run folds its event stream into one aggregator: the metrics
    # table, the dashboard and the resilience summary are views of it.
    aggregator = MetricsAggregator(slo_target=args.slo_target)
    sink = AggregatingSink(aggregator)
    if args.trace:
        sink = TeeSink(JSONLSink(args.trace), sink)
    recorder = RunRecorder(draws=args.record_draws) if args.record else None
    telemetry = Telemetry(sink=sink, recorder=recorder)
    stack = ExitStack()
    stack.callback(telemetry.close)
    context = ExperimentContext(
        scale, telemetry=telemetry, verify=args.verify, resilience=resilience
    )

    profiler = None
    if args.profile or args.profile_stacks:
        from .profile import SpanProfiler, profile_session

        profiler = SpanProfiler()
        stack.enter_context(profile_session(profiler))

    with stack:
        for name in names:
            started = time.time()
            result = EXPERIMENTS[name](context)
            print(_render(result))
            if csv_dir is not None:
                tables = result if isinstance(result, list) else [result]
                for table in tables:
                    path = os.path.join(csv_dir, table.csv_filename())
                    with open(path, "w") as handle:
                        handle.write(table.to_csv())
                    print("[wrote %s]" % path)
            print("[%s finished in %.1fs]\n" % (name, time.time() - started))

    from .obs import render_dashboard, render_metrics, render_resilience, summarize_trace

    if args.trace:
        print("[trace written to %s]" % args.trace)
        print(summarize_trace(args.trace))
    if args.metrics:
        print(render_metrics(aggregator))
    if args.watch:
        print(render_dashboard(aggregator))
    if profiler is not None:
        from .profile import render_tree, write_collapsed

        print(render_tree(profiler.root))
        if args.profile_stacks:
            write_collapsed(args.profile_stacks, profiler.root)
            print("[collapsed stacks written to %s]" % args.profile_stacks)

    if recorder is not None:
        if profiler is not None:
            from .obs.record import span_tree_payload

            recorder.set_spans(span_tree_payload(profiler.root))
        recorder.save(args.record)
        print("[run bundle written to %s]" % args.record)

    summary = render_resilience(aggregator)
    if summary is not None:
        # Degraded-but-shipped compiles warn and exit 0 (every region got
        # a correct schedule); an unrecoverable region is a real failure.
        print("[resilience] %s" % summary, file=sys.stderr)
        if aggregator.counters.get("regions.decision.unrecoverable"):
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
