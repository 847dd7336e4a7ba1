"""Benchmark-harness fixtures.

Each ``bench_*.py`` regenerates one table or figure of the paper and prints
it. The suite scale is selected with ``REPRO_SCALE`` (default ``test`` here
so ``pytest benchmarks/ --benchmark-only`` completes in minutes; use
``REPRO_SCALE=default`` for the numbers recorded in EXPERIMENTS.md).

The expensive artifacts (the suite compiled under every scheduler) are
shared across benches through a session-scoped context, so each bench's
*measured* time is the table's own computation on top of the shared runs;
the first bench that needs a given compile run pays for it.

Set ``REPRO_TRACE=/path/to/trace.jsonl`` to record the whole bench
session's telemetry (region outcomes, ACO iterations, simulated kernel
launches) as JSONL; summarize it afterwards with
``python -m repro.telemetry.report /path/to/trace.jsonl``. Set
``REPRO_PROFILE=/path/to/stacks.txt`` to span-profile the session's
simulated time and write the collapsed-stack file (flamegraph.pl /
speedscope input; the span tree is printed to stdout at session end).

Set ``REPRO_CHAOS=<seed>`` to run the whole bench session under the
deterministic fault model: the session context hands its pipelines
``ResilienceParams(chaos_seed=<seed>)``, so every region passes through the
retry ladder, and the session prints the resilience summary (faults,
retries, degrades) at the end, rendered from the session's event stream
by an aggregator on the context's telemetry. The benches must still complete — recovery
is the point — but their numbers are *not* comparable to fault-free
baselines (retries burn budget), so chaos sessions are for robustness
checking, not regression gating.
"""

from __future__ import annotations

import os
from contextlib import ExitStack

import pytest

from repro.config import ResilienceParams
from repro.experiments import SCALES
from repro.experiments.common import ExperimentContext
from repro.obs import AggregatingSink, render_resilience
from repro.profile import SpanProfiler, profile_session, render_tree, write_collapsed
from repro.telemetry import JSONLSink, TeeSink, Telemetry


@pytest.fixture(scope="session")
def context():
    scale_name = os.environ.get("REPRO_SCALE", "test")
    if scale_name not in SCALES:
        raise pytest.UsageError(
            "unknown REPRO_SCALE %r (valid scales: %s)"
            % (scale_name, ", ".join(sorted(SCALES)))
        )
    scale = SCALES[scale_name]

    trace_path = os.environ.get("REPRO_TRACE")
    stacks_path = os.environ.get("REPRO_PROFILE")
    chaos = os.environ.get("REPRO_CHAOS", "").strip()
    resilience = None
    sinks = [JSONLSink(trace_path)] if trace_path else []
    with ExitStack() as stack:
        if chaos:
            resilience = ResilienceParams(chaos_seed=int(chaos))
            aggregating = AggregatingSink()
            sinks.append(aggregating)
            print("\n[chaos] bench session under REPRO_CHAOS=%s" % chaos)

            def _report() -> None:
                summary = render_resilience(aggregating.aggregator) or "clean"
                print("\n[chaos] resilience summary: %s" % summary)

            stack.callback(_report)
        telemetry = None
        if sinks:
            telemetry = Telemetry(sink=TeeSink(*sinks))
            stack.callback(telemetry.close)
        profiler = None
        if stacks_path:
            profiler = SpanProfiler()
            stack.enter_context(profile_session(profiler))
        yield ExperimentContext(scale, telemetry=telemetry, resilience=resilience)
        if profiler is not None:
            print()
            print(render_tree(profiler.root))
            write_collapsed(stacks_path, profiler.root)
            print("[collapsed stacks written to %s]" % stacks_path)


@pytest.fixture(scope="session")
def warm_context(context):
    """Context with the three standard compile runs already built."""
    context.run("baseline")
    context.run("sequential")
    context.run("parallel")
    context.run("cp")
    return context


def render_result(result) -> str:
    if isinstance(result, list):
        return "\n".join(t.render() for t in result)
    return result.render()
