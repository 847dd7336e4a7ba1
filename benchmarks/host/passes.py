"""One pass of one workload, in the process that runs this file.

``run.py`` starts a fresh process per pass, so every pass regenerates its
inputs and no in-process state survives from one pass to the next::

    python benchmarks/host/passes.py --workload suite_sequential --seed 1 --traced 0

prints one JSON record: set-up time, peak RSS, and per request its latency,
schedule digest, modeled seconds and error. A traced pass also returns its
spans and the layer counters; a set-up-only pass (``--setup-only 1``) stops
after set-up and returns its time alone.

A fixed calibration kernel runs before the first request and after every
request, so each latency comes with the kernel's time around it: on a
shared machine whose speed drifts by tens of percent from second to
second, the kernel slows down with the program (correlation ~0.85 here)
and ``run.py`` divides the drift out.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from typing import Dict, Optional

import numpy

from workloads import WORKLOADS, NullTracer, Tracer

#: Calibration kernel runs the set-up time is scaled by (their median).
SETUP_CALIBRATIONS = 5


def calibrate() -> float:
    """Seconds a fixed mix of interpreter and small-array NumPy work takes
    (~3 ms on a quiet 2-core Xeon container)."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i
    a = numpy.arange(64.0)
    for _ in range(300):
        a = numpy.maximum(a * 0.5, a[::-1]) + 1.0
    return time.perf_counter() - start


def run_pass(
    workload: str,
    seed: int,
    traced: bool,
    limit: Optional[int] = None,
    spawned: Optional[float] = None,
    setup_only: bool = False,
) -> Dict:
    """Run one pass in this process and return its record.

    ``spawned`` is the ``time.monotonic()`` reading taken just before this
    process was started; set-up time runs from there to the end of the
    warm-up request.
    """
    if spawned is None:
        spawned = time.monotonic()
    tracer = Tracer() if traced else NullTracer()
    w = WORKLOADS[workload](seed, tracer, limit)
    records = []
    outcomes = []
    with w.session():
        calibrate()
        w.warm_up()
        setup_s = time.monotonic() - spawned
        if traced:
            tracer.spans.clear()
        # One kernel run is too noisy a speed reading for a single time.
        calibration = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        setup_calibration_s = statistics.median(calibration)
        if setup_only:
            return {"setup_s": setup_s, "setup_calibration_s": setup_calibration_s}
        for index, request in enumerate(w.requests):
            tracer.request = index
            error = None
            outcome = None
            start = time.perf_counter()
            try:
                with tracer.span("request"):
                    outcome = w.serve(request)
            except Exception as exc:  # a failing request is counted; the pass goes on
                error = "%s: %s" % (type(exc).__name__, exc)
            latency = time.perf_counter() - start
            calibration.append(calibrate())
            outcomes.append(outcome)
            records.append({
                "id": request.id,
                "regions": w.regions(request),
                "latency_s": latency,
                "calibration_s": 0.5 * (calibration[-2] + calibration[-1]),
                "error": error,
            })
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the timed window.
    for index, (record, outcome) in enumerate(zip(records, outcomes)):
        record["digest"] = None
        record["modeled_s"] = None
        if outcome is None:
            continue
        tracer.request = index
        key, modeled, shipped, error = w.describe(outcome)
        record.update(digest=key, modeled_s=modeled, error=error)
        try:
            with tracer.span("check"):
                for item in shipped:
                    w.check(item, traced)
        except Exception as exc:  # an illegal schedule fails its request
            record["error"] = "check: %s: %s" % (type(exc).__name__, exc)

    result = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "requests": records,
    }
    if traced:
        counters = w.counters(outcomes)
        counters.update(w.overheads())
        result.update(counters=counters, spans=tracer.spans)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    record = run_pass(
        args.workload, args.seed, bool(args.traced), args.requests, args.spawned,
        bool(args.setup_only),
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
