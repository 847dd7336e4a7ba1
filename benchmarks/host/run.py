"""Host-time benchmark: how long the reproduction really takes, per workload
and per layer, with every output checked.

Two ways to run it, both from the repository root:

* every workload, 3 timed passes each in round-robin order plus one traced
  pass, writing ``host-out/results.json`` and ``host-out/trace.json``::

      python benchmarks/host/run.py --seed 1 --out host-out

* one workload, timed passes for ``--seconds`` (``--trace 0``) or one timed
  and one traced pass (``--trace 1``); the last line of the output is one
  JSON object with the end-to-end or the per-layer metrics::

      python benchmarks/host/run.py --workload suite_sequential --seed 1 --seconds 24 --trace 0

Each pass runs in a fresh child process (see ``passes.py``) with
single-threaded BLAS; only one child runs at a time. Times are host seconds
at reference speed: each is scaled by ``CALIBRATION_REF_S`` over the time a
fixed calibration kernel took around it. A request's latency is its median
over the timed passes; set-up time is the median over at least
``SETUP_SAMPLES`` set-ups, topped up with set-up-only passes. The exit
status is 1 when any request failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("suite_vectorized", "suite_sequential", "hostile_verified", "fleet_chaos")

#: End-to-end metrics (timed passes): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "regions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer times: metric -> span whose self time it sums.
LAYER_SPANS = {
    "ir.parse_s": "ir.parse",
    "ddg.build_s": "ddg.build",
    "ddg.bounds_s": "ddg.bounds",
    "heuristics.schedule_s": "heuristics.schedule",
    "rp.evaluate_s": "rp.evaluate",
    "analysis.verify_s": "analysis.verify",
    "pipeline.self_s": "pipeline.compile_region",
    "parallel.schedule_s": "parallel.schedule",
    "aco.schedule_s": "aco.schedule",
    "fleet.batch_s": "fleet.schedule_batch",
}

#: Per-layer metrics (traced pass): name -> unit. A layer a workload never
#: enters reads 0.
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    "pipeline.aco_invoked_ratio": "ratio",
    "pipeline.aco_applied_ratio": "ratio",
    "parallel.iterations": "count",
    "parallel.ms_per_iteration": "ms",
    "aco.iterations": "count",
    "aco.ms_per_iteration": "ms",
    "fleet.dispatches_per_region": "ratio",
    "fleet.reassignments": "count",
    "fleet.recovered_regions": "count",
    "resilience.attempts_per_region": "ratio",
    "fleet.overhead_pct": "%",
    "obs.events": "count",
    "obs.overhead_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.layer_coverage_pct": "%",
}

#: The calibration kernel's time at reference speed (a quiet 2-core Xeon
#: container): a time measured while the kernel took this long is reported
#: unchanged, one measured while it took twice as long is halved.
CALIBRATION_REF_S = 3.0e-3

#: Relative tolerance on modeled seconds against the committed references
#: (last-bit float differences only; any model change is far larger).
MODELED_REL_TOL = 1e-9

#: Timed passes per workload when every workload runs.
TIMED_PASSES = 3

#: Fewest set-ups ``setup_s`` is the median of, per workload and run.
SETUP_SAMPLES = 5

#: Wall-clock caps of a whole run: one workload (which must end within
#: 180 s), and every workload (twice the 5-minute design target, since the
#: same full run took 2.3 to 4.3 minutes as the shared machine's speed
#: changed).
RUN_CAP_S = 170.0
FULL_RUN_CAP_S = 600.0


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to the program failing)."""


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def speed_factors(record: Dict) -> List[float]:
    """Per request: reference over measured calibration time."""
    return [CALIBRATION_REF_S / q["calibration_s"] for q in record["requests"]]


def latencies(record: Dict) -> List[float]:
    """A pass's request latencies at reference speed."""
    return [q["latency_s"] * f for q, f in zip(record["requests"], speed_factors(record))]


def merge_median(records: Sequence[Dict]) -> List[float]:
    """Per-request latency: the median over passes of the scaled latencies.
    Unlike the minimum, its expectation does not fall as a longer budget
    fits more passes in."""
    ids = [q["id"] for q in records[0]["requests"]]
    for record in records[1:]:
        if [q["id"] for q in record["requests"]] != ids:
            raise BenchmarkError("passes of one workload saw different requests")
    return [statistics.median(column) for column in zip(*map(latencies, records))]


def setup_seconds(record: Dict) -> float:
    return record["setup_s"] * CALIBRATION_REF_S / record["setup_calibration_s"]


# -- child processes ---------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn_pass(
    workload: str,
    seed: int,
    traced: bool,
    limit: Optional[int],
    deadline: float,
    setup_only: bool = False,
) -> Dict:
    """Run one pass in a fresh child process and return its record; the
    pass must end by ``deadline`` (a ``time.monotonic()`` reading)."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced)),
           "--setup-only", str(int(setup_only))]
    if limit:
        cmd += ["--requests", str(limit)]
    cmd += ["--spawned", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("the run reached its time cap before a %s pass" % workload)
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("a %s pass ran into the run's time cap" % workload) from None
    if proc.returncode != 0:
        raise BenchmarkError(
            "%s pass exited %d:\n%s" % (workload, proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- correctness -------------------------------------------------------------------


def load_reference(seed: int) -> Optional[Dict]:
    path = HERE / "expected" / ("seed%d.json" % seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def failures(records: Sequence[Dict], reference: Optional[Dict]) -> Dict[str, str]:
    """Request id -> why it failed, over every pass of one workload."""
    failed: Dict[str, str] = {}
    for i, request in enumerate(records[0]["requests"]):
        rid = request["id"]
        errors = [r["requests"][i]["error"] for r in records if r["requests"][i]["error"]]
        if errors:
            failed[rid] = errors[0]
            continue
        results = {(r["requests"][i]["digest"], r["requests"][i]["modeled_s"]) for r in records}
        if len(results) > 1:
            failed[rid] = "passes shipped different schedules"
            continue
        if reference is None:
            continue
        key, modeled = results.pop()
        expected = reference.get(rid)
        if expected is None:
            failed[rid] = "no reference"
        elif expected[0] != key:
            failed[rid] = "schedule digest %s, reference %s" % (key, expected[0])
        elif not math.isclose(expected[1], modeled, rel_tol=MODELED_REL_TOL):
            failed[rid] = "modeled seconds %r, reference %r" % (modeled, expected[1])
    return failed


def combined_digest(record: Dict) -> str:
    text = "\n".join("%s %s %r" % (q["id"], q["digest"], q["modeled_s"]) for q in record["requests"])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- metrics -------------------------------------------------------------------------


def end_to_end(timed: Sequence[Dict], setups: Sequence[Dict]) -> Dict[str, float]:
    """``setups``: set-up-only records, whose set-ups count with the timed passes'."""
    merged = merge_median(timed)
    compile_s = sum(merged)
    regions = sum(q["regions"] for q in timed[0]["requests"])
    return {
        "setup_s": statistics.median(map(setup_seconds, list(timed) + list(setups))),
        "compile_s": compile_s,
        "regions_per_s": regions / compile_s,
        "latency_p50_ms": 1e3 * percentile(merged, 0.5),
        "latency_p90_ms": 1e3 * percentile(merged, 0.9),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in timed),
    }


def span_roots(spans: Sequence[list]) -> List[int]:
    roots: List[int] = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        roots.append(i if parent is None else roots[parent])
    return roots


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its (sequential) children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def per_layer(traced: Dict, timed: Sequence[Dict]) -> Dict[str, float]:
    spans = traced["spans"]
    roots = span_roots(spans)
    factors = speed_factors(traced)
    # Request spans take their request's speed factor; the checks ran later,
    # so they take the pass's median.
    untimed = statistics.median(factors)
    own = [
        seconds * (factors[span[4]] if spans[roots[i]][0] == "request" else untimed)
        for i, (span, seconds) in enumerate(zip(spans, self_times(spans)))
    ]
    by_name: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        by_name[span[0]] = by_name.get(span[0], 0.0) + seconds
    values = {metric: by_name.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    values.update({name: 0.0 for name in PER_LAYER if name not in values})
    values.update(traced["counters"])
    for engine in ("parallel", "aco"):
        iterations = values[engine + ".iterations"]
        if iterations:
            values[engine + ".ms_per_iteration"] = 1e3 * values[engine + ".schedule_s"] / iterations
    traced_s = sum(latencies(traced))
    fastest = min(sum(latencies(r)) for r in timed)
    values["bench.trace_overhead_pct"] = 100.0 * (traced_s - fastest) / fastest
    requests = [i for i, span in enumerate(spans) if span[3] is None and span[0] == "request"]
    glue_s = sum(own[i] for i in requests)
    values["bench.layer_coverage_pct"] = 100.0 * (1.0 - glue_s / traced_s)
    return values


def chrome_trace(traced: Dict[str, Dict]) -> Dict:
    """Chrome-trace JSON (opens in Perfetto): one process per workload,
    requests on thread 1, the untimed output checks on thread 2."""
    events = []
    for pid, (workload, record) in enumerate(traced.items(), start=1):
        spans = record["spans"]
        origin = min((s[1] for s in spans), default=0.0)
        roots = span_roots(spans)
        events.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": workload}})
        for tid, label in ((1, "requests (timed)"), (2, "checks (untimed)")):
            events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": {"name": label}}
            )
        for i, (name, start, end, parent, request) in enumerate(spans):
            events.append({
                "ph": "X",
                "name": name,
                "pid": pid,
                "tid": 1 if spans[roots[i]][0] == "request" else 2,
                "ts": 1e6 * (start - origin),
                "dur": 1e6 * (end - start),
                "args": {"request": record["requests"][request]["id"], "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(
    workload: str,
    timed: List[Dict],
    traced: Optional[Dict],
    setups: List[Dict],
    reference: Optional[Dict],
) -> Dict:
    records = timed + ([traced] if traced else [])
    failed = failures(records, reference.get(workload, {}) if reference is not None else None)
    first = timed[0]
    n = len(first["requests"])
    summary = {
        "requests": n,
        "regions": sum(q["regions"] for q in first["requests"]),
        "timed_passes": len(timed),
        "samples_beyond_p90": samples_beyond(n, 0.9),
        "attempted": n,
        "failed": len(failed),
        "error_rate": len(failed) / n,
        "failures": failed,
        "digest": combined_digest(first),
        "digests": {q["id"]: [q["digest"], q["modeled_s"]] for q in first["requests"]},
        "passes": [
            {"setup_s": setup_seconds(r), "peak_rss_mb": r["peak_rss_mb"],
             "compile_s": sum(latencies(r)),
             "unscaled_compile_s": sum(q["latency_s"] for q in r["requests"])}
            for r in timed
        ],
        "setup_only_s": [setup_seconds(r) for r in setups],
        "end_to_end": end_to_end(timed, setups),
    }
    if traced:
        summary["per_layer"] = per_layer(traced, timed)
    return summary


# -- output --------------------------------------------------------------------------


def print_summary(workload: str, summary: Dict, reference_name: Optional[str]) -> None:
    checked = (
        "outputs match %s" % reference_name if reference_name else "legality checked only"
    )
    print(
        "# %s: %d requests (%d regions), %d timed passes, %d samples beyond p90, "
        "%d failed; %s; digest %s"
        % (workload, summary["requests"], summary["regions"], summary["timed_passes"],
           summary["samples_beyond_p90"], summary["failed"], checked, summary["digest"])
    )
    for rid, why in sorted(summary["failures"].items()):
        print("# FAILED %s %s: %s" % (workload, rid, why))
    for group, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for name, unit in units.items():
            if group in summary:
                print("%-17s %-31s %-14.8g %s" % (workload, name, summary[group][name], unit))


def fingerprint() -> Dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from repro.bench.fingerprint import cost_model_digest, git_revision

    return {
        "git_rev": git_revision(str(ROOT)) or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cost_model_digest": cost_model_digest(),
    }


def write_results(out: Path, args, summaries: Dict, traced: Dict[str, Dict]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    results = {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "workloads": summaries,
    }
    (out / "results.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    if traced:
        (out / "trace.json").write_text(json.dumps(chrome_trace(traced)) + "\n")


# -- modes ---------------------------------------------------------------------------


#: A workload's passes: timed, traced (or None) and set-up-only.
Run = Tuple[List[Dict], Optional[Dict], List[Dict]]


def setup_top_up(args, workload: str, timed: List[Dict], deadline: float) -> List[Dict]:
    """Set-up-only passes that bring the set-ups up to ``SETUP_SAMPLES``."""
    return [
        spawn_pass(workload, args.seed, False, args.requests, deadline, setup_only=True)
        for _ in range(SETUP_SAMPLES - len(timed))
    ]


def run_one(args) -> Run:
    """Single-workload mode: timed passes for ``--seconds``, or one timed
    plus one traced pass."""
    start = time.monotonic()
    deadline = start + RUN_CAP_S

    def spawn(traced: bool) -> Dict:
        return spawn_pass(args.workload, args.seed, traced, args.requests, deadline)

    timed = []
    durations = []
    while True:
        began = time.monotonic()
        timed.append(spawn(False))
        durations.append(time.monotonic() - began)
        if args.trace:
            return timed, spawn(True), []
        # Stop when the next pass would likely end past the budget.
        if time.monotonic() - start + statistics.mean(durations) / 2 >= args.seconds:
            return timed, None, setup_top_up(args, args.workload, timed, deadline)


def run_all(args) -> Dict[str, Run]:
    """Full mode: every workload, round-robin timed passes, then a traced
    pass and the set-up top-up each."""
    deadline = time.monotonic() + FULL_RUN_CAP_S
    timed: Dict[str, List[Dict]] = {w: [] for w in WORKLOADS}
    for _ in range(TIMED_PASSES):
        for w in WORKLOADS:
            timed[w].append(spawn_pass(w, args.seed, False, args.requests, deadline))
    return {
        w: (timed[w], spawn_pass(w, args.seed, True, args.requests, deadline),
            setup_top_up(args, w, timed[w], deadline))
        for w in WORKLOADS
    }


def update_expected(seed: int, summaries: Dict) -> Path:
    path = HERE / "expected" / ("seed%d.json" % seed)
    path.parent.mkdir(exist_ok=True)
    payload = {w: s["digests"] for w, s in summaries.items()}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="single workload: how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single workload: 1 reports the per-layer metrics of a traced pass")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and trace.json "
                             "(full mode default: host-out)")
    parser.add_argument("--requests", type=int, default=None,
                        help="only the first N requests of each workload (self-test)")
    parser.add_argument("--update-expected", action="store_true",
                        help="full mode: record this run's digests as the seed's references")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no program source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.update_expected and (args.workload or args.requests):
        parser.error("--update-expected needs a full run of every workload")
    reference = None if args.update_expected else load_reference(args.seed)
    reference_name = "expected/seed%d.json" % args.seed if reference is not None else None

    try:
        if args.workload:
            runs = {args.workload: run_one(args)}
        else:
            runs = run_all(args)
            args.out = args.out or "host-out"
        summaries = {
            w: summarize(w, timed, traced, setups, reference)
            for w, (timed, traced, setups) in runs.items()
        }
    except BenchmarkError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2

    print("# seed %d; host seconds at reference speed; each request's latency is its median"
          " over the timed passes" % args.seed)
    for w, summary in summaries.items():
        print_summary(w, summary, reference_name)
    traced = {w: record for w, (_, record, _) in runs.items() if record}
    if args.out:
        write_results(Path(args.out), args, summaries, traced)
    failed = sum(s["failed"] for s in summaries.values())
    if args.update_expected and not failed:
        print("# wrote %s" % update_expected(args.seed, summaries).relative_to(ROOT))
    if args.workload:
        summary = summaries[args.workload]
        group, units = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
        print(json.dumps({
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": summary[group][name], "unit": unit} for name, unit in units.items()
            },
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
