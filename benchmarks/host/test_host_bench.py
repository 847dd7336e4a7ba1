"""Self-test of the host-time benchmark (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/host -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_is_nearest_rank_with_ten_samples_beyond_p90():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 0.5) == 50.0
    assert run.percentile(values, 0.9) == 90.0
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(102, 0.9) == 10
    assert run.samples_beyond(99, 0.9) == 9
    assert run.percentile([7.0], 0.9) == 7.0


def _record(latencies, ids=None, slowdown=1.0):
    ids = ids or ["r%d" % i for i in range(len(latencies))]
    calibration = slowdown * run.CALIBRATION_REF_S
    return {"requests": [
        {"id": i, "latency_s": s, "calibration_s": calibration} for i, s in zip(ids, latencies)
    ]}


def test_merge_takes_each_requests_median_over_passes():
    passes = [_record([3.0, 1.0, 5.0]), _record([2.0, 4.0, 6.0]), _record([9.0, 9.0, 0.5])]
    assert run.merge_median(passes) == [3.0, 4.0, 5.0]
    assert run.merge_median(passes[:2]) == [2.5, 2.5, 5.5]
    with pytest.raises(run.BenchmarkError):
        run.merge_median([_record([1.0]), _record([1.0], ids=["other"])])


def test_latencies_are_scaled_to_reference_speed():
    # A pass that ran while the calibration kernel took twice its reference
    # time ran on a machine twice as slow.
    slow = _record([4.0, 2.0], slowdown=2.0)
    assert run.latencies(slow) == [2.0, 1.0]
    assert run.merge_median([slow, _record([4.0, 3.0])]) == [3.0, 2.0]


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, base, "lower", 0.1)["verdict"] == "unchanged"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)["verdict"] == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # Higher-is-better metrics regress downwards.
    assert compare.verdict(base, [v * 0.7 for v in base], "higher", 0.1)["verdict"] == "regressed"


def test_small_run_prints_exactly_the_benchmark_metrics(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--requests", "3",
         "--out", str(tmp_path)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("#"):
            continue
        workload, name, _value, unit = line.split()
        printed.setdefault(workload, set()).add((name, unit))
    expected = {(m["name"], m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(printed) == set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for workload, names in printed.items():
        assert names == expected, workload
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["fingerprint"]["nproc"] >= 1
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X"}


def _identities():
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for attr, value in list(vars(module).items())
    }


@pytest.fixture(scope="module")
def passes():
    from passes import run_pass

    untraced = {w: run_pass(w, 1, traced=False, limit=3) for w in run.WORKLOADS}
    before = _identities()
    traced = {w: run_pass(w, 1, traced=True, limit=3) for w in run.WORKLOADS}
    after = _identities()
    return untraced, traced, before, after


def test_traced_pass_ships_the_untraced_schedules(passes):
    untraced, traced, _, _ = passes
    for workload in run.WORKLOADS:
        plain = [(q["id"], q["digest"], q["modeled_s"]) for q in untraced[workload]["requests"]]
        seen = [(q["id"], q["digest"], q["modeled_s"]) for q in traced[workload]["requests"]]
        assert plain == seen, workload
        assert all(q["error"] is None for q in traced[workload]["requests"]), workload


def test_traced_pass_assigns_nothing_into_repro_modules(passes):
    _, _, before, after = passes
    changed = sorted(key for key, ident in before.items() if after.get(key) != ident)
    assert changed == []
