"""Tests for the chaos harness (the CI chaos-sweep job's engine)."""

import subprocess
import sys

import pytest

from repro.fleet import chaos as fleet_chaos
from repro.machine import amd_vega20
from repro.resilience.chaos import (
    LADDER,
    ChaosReport,
    RegionTrial,
    chaos_regions,
    chaos_sweep,
    fault_class_proofs,
    main,
)


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


def test_region_set_is_deterministic(machine):
    a = chaos_regions(machine, sizes=(8, 10))
    b = chaos_regions(machine, sizes=(8, 10))
    assert [d.region.name for d in a] == ["chaos_08", "chaos_10"]
    assert [len(d.region) for d in a] == [len(d.region) for d in b]


def test_fault_class_proofs_cover_every_class(machine):
    # Size 10 is the smallest region whose search runs long enough for an
    # injected hang (iteration 0-2) to fire before termination.
    report = fault_class_proofs(LADDER, machine, sizes=(10,))
    assert set(report.faults_by_class) == {"launch", "corruption", "hang", "oom"}
    assert report.recovery_rate == 1.0
    assert report.all_ok
    assert report.total("degraded") == 0


def test_sweep_is_deterministic(machine):
    a = chaos_sweep(LADDER, seeds=(11,), machine=machine, sizes=(8, 10))
    b = chaos_sweep(LADDER, seeds=(11,), machine=machine, sizes=(8, 10))
    assert [t.faults for t in a.trials] == [t.faults for t in b.trials]
    assert a.total("retry_overhead_seconds") == b.total("retry_overhead_seconds")


def test_report_aggregation():
    trial = lambda faults, recovered, valid: RegionTrial(  # noqa: E731
        chaos_seed=1, faults=faults, recovered=recovered,
        schedules_valid=valid, spent_seconds=2.0, result_seconds=1.5,
    )
    report = ChaosReport(LADDER, trials=[
        trial((), True, True),
        trial((("launch", "vectorized", 0),), True, True),
        trial((("hang", "loop", 1),), False, True),
    ])
    assert report.faults_by_class == {"launch": 1, "hang": 1}
    assert len(report.faulted_trials) == 2
    assert report.recovery_rate == 0.5
    assert report.total("degraded") == 1
    assert report.total("retry_overhead_seconds") == pytest.approx(1.5)
    assert report.all_ok
    assert "recovery rate 50%" in report.summary()


def test_main_exits_clean():
    assert main(["--seeds", "11", "--sizes", "8", "--skip-proofs"]) == 0


@pytest.mark.parametrize(
    "entry, argv",
    [
        (main, ["--seeds", ""]),
        (main, ["--seeds", "1x"]),
        (main, ["--seeds", "11,,23"]),
        (main, ["--sizes", "0"]),
        (fleet_chaos.main, ["--seeds", ""]),
        (fleet_chaos.main, ["--seeds", "", "--bitcheck", "unused"]),
        (fleet_chaos.main, ["--seeds", "1x"]),
        (fleet_chaos.main, ["--sizes", "0"]),
        (fleet_chaos.main, ["--shards", "0"]),
        (fleet_chaos.main, ["--shards=-2,2"]),
    ],
)
def test_main_rejects_malformed_lists(entry, argv, capsys):
    # Exit 2 through argparse before any trial runs, for both layers.
    with pytest.raises(SystemExit) as exit_info:
        entry(argv + ["--skip-proofs"])
    assert exit_info.value.code == 2
    assert "positive integers" in capsys.readouterr().err


def test_import_does_not_load_the_fleet():
    # The host benchmark imports chaos_regions from here at startup.
    code = (
        "import sys, repro.resilience.chaos; "
        "sys.exit(any(m.startswith('repro.fleet') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
