"""Tests for the fleet chaos harness (the CI fleet-chaos job's engine)."""

import json

import pytest

from repro.fleet.chaos import FLEET, FleetTrial, fleet_items, main
from repro.gpusim.faults import WORKER_FAULT_CLASSES
from repro.machine import amd_vega20
from repro.resilience.chaos import ChaosReport, chaos_sweep, fault_class_proofs


@pytest.fixture(scope="module")
def machine():
    return amd_vega20()


def test_harness_batch_is_deterministic(machine):
    a = fleet_items(machine, sizes=(8, 10))
    b = fleet_items(machine, sizes=(8, 10))
    assert [item.ddg.region.name for item in a] == [
        item.ddg.region.name for item in b
    ]
    assert [item.seed for item in a] == [7, 8]


def test_fault_class_proofs_cover_every_class(machine):
    report = fault_class_proofs(FLEET, machine, sizes=(8, 10), shards=(2,))
    assert set(report.faults_by_class) == set(WORKER_FAULT_CLASSES)
    assert all(count > 0 for count in report.faults_by_class.values())
    assert report.recovery_rate == 1.0
    assert report.all_ok


def test_sweep_is_deterministic(machine):
    a = chaos_sweep(FLEET, seeds=(11,), machine=machine, sizes=(8, 10), shards=(2,))
    b = chaos_sweep(FLEET, seeds=(11,), machine=machine, sizes=(8, 10), shards=(2,))
    assert [t.fault_counts for t in a.trials] == [t.fault_counts for t in b.trials]
    assert [t.fleet_seconds for t in a.trials] == [
        t.fleet_seconds for t in b.trials
    ]
    assert a.all_ok and b.all_ok


def test_report_aggregation():
    def trial(fault_counts, identical):
        return FleetTrial(
            chaos_seed=1, num_shards=2, fault_counts=fault_counts,
            reassignments=sum(fault_counts.values()), restarts=0,
            host_fallback_regions=0, recovered_regions=0, resolved=True,
            identical=identical, schedules_valid=True,
            fleet_seconds=2.0, batch_seconds=1.0,
        )

    report = ChaosReport(FLEET, trials=[
        trial({}, True),
        trial({"worker_crash": 2}, True),
        trial({"worker_hang": 1}, False),
    ])
    assert report.faults_by_class["worker_crash"] == 2
    assert report.faults_by_class["worker_hang"] == 1
    assert len(report.faulted_trials) == 2
    assert report.recovery_rate == 0.5
    assert not report.all_ok
    assert report.total("reassignments") == 3
    assert "DIVERGED" in report.summary()
    payload = report.to_json()
    assert payload["recovery_rate"] == 0.5
    assert len(payload["trials"]) == 3


def test_main_writes_proof_and_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "proof" / "fleet-proof.json")
    code = main(["--seeds", "11", "--sizes", "8,10", "--shards", "2", "--out", out])
    captured = capsys.readouterr().out
    assert code == 0
    assert "OK" in captured
    with open(out) as handle:
        payload = json.load(handle)
    assert payload["ok"] is True
    assert payload["proofs"]["recovery_rate"] == 1.0
    assert payload["sweep"]["all_ok"] is True


def test_main_bitcheck_passes(tmp_path, capsys):
    code = main([
        "--seeds", "11", "--sizes", "8,10", "--shards", "2",
        "--skip-proofs", "--bitcheck", str(tmp_path / "bitcheck"),
    ])
    assert code == 0
    assert "byte-identical" in capsys.readouterr().out
