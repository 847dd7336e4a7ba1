"""Characterization pins for the two chaos harness entry points.

Drives ``python -m repro.resilience.chaos`` and ``python -m
repro.fleet.chaos`` through their ``main`` and pins the exact report
lines they print for the rate-1.0 per-class proofs and a one-seed
mixed-rate sweep on one size-10 region, plus the sha256 of the fleet
reports' JSON payloads. Any change to which faults fire, how recovery
proceeds or how the reports are rendered shows up here.
"""

import hashlib
import json

from repro.fleet.chaos import main as fleet_main
from repro.resilience.chaos import main as ladder_main


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def _digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def test_ladder_proofs_and_sweep(capsys):
    assert ladder_main(["--sizes", "10", "--seeds", "71"]) == 0
    assert _lines(capsys) == [
        "[chaos] per-class proofs: 4 trial(s), faults [corruption=4, hang=2, "
        "launch=4, oom=4], recovery rate 100%, 0 degraded, retry overhead "
        "0.00494s, schedules all valid",
        "[chaos] mixed-rate sweep: 1 trial(s), faults [corruption=1, hang=1, "
        "launch=1, oom=1], recovery rate 100%, 0 degraded, retry overhead "
        "0.00216s, schedules all valid",
        "[chaos] OK",
    ]


def test_ladder_fault_free_sweep(capsys):
    assert ladder_main(["--sizes", "10", "--seeds", "11", "--skip-proofs"]) == 0
    assert _lines(capsys) == [
        "[chaos] mixed-rate sweep: 1 trial(s), faults [none], recovery rate "
        "100%, 0 degraded, retry overhead 0s, schedules all valid",
        "[chaos] OK",
    ]


def test_fleet_proofs_sweep_and_payload(tmp_path, capsys):
    out = str(tmp_path / "proof.json")
    assert fleet_main(["--sizes", "10", "--seeds", "58", "--out", out]) == 0
    assert _lines(capsys) == [
        "[fleet-chaos] per-class proofs: 3 trial(s), worker faults "
        "[worker_corrupt=4, worker_crash=4, worker_hang=4], 12 "
        "reassignment(s), recovery rate 100%, merges all bit-identical",
        "[fleet-chaos] mixed-rate sweep: 2 trial(s), worker faults "
        "[worker_corrupt=0, worker_crash=0, worker_hang=2], 2 "
        "reassignment(s), recovery rate 100%, merges all bit-identical",
        "[fleet-chaos] recovery proof written to %s" % out,
        "[fleet-chaos] OK",
    ]
    with open(out) as handle:
        payload = json.load(handle)
    assert sorted(payload) == ["ok", "proofs", "sweep"]
    assert payload["ok"] is True
    assert _digest(payload["proofs"]) == (
        "f45bec9b120ee6e42d93053d6f24d0456b62eaf28d11a504f51e4245a0198450"
    )
    assert _digest(payload["sweep"]) == (
        "792e90d783af7adf0cc66ab72da2d13ca0ace2d8818f5c21059fd731edabc35f"
    )
