"""Golden for the pass-2 idle-cycle jump.

A pass-2 step in which no active ant holds a released candidate issues
nothing, so the colony jumps straight to the next release instead of
running the step's selection work. The jump lives in the iteration driver
both backends share, so the loop-vs-vectorized differential cannot see a
mistake in it. This golden pins, on a latency-bound region (load -> use
chains with long idle runs), everything the jumped cycles still produce:
their draws, their charges, the step count and the launch counters. The
values were recorded with the step-by-step loop, before the jump existed.
"""

import hashlib
import os

import pytest

from repro.aco import PheromoneTable
from repro.analysis import ColonySanitizer
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.gpusim import GPUDevice, KernelAccounting
from repro.ir.builder import RegionBuilder
from repro.ir.registers import VGPR
from repro.machine import amd_vega20
from repro.obs.record import RunRecorder
from repro.parallel import BACKENDS, DivergencePolicy, RegionDeviceData
from repro.parallel.rng import AntRngStreams

#: Per-iteration max_length: the last iteration stops at the cap with a
#: load still in flight, so its final idle run is cut by the cap.
MAX_LENGTHS = (90, 90, 30)


def _load_use_region():
    """Three loads feeding a reduction, then a dependent load (latency 20)."""
    b = RegionBuilder("load_use")
    for i in range(3):
        b.inst("global_load", defs=["v%d" % i])
    for i in range(3):
        b.inst("v_mul_f32", defs=["v%d" % (3 + i)], uses=["v%d" % i])
    b.inst("v_add_f32", defs=["v6"], uses=["v3", "v4"])
    b.inst("v_add_f32", defs=["v7"], uses=["v6", "v5"])
    b.inst("global_load", defs=["v8"], uses=["v7"])
    b.inst("v_mov", defs=["v9"])
    b.inst("v_add_f32", defs=["v10"], uses=["v8", "v7", "v9"])
    return b.live_out("v10").build()


def _run(backend, wavefront_level_choice, tmp_path):
    """Three sanitized pass-2 iterations; returns what the golden pins and
    the number of ``_candidate_excess`` calls."""
    ddg = DDG(_load_use_region())
    gpu = GPUParams(
        blocks=2,
        wavefront_level_choice=wavefront_level_choice,
        stall_wavefront_fraction=0.5,
    )
    params = ACOParams()
    policy = DivergencePolicy.from_params(gpu, GPUDevice().wavefront_size)
    data = RegionDeviceData(ddg, amd_vega20())
    accounting = KernelAccounting(GPUDevice(), policy.num_wavefronts, coalesced=True)
    recorder = RunRecorder("full")
    streams = AntRngStreams(11, policy.num_ants, recorder=recorder)
    colony = BACKENDS[backend](
        data, params, policy, accounting, streams, sanitizer=ColonySanitizer()
    )
    excess_calls = []
    candidate_excess = colony._candidate_excess

    def counted(*args):
        excess_calls.append(1)
        return candidate_excess(*args)

    colony._candidate_excess = counted
    tau = PheromoneTable(ddg.num_instructions, params).tau
    iterations = []
    for iteration, max_length in enumerate(MAX_LENGTHS):
        recorder.begin_iteration("load_use", 2, iteration)
        result = colony.run_ilp_iteration(tau, {VGPR: 4}, max_length=max_length)
        iterations.append(
            (result.winner_order, result.winner_cycles, result.steps, result.num_alive)
        )
    recorder.save(str(tmp_path))
    with open(os.path.join(str(tmp_path), "rng.jsonl"), "rb") as handle:
        draws = hashlib.sha256(handle.read()).hexdigest()
    observed = {
        "iterations": iterations,
        "charge_totals": accounting.charge_totals(),
        "wavefront_cycles": tuple(accounting.wavefront_cycles.tolist()),
        "serialized_selection_waves": colony.serialized_selection_waves,
        "serialized_stall_waves": colony.serialized_stall_waves,
        "ready_peak": colony.ready_peak,
        "steps_checked": colony.sanitizer.steps_checked,
        "draws_sha256": draws,
    }
    return observed, len(excess_calls)


#: Decisions and counters, keyed by wavefront-level choice: both backends
#: must reproduce them.
GOLDEN_DECISIONS = {
    True: {
        "iterations": [
            (
                (0, 1, 2, 9, 3, 4, 5, 6, 7, 8, 10),
                (0, 1, 2, 20, 21, 22, 23, 25, 27, 4, 47),
                48,
                105,
            ),
            (
                (0, 1, 2, 9, 3, 4, 5, 6, 7, 8, 10),
                (0, 1, 2, 20, 21, 22, 23, 25, 27, 3, 47),
                48,
                105,
            ),
            (None, None, 31, 0),
        ],
        "serialized_selection_waves": 0,
        "serialized_stall_waves": 41,
        "ready_peak": 4,
        "steps_checked": 127,
        "draws_sha256": "883e193e63e0b998832fd4804191b9b52cf3bfd23ff48807079e6ef936863537",
    },
    False: {
        "iterations": [
            (
                (0, 1, 2, 9, 3, 4, 5, 6, 7, 8, 10),
                (0, 1, 2, 20, 21, 22, 23, 25, 27, 3, 47),
                48,
                84,
            ),
            (
                (0, 1, 2, 9, 3, 4, 5, 6, 7, 8, 10),
                (0, 1, 2, 20, 21, 22, 23, 25, 27, 4, 47),
                48,
                93,
            ),
            (None, None, 31, 0),
        ],
        "serialized_selection_waves": 80,
        "serialized_stall_waves": 60,
        "ready_peak": 4,
        "steps_checked": 127,
        "draws_sha256": "018696c15efa707f4c4fd32c166c0801fe8a1234fbaebf2935a86a9f401646ba",
    },
}

#: Charges, keyed by (backend, wavefront-level choice): each backend keeps
#: its own cost model.
GOLDEN_CHARGES = {
    ("vectorized", True): {
        "charge_totals": {
            "compute_cycles": 9332.0,
            "memory_cycles": 27012.0,
            "alloc_cycles": 0.0,
            "uniform_cycles": 0.0,
        },
        "wavefront_cycles": (18592.0, 17752.0),
    },
    ("loop", True): {
        "charge_totals": {
            "compute_cycles": 661284.0,
            "memory_cycles": 1690908.0,
            "alloc_cycles": 0.0,
            "uniform_cycles": 0.0,
        },
        "wavefront_cycles": (1178176.0, 1174016.0),
    },
    ("vectorized", False): {
        "charge_totals": {
            "compute_cycles": 10028.0,
            "memory_cycles": 27204.0,
            "alloc_cycles": 0.0,
            "uniform_cycles": 0.0,
        },
        "wavefront_cycles": (18896.0, 18336.0),
    },
    ("loop", False): {
        "charge_totals": {
            "compute_cycles": 661504.0,
            "memory_cycles": 1690776.0,
            "alloc_cycles": 0.0,
            "uniform_cycles": 0.0,
        },
        "wavefront_cycles": (1178320.0, 1173960.0),
    },
}


@pytest.mark.parametrize("backend", ["vectorized", "loop"])
@pytest.mark.parametrize(
    "wavefront_level_choice", [True, False], ids=["wavefront_choice", "thread_choice"]
)
def test_idle_cycle_jump_golden(backend, wavefront_level_choice, tmp_path):
    observed, excess_calls = _run(backend, wavefront_level_choice, tmp_path)
    charges = {
        key: observed.pop(key) for key in ("charge_totals", "wavefront_cycles")
    }
    assert observed == GOLDEN_DECISIONS[wavefront_level_choice]
    assert charges == GOLDEN_CHARGES[(backend, wavefront_level_choice)]
    # The sanitizer audits every cycle, jumped or not; only the issuing
    # steps compute candidate excesses.
    steps = sum(steps for _order, _cycles, steps, _alive in observed["iterations"])
    assert observed["steps_checked"] == steps
    assert excess_calls < steps
