"""Characterization goldens for the two-pass ACO schedulers.

Each case runs one scheduler (sequential, or the GPU scheduler with the
``vectorized`` or ``loop`` construction engine) on one suite region and
pins everything the pass loop decides or charges:

* the sha256 of the telemetry event stream (JSON, sorted keys), which
  fixes the order of every event the schedulers emit;
* the sha256 of the run bundle's ``schedules.json`` and ``rng.jsonl``
  (the recorder's iteration boundaries and per-ant draw digests);
* the span profiler's collapsed stacks;
* ``budget.spent`` as a float hex, so every ``budget.charge`` amount and
  its order matter to the last bit;
* per pass: ``iterations``, ``deadline_hit`` and ``seconds`` (hex).

Three modes per case: no budget; a budget of a tenth of the unbudgeted
run's seconds (trips the deadline); and, for the GPU engines, a hang at
rate 1.0 resumed attempt after attempt from each hang's checkpoint until
the region completes, charged to one unlimited budget.

The values were recorded from the schedulers as they stood before the
shared two-pass driver was extracted; any drift is a behaviour change.
``python tests/test_driver_goldens.py`` prints the current values in the
layout of :data:`GOLDENS`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.aco import SequentialACOScheduler
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.errors import DeviceHangError
from repro.experiments.common import SCALES
from repro.gpusim.faults import FaultPlan
from repro.heuristics.amd_max_occupancy import AMDMaxOccupancyScheduler
from repro.machine import amd_vega20
from repro.obs.record import RunRecorder
from repro.parallel import ParallelACOScheduler
from repro.profile import SpanProfiler, collapsed_stacks, profile_session
from repro.resilience.watchdog import DeadlineBudget
from repro.suite.rocprim import generate_suite
from repro.telemetry import Telemetry

#: Test-scale suite regions on which both passes run from the pipeline's
#: AMD-baseline inputs.
REGIONS = ("k002_r00", "k002_r02")
ENGINES = ("sequential", "vectorized", "loop")
SEED = 5
#: Upper bound on hang/resume attempts (each attempt makes progress or
#: draws a new hang site, so the chain ends well before this).
MAX_ATTEMPTS = 12


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _region(name):
    scale = SCALES["test"]
    suite = generate_suite(scale.suite, max_region_size=scale.max_region_size)
    for kernel in suite.kernels:
        for region in kernel.regions:
            if region.name == name:
                return region
    raise KeyError(name)


def _scheduler(engine, telemetry):
    machine = amd_vega20()
    if engine == "sequential":
        return SequentialACOScheduler(
            machine, params=ACOParams(strategy="as"), telemetry=telemetry, verify=False
        )
    return ParallelACOScheduler(
        machine,
        params=ACOParams(strategy="as"),
        gpu_params=GPUParams(blocks=1),
        telemetry=telemetry,
        verify=False,
        backend=engine,
    )


def observe(engine, region_name, mode, bundle_dir):
    """Run one case and return its pinned observables."""
    ddg = DDG(_region(region_name))
    heuristic = AMDMaxOccupancyScheduler(amd_vega20()).schedule(ddg)
    inputs = dict(initial_order=heuristic.order, reference_schedule=heuristic)

    budget = None
    if mode == "tight":
        plain = _scheduler(engine, Telemetry()).schedule(ddg, seed=SEED, **inputs)
        budget = DeadlineBudget(plain.seconds / 10.0)
    elif mode == "hang":
        budget = DeadlineBudget()

    recorder = RunRecorder(draws="digest")
    scheduler = _scheduler(engine, Telemetry(recorder=recorder))
    profiler = SpanProfiler()
    hangs = []
    with profile_session(profiler):
        if mode == "hang":
            plan = FaultPlan(seed=1, rates={"hang": 1.0})
            checkpoint = None
            for attempt in range(MAX_ATTEMPTS):
                try:
                    result = scheduler.schedule(
                        ddg, seed=SEED, fault_plan=plan, budget=budget,
                        attempt=attempt, resume=checkpoint, **inputs
                    )
                    break
                except DeviceHangError as exc:
                    checkpoint = exc.checkpoint
                    hangs.append([
                        checkpoint.pass_index,
                        checkpoint.iteration,
                        checkpoint.pass1 is not None,
                        exc.seconds.hex(),
                    ])
            else:
                raise AssertionError("hang chain did not complete")
        else:
            result = scheduler.schedule(ddg, seed=SEED, budget=budget, **inputs)
    recorder.save(bundle_dir)

    def _file_sha(name):
        with open(os.path.join(bundle_dir, name)) as handle:
            return _sha(handle.read())

    return {
        "events": _sha(json.dumps(recorder.events, sort_keys=True)),
        "schedules": _file_sha("schedules.json"),
        "rng": _file_sha("rng.jsonl"),
        "stacks": _sha("\n".join(collapsed_stacks(profiler))),
        "spent": None if budget is None else budget.spent.hex(),
        "passes": [
            [p.iterations, p.deadline_hit, p.seconds.hex()]
            for p in (result.pass1, result.pass2)
        ],
        "cycles": _sha(",".join(str(c) for c in result.schedule.cycles)),
        "hangs": hangs,
    }


def _cases():
    for engine in ENGINES:
        for region in REGIONS:
            modes = ("none", "tight") if engine == "sequential" else ("none", "tight", "hang")
            for mode in modes:
                yield "%s-%s-%s" % (engine, region, mode)


GOLDENS = {
    'sequential-k002_r00-none': {
        'events': 'ec7aa82ca2510326f9c19322fe1038a43283b0a1458c5d4f3bf2d3745fdfbd41',
        'schedules': 'f032dd50a52f3715457ac2a6ae3cc7f1c8be10254afb0c1d4317aa32bba3fda0',
        'rng': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stacks': '35ab27968ef6fa9c5d143bb6352543bd3fbb3d2a5b24f8c4a7a326635fc5a68f',
        'spent': None,
        'passes': [[1, False, '0x1.1c933c3af7556p-12'], [4, False, '0x1.7eddd68a65ca0p-11']],
        'cycles': '91f532033213cd42a540417ad47fc46d3e8a843e586a3f9a1b2ec6344026e5b1',
        'hangs': [],
    },
    'sequential-k002_r00-tight': {
        'events': '882f0ab89eadb133cc28513068c49b5a154b3ab105f6ac13e8ba20156f55771d',
        'schedules': '070a4748ad254f628b1a5688851b8a8f003095252c0dc9a0c9920b3885a43b43',
        'rng': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stacks': 'b802558f8fd005581b3e9275ee1f9400a118fb46b70390cb9a7cd56c2ad7aa5b',
        'spent': '0x1.4684a74cbe274p-12',
        'passes': [[1, False, '0x1.1c933c3af7556p-12'], [0, True, '0x1.4f8b588e368f1p-15']],
        'cycles': '12353582e997ed6e15731a59afd827089dfaf06eceaa60c80248092d21237cf0',
        'hangs': [],
    },
    'sequential-k002_r02-none': {
        'events': '7bdb33bdc87cba7932cee00f0d9c62c400ff5ab7a8cabab6aa11049b40e116ad',
        'schedules': '0e7e26f79e722e5f8defcbf69ced073eed3d900ffe976578193f33c99e780dff',
        'rng': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stacks': '974fb2c4d0d55fc7ab04e5c839b524aa3b6ba985c115c2d5397dfb1aff7fdab3',
        'spent': None,
        'passes': [[1, False, '0x1.a7c69434bc059p-12'], [5, False, '0x1.a2f0d2b2e2374p-10']],
        'cycles': '0904372b7f47ebbca0029083d9332b84c28b464817ead53aeedf0a8efc94427b',
        'hangs': [],
    },
    'sequential-k002_r02-tight': {
        'events': 'c7e6924f89bd0dd7ad9a36da0b24295335a22393f0538c82e742d43a2a002e97',
        'schedules': 'a4c7a2700a76814050166362e57ff709f2c171cab17dfe831242b5c8bba961f8',
        'rng': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stacks': '46251a8e662bca227d471306f774b796c1c1fe6e64281a444be0a96470a60a53',
        'spent': '0x1.d1b7ff4682d77p-12',
        'passes': [[1, False, '0x1.a7c69434bc059p-12'], [0, True, '0x1.4f8b588e368f1p-15']],
        'cycles': '21693b2cd19a672edc59d120d67dce9ecf8f284d63b80ed1c373359442b9d375',
        'hangs': [],
    },
    'vectorized-k002_r00-none': {
        'events': '81f7e851bee25898bb6c2f5785134485a9ccf5cb4aba50903a69d88dab9a10c3',
        'schedules': '3edd018219f67800caf388be8d46b955a5c8c77fe0ad2216ebf7b6efab982c42',
        'rng': '40878d9a4ab8c7927726a4cfa1ade9c682568c893173a25df72a7cfa64388298',
        'stacks': 'c7f47a243734c934c76bc366cea9fe61f050ae65623ba4da98b1ac9f953e0f2f',
        'spent': None,
        'passes': [[1, False, '0x1.21f30aa329810p-14'], [3, False, '0x1.676ec495f56acp-14']],
        'cycles': 'da5668b9cf20e672342b346bba3ee150a1339d74e06adb01c17c41de5de34974',
        'hangs': [],
    },
    'vectorized-k002_r00-tight': {
        'events': '17a64f552583b89245d0456e86963168b6235fde296b0854ddac574e7f02edf6',
        'schedules': '8d32eab6be1d15384b5fc58eb1bbb29528306b5bea54aadee21fa255882c0269',
        'rng': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stacks': '98a69139a97501bc5f952fc31662f01d6f295d5e1c3b182f75c0d7603b0b55bc',
        'spent': '0x1.e6da50543c7e8p-14',
        'passes': [[0, True, '0x1.e6da50543c7e8p-15'], [0, True, '0x1.e6da50543c7e8p-15']],
        'cycles': '4ee2074b82f7b7f42024c4bce28fa04bfb166288ab9c361f21b3c2118a50e326',
        'hangs': [],
    },
    'vectorized-k002_r00-hang': {
        'events': 'ec73041cf8ec320da6599ee4a6abd0a6f0f443147bd92ba64edec09b944a1d5a',
        'schedules': '3edd018219f67800caf388be8d46b955a5c8c77fe0ad2216ebf7b6efab982c42',
        'rng': '40878d9a4ab8c7927726a4cfa1ade9c682568c893173a25df72a7cfa64388298',
        'stacks': '5b8320b78db59796e7cd199bce5f91c1153393c79ca28b1540ede1384ae4dba1',
        'spent': '0x1.12d30a0eddcfap-7',
        'passes': [[1, False, '0x1.21f30aa329810p-14'], [3, False, '0x1.19fd5174362d1p-14']],
        'cycles': 'da5668b9cf20e672342b346bba3ee150a1339d74e06adb01c17c41de5de34974',
        'hangs': [[2, 2, True, '0x1.102bd209798bap-9'], [2, 2, True, '0x1.0dc046706b91cp-9'], [2, 2, True, '0x1.0dc046706b91cp-9'], [2, 2, True, '0x1.0dc046706b91cp-9']],
    },
    'vectorized-k002_r02-none': {
        'events': '12e03d62e54c56037315fc03559cd4c91b6d45c76ff0290c0c08497173bd8ccc',
        'schedules': '82446fe559b8fa3d01cd9f2cf167fb52913489956e0297f1314e0f4f24ae7ab9',
        'rng': '0530f4ee37cbc7e8280bfd7e55a7ea58b8e01f27925699e86e14e3f39e75af8b',
        'stacks': '169bc529b8912921bff1282df80b0f771b8af4d39514c630e4e00e2277c019e0',
        'spent': None,
        'passes': [[1, False, '0x1.39c4a0a3e11f0p-14'], [2, False, '0x1.392b05d416592p-14']],
        'cycles': 'c6a147a63e51bb33d742ddf648cb1d80ddaae5da69bae5774ed80b4bd6285152',
        'hangs': [],
    },
    'vectorized-k002_r02-tight': {
        'events': 'b2264adcf9dd698608e48b63fa02e4cf246cc33acc75829a2c70299efccd1671',
        'schedules': '14b407ee4fdde504aefe83d0d44bdec7cc21bc5155c77c4a5fcf475b528aa342',
        'rng': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stacks': '98a69139a97501bc5f952fc31662f01d6f295d5e1c3b182f75c0d7603b0b55bc',
        'spent': '0x1.e81b181a8f33ap-14',
        'passes': [[0, True, '0x1.e81b181a8f33ap-15'], [0, True, '0x1.e81b181a8f33ap-15']],
        'cycles': '37ea8e709e93de7f737dd9eebb2abcbbf4d574e83fea474ee4ccc17df80fbffe',
        'hangs': [],
    },
    'vectorized-k002_r02-hang': {
        'events': 'c72dd50b7bcc149e224172ebe54e0c419e52b9db26409a7cadf573389afee17e',
        'schedules': '82446fe559b8fa3d01cd9f2cf167fb52913489956e0297f1314e0f4f24ae7ab9',
        'rng': '0530f4ee37cbc7e8280bfd7e55a7ea58b8e01f27925699e86e14e3f39e75af8b',
        'stacks': '169bc529b8912921bff1282df80b0f771b8af4d39514c630e4e00e2277c019e0',
        'spent': '0x1.9e73acf12728ap-8',
        'passes': [[1, False, '0x1.39c4a0a3e11f0p-14'], [2, False, '0x1.392b05d416592p-14']],
        'cycles': 'c6a147a63e51bb33d742ddf648cb1d80ddaae5da69bae5774ed80b4bd6285152',
        'hangs': [[1, 0, False, '0x1.0dc5498f84dc9p-9'], [1, 0, False, '0x1.0dc5498f84dc9p-9'], [1, 0, False, '0x1.0dc5498f84dc9p-9']],
    },
    'loop-k002_r00-none': {
        'events': '976e0d3830303d83cc5346f26167ac80bbeb1df0929147ad2f0d5c3bd4b2f23a',
        'schedules': '25c2a7e462464a37fe5795b8d1a4f04023eec7581600909125e872307c434bbb',
        'rng': '40878d9a4ab8c7927726a4cfa1ade9c682568c893173a25df72a7cfa64388298',
        'stacks': '3bd5debc81cf95d77aaac0b36259c9039ddd0ec1986cd553c2d905d26df5a1cd',
        'spent': None,
        'passes': [[1, False, '0x1.703c9fec89b7fp-11'], [3, False, '0x1.675eefce91e4ap-10']],
        'cycles': 'da5668b9cf20e672342b346bba3ee150a1339d74e06adb01c17c41de5de34974',
        'hangs': [],
    },
    'loop-k002_r00-tight': {
        'events': 'f43972068f1638abfd8e60d59e7ab90a94231105934c0e5a6e417f3b0b79b865',
        'schedules': 'df6eb1e583b949a18e533cdbeff6395dc78ab31da432c872cb2937019d799f2e',
        'rng': '8c6edc9fe73676bc3a3f01f7f9be3b7316169d8ffe8e1b6374b668d1abd41619',
        'stacks': 'cfb5ee624659e7ac5f2065005280a09cbcb35176ed85485c7f2ab870d2a2e791',
        'spent': '0x1.8eaa44f1cd7fep-11',
        'passes': [[1, False, '0x1.703c9fec89b7fp-11'], [0, True, '0x1.e6da50543c7e8p-15']],
        'cycles': 'cb89c7d022fba92e063ee98649b9c9f48c8435fe2c407cdc13034e174c3296d4',
        'hangs': [],
    },
    'loop-k002_r00-hang': {
        'events': '6e196171380cb88afbdd5bc726d8ed8710b80b6ec742a629d4977fc84b0a4c46',
        'schedules': '25c2a7e462464a37fe5795b8d1a4f04023eec7581600909125e872307c434bbb',
        'rng': '40878d9a4ab8c7927726a4cfa1ade9c682568c893173a25df72a7cfa64388298',
        'stacks': 'b9c56c2fff38c8f8abdd88ffa63f01d4c5e9272532ac1a47d71d77fff80c4f16',
        'spent': '0x1.51afee690669dp-7',
        'passes': [[1, False, '0x1.703c9fec89b7fp-11'], [3, False, '0x1.d08fc28f88107p-12']],
        'cycles': 'da5668b9cf20e672342b346bba3ee150a1339d74e06adb01c17c41de5de34974',
        'hangs': [[2, 2, True, '0x1.875dc605c3820p-9'], [2, 2, True, '0x1.0dc046706b91cp-9'], [2, 2, True, '0x1.0dc046706b91cp-9'], [2, 2, True, '0x1.0dc046706b91cp-9']],
    },
    'loop-k002_r02-none': {
        'events': '356aad4548fcd61d1d72bf52b27606dd44445d13f601da8b572a90c70f5529a8',
        'schedules': '2d348708aaf84c9de51325a6fe92d0c33a46a94f4431ee42b1470205a326c765',
        'rng': '0530f4ee37cbc7e8280bfd7e55a7ea58b8e01f27925699e86e14e3f39e75af8b',
        'stacks': 'df3a6f2fcc71b50316457b8bb9db25045af054bcba7e0b4ff58b83d3473d02a7',
        'spent': None,
        'passes': [[1, False, '0x1.101fb901f716dp-10'], [2, False, '0x1.ff41c1ef2615fp-11']],
        'cycles': 'c6a147a63e51bb33d742ddf648cb1d80ddaae5da69bae5774ed80b4bd6285152',
        'hangs': [],
    },
    'loop-k002_r02-tight': {
        'events': '25a2508f38b68d4b5d61103a45347c2a71c120b1a16c2144da0b154ad613aae5',
        'schedules': '2d348708aaf84c9de51325a6fe92d0c33a46a94f4431ee42b1470205a326c765',
        'rng': 'e59bf00345e0ad32347c87fa4885aacb4e9c036792a0342f63fd99f4022053c7',
        'stacks': '4dd5ca15191329ec8503ac6a6961972ddb2bd0229af6f61b782c68f2e4e61248',
        'spent': '0x1.1f6091c2cb907p-10',
        'passes': [[1, False, '0x1.101fb901f716dp-10'], [0, True, '0x1.e81b181a8f33ap-15']],
        'cycles': 'c6a147a63e51bb33d742ddf648cb1d80ddaae5da69bae5774ed80b4bd6285152',
        'hangs': [],
    },
    'loop-k002_r02-hang': {
        'events': '3f93cae8e203520cf4b0f14761f1303d14c8aad2442b5b4e94240b0a9235de59',
        'schedules': '2d348708aaf84c9de51325a6fe92d0c33a46a94f4431ee42b1470205a326c765',
        'rng': '0530f4ee37cbc7e8280bfd7e55a7ea58b8e01f27925699e86e14e3f39e75af8b',
        'stacks': 'df3a6f2fcc71b50316457b8bb9db25045af054bcba7e0b4ff58b83d3473d02a7',
        'spent': '0x1.0c4c0a6ad4e9ap-7',
        'passes': [[1, False, '0x1.101fb901f716dp-10'], [2, False, '0x1.ff41c1ef2615fp-11']],
        'cycles': 'c6a147a63e51bb33d742ddf648cb1d80ddaae5da69bae5774ed80b4bd6285152',
        'hangs': [[1, 0, False, '0x1.0dc5498f84dc9p-9'], [1, 0, False, '0x1.0dc5498f84dc9p-9'], [1, 0, False, '0x1.0dc5498f84dc9p-9']],
    },
}


@pytest.mark.parametrize("case", list(_cases()))
def test_golden(case, tmp_path):
    engine, region, mode = case.split("-")
    assert observe(engine, region, mode, str(tmp_path)) == GOLDENS[case]


def test_goldens_cover_every_case():
    assert sorted(GOLDENS) == sorted(_cases())


if __name__ == "__main__":  # pragma: no cover - golden regeneration aid
    import tempfile

    sys.stdout.write("GOLDENS = {\n")
    for case in _cases():
        with tempfile.TemporaryDirectory() as tmp:
            values = observe(*case.split("-"), tmp)
        sys.stdout.write("    %r: %r,\n" % (case, values))
    sys.stdout.write("}\n")
