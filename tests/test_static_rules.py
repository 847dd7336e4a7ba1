"""Per-rule fixture tests: one seeded true positive and one clean negative
for every shipped rule family, run through the full engine against a
pseudo-package laid out in tmp_path."""

import pytest

from repro.analysis.static import analyze_paths


def _write(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


def _scan(tmp_path, files):
    _write(tmp_path, files)
    report = analyze_paths([str(tmp_path)])
    return [(f.rule_id, f.rel) for f in report.findings]


#: The rules that absorbed the retired DET-001's sub-codes, plus the
#: engine's unparsable-file rule.
_FOLDED_RULES = ("RNG-103", "DET-004", "LAY-401", "SYN-001")


def _folded_rule_ids(paths):
    """Rule ids of the findings that DET-001 used to report."""
    report = analyze_paths(paths)
    return [f.rule_id for f in report.findings if f.rule_id in _FOLDED_RULES]


class TestDET001Legacy:
    """The retired DET-001's cases, each re-targeted to the rule that now
    owns its hazard: RNG001-004 and TEL001 to RNG-103, TEL002 to LAY-401,
    TIME001 to DET-004."""

    def test_positive_global_random_in_kernel_path(self, tmp_path):
        hits = _scan(tmp_path, {"aco/bad.py": "import random\nx = random.random()\n"})
        assert ("RNG-103", "aco/bad.py") in hits

    def test_negative_outside_kernel_path(self, tmp_path):
        hits = _scan(tmp_path, {"viz/ok.py": "import random\nx = random.random()\n"})
        assert hits == []

    @pytest.mark.parametrize(
        "rel, source, codes",
        [
            pytest.param(
                "aco/bad.py", "import random\nx = random.random()\n", ["RNG-103"],
                id="RNG001-kernel-path",
            ),
            pytest.param(
                "rp/bad.py", "import random\nrandom.shuffle([1])\n", ["RNG-103"],
                id="RNG001-shuffle",
            ),
            pytest.param(
                "viz/ok.py", "import random\nx = random.random()\n", [],
                id="RNG001-non-kernel-path-allowed",
            ),
            pytest.param(
                "aco/good.py",
                "import random\nrng = random.Random(7)\nx = rng.random()\n",
                [],
                id="RNG001-injected-instance-allowed",
            ),
            pytest.param(
                "viz/bad.py", "import numpy as np\nx = np.random.rand(3)\n", ["RNG-103"],
                id="RNG002-legacy-numpy-anywhere",
            ),
            pytest.param(
                "parallel/bad.py",
                "import numpy as np\nrng = np.random.default_rng()\n",
                ["RNG-103"],
                id="RNG003-unseeded-default-rng",
            ),
            pytest.param(
                "parallel/good.py",
                "import numpy as np\nrng = np.random.default_rng(42)\n",
                [],
                id="RNG003-seeded-default-rng-allowed",
            ),
            pytest.param(
                "viz/bad.py",
                "import random\nimport numpy as np\nrandom.seed(0)\nnp.random.seed(0)\n",
                ["RNG-103", "RNG-103"],
                id="RNG004-global-seeding",
            ),
            pytest.param(
                "telemetry/bad.py", "import random\n", ["RNG-103"],
                id="TEL001-telemetry-imports-rng",
            ),
            pytest.param(
                "telemetry/bad.py", "from ..parallel.colony import Colony\n", ["LAY-401"],
                id="TEL002-telemetry-imports-scheduler-state",
            ),
            pytest.param(
                "telemetry/ok.py", "from ..errors import ReproError\n", [],
                id="TEL002-telemetry-imports-errors-allowed",
            ),
            pytest.param(
                "gpusim/bad.py", "import time\nt = time.time()\n", ["DET-004"],
                id="TIME001-kernel-path",
            ),
            pytest.param(
                "cli.py", "import time\nt = time.time()\n", [],
                id="TIME001-cli-allowed",
            ),
            pytest.param(
                # The retired DET-001 marker silences nothing any more.
                "aco/excused.py",
                "import random\nx = random.random()  # lint: allow\n",
                ["RNG-103"],
                id="lint-allow-comment",
            ),
            pytest.param("aco/broken.py", "def f(:\n", ["SYN-001"], id="syntax-error"),
        ],
    )
    def test_subcode(self, tmp_path, rel, source, codes):
        _write(tmp_path, {rel: source})
        assert _folded_rule_ids([str(tmp_path)]) == codes

    def test_single_file_target(self, tmp_path):
        _write(tmp_path, {"loose.py": "import numpy as np\nnp.random.seed(1)\n"})
        assert _folded_rule_ids([str(tmp_path / "loose.py")]) == ["RNG-103"]


class TestDET002UnorderedIteration:
    def test_positive_set_call(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"rp/bad.py": "def f(xs):\n    for x in set(xs):\n        pass\n"},
        )
        assert hits == [("DET-002", "rp/bad.py")]

    def test_positive_set_literal_comprehension(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"ddg/bad.py": "def f():\n    return [x for x in {1, 2, 3}]\n"},
        )
        assert hits == [("DET-002", "ddg/bad.py")]

    def test_negative_sorted_and_non_kernel(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "rp/ok.py": "def f(xs):\n    for x in sorted(set(xs)):\n        pass\n",
                "viz/ok.py": "def f(xs):\n    for x in set(xs):\n        pass\n",
            },
        )
        assert hits == []


class TestDET003EnvironmentRead:
    def test_positive_getenv_and_subscript(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "experiments/bad.py": (
                    "import os\n"
                    "a = os.environ.get('REPRO_X')\n"
                    "b = os.environ['REPRO_Y']\n"
                )
            },
        )
        assert hits == [
            ("DET-003", "experiments/bad.py"),
            ("DET-003", "experiments/bad.py"),
        ]

    def test_positive_config_module(self, tmp_path):
        # No module is exempt: repro.config reads no environment either.
        hits = _scan(
            tmp_path,
            {"config.py": "import os\nx = os.environ.get('REPRO_SCALE')\n"},
        )
        assert hits == [("DET-003", "config.py")]

    def test_negative_env_write(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"cli.py": "import os\n\ndef f():\n    os.environ['REPRO_X'] = '1'\n"},
        )
        assert hits == []


class TestDET004WallClockDate:
    def test_positive_datetime_now_anywhere(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "viz/bad.py": (
                    "import datetime\n"
                    "stamp = datetime.datetime.now()\n"
                )
            },
        )
        assert hits == [("DET-004", "viz/bad.py")]

    def test_negative_unrelated_now(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"viz/ok.py": "def f(clock):\n    return clock.now()\n"},
        )
        assert hits == []


class TestDET005UnorderedMerge:
    def test_positive_set_iteration_in_merge(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "viz/bad.py": (
                    "def merge_results(parts):\n"
                    "    out = []\n"
                    "    for key in set(parts):\n"
                    "        out.append(parts[key])\n"
                    "    return out\n"
                )
            },
        )
        assert hits == [("DET-005", "viz/bad.py")]

    def test_positive_set_op_result_in_reduce(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "viz/bad.py": (
                    "def reduce_keys(a, b):\n"
                    "    return [k for k in a.union(b)]\n"
                )
            },
        )
        assert hits == [("DET-005", "viz/bad.py")]

    def test_positive_outside_kernel_paths_too(self, tmp_path):
        # Unlike DET-002, merges are policed everywhere (the fleet merge
        # contract does not care which package the reduce lives in).
        hits = _scan(
            tmp_path,
            {
                "experiments/bad.py": (
                    "def combine(xs):\n"
                    "    for x in {1, 2, 3}:\n"
                    "        yield x\n"
                )
            },
        )
        assert hits == [("DET-005", "experiments/bad.py")]

    def test_negative_sorted_indices_and_non_merge_names(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "viz/ok.py": (
                    "def merge_sorted(parts):\n"
                    "    return [parts[k] for k in sorted(set(parts))]\n"
                    "\n"
                    "def merge_indexed(n, by_slot):\n"
                    "    return [by_slot[i] for i in range(n)]\n"
                    "\n"
                    "def walk(xs):\n"
                    "    for x in set(xs):\n"
                    "        pass\n"
                ),
            },
        )
        assert hits == []


class TestRNG101NakedGenerator:
    def test_positive_random_random_in_aco(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"aco/bad.py": "import random\nrng = random.Random(3)\n"},
        )
        assert hits == [("RNG-101", "aco/bad.py")]

    def test_positive_from_import_alias(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"parallel/bad.py": "from numpy.random import default_rng\nr = default_rng(1)\n"},
        )
        assert hits == [("RNG-101", "parallel/bad.py")]

    def test_negative_owner_modules_and_other_packages(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "parallel/rng.py": "import random\nroot = random.Random(0)\n",
                "aco/seeding.py": "import random\n\ndef launch_rng(s):\n    return random.Random(s)\n",
                "suite/ok.py": "import random\nrng = random.Random(5)\n",
            },
        )
        assert hits == []


class TestRNG102SpawnOutsideOwner:
    def test_positive_spawn_in_parallel(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"parallel/bad.py": "def f(streams):\n    return streams.spawn(4)\n"},
        )
        assert hits == [("RNG-102", "parallel/bad.py")]

    def test_negative_owner_and_non_scoped(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "parallel/rng.py": "def fan_out(root, n):\n    return root.spawn(n)\n",
                "suite/ok.py": "def f(seq):\n    return seq.spawn(2)\n",
            },
        )
        assert hits == []


class TestDIV201PerLaneLoop:
    def test_positive_loop_over_lane_axis(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "parallel/vectorized.py": (
                    "class Colony:\n"
                    "    def step(self):\n"
                    "        for a in range(self.num_ants):\n"
                    "            pass\n"
                )
            },
        )
        assert hits == [("DIV-201", "parallel/vectorized.py")]

    def test_negative_loop_backend_is_exempt(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "parallel/loop.py": (
                    "class Colony:\n"
                    "    def step(self):\n"
                    "        for a in range(self.num_ants):\n"
                    "            pass\n"
                )
            },
        )
        assert hits == []


class TestDIV202LaneArrayAliasing:
    def test_positive_bare_attribute_aliasing(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "parallel/vectorized.py": (
                    "class Colony:\n"
                    "    def reset(self):\n"
                    "        self.dead = self.active\n"
                )
            },
        )
        assert hits == [("DIV-202", "parallel/vectorized.py")]

    def test_negative_copy_and_slice_write(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "parallel/vectorized.py": (
                    "class Colony:\n"
                    "    def reset(self):\n"
                    "        self.dead = self.active.copy()\n"
                    "        self.done[:] = self.active\n"
                )
            },
        )
        assert hits == []


class TestACC301AccountingWrite:
    def test_positive_cycles_write_outside_owner(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "aco/bad.py": (
                    "def f(acct):\n"
                    "    acct.compute_cycles += 5\n"
                    "    acct.total_seconds = 1.0\n"
                )
            },
        )
        assert hits == [("ACC-301", "aco/bad.py"), ("ACC-301", "aco/bad.py")]

    def test_negative_owner_modules(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "gpusim/kernel.py": "def f(acct):\n    acct.compute_cycles += 5\n",
                "profile/spans.py": "def f(span):\n    span.leaf_seconds += 1.0\n",
                "timing.py": "def f(ledger):\n    ledger.total_seconds = 0.0\n",
            },
        )
        assert hits == []


class TestACC302HandRolledAccumulator:
    def test_positive_seconds_accumulator(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "aco/bad.py": (
                    "def f(items):\n"
                    "    seconds = 0.0\n"
                    "    for x in items:\n"
                    "        seconds += x\n"
                    "    return seconds\n"
                )
            },
        )
        assert hits == [("ACC-302", "aco/bad.py")]

    def test_negative_outside_scheduler_packages(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "bench/ok.py": (
                    "def f(items):\n"
                    "    seconds = 0.0\n"
                    "    for x in items:\n"
                    "        seconds += x\n"
                    "    return seconds\n"
                )
            },
        )
        assert hits == []


class TestLAY401ImportLayering:
    def test_positive_gpusim_importing_aco(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"gpusim/bad.py": "from ..aco.sequential import ACOResult\n"},
        )
        assert hits == [("LAY-401", "gpusim/bad.py")]

    def test_positive_absolute_spelling(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"obs/bad.py": "import repro.parallel.colony\n"},
        )
        assert hits == [("LAY-401", "obs/bad.py")]

    def test_positive_from_dot_import(self, tmp_path):
        hits = _scan(
            tmp_path,
            {"telemetry/bad.py": "from .. import gpusim\n"},
        )
        assert hits == [("LAY-401", "telemetry/bad.py")]

    def test_negative_allowed_edges(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "gpusim/ok.py": "from ..timing import HostSecondsLedger\n",
                "aco/ok.py": "from ..rp.cost import rp_cost\n",
                "parallel/ok.py": "from ..gpusim.device import GPUDevice\n",
            },
        )
        assert hits == []

    def test_negative_type_checking_only_import(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "ir/ok.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from ..schedule.schedule import Schedule\n"
                )
            },
        )
        assert hits == []


class TestOBS501HandRolledEvent:
    def test_positive_envelope_dict_literal(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "resilience/bad.py": (
                    "def publish(sink, n):\n"
                    "    sink.write({'v': 1, 'seq': n, 'event': 'fault'})\n"
                )
            },
        )
        assert ("OBS-501", "resilience/bad.py") in hits

    def test_positive_raw_sink_write_of_event_dict(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                "pipeline/bad.py": (
                    "def publish(sink, region):\n"
                    "    sink.write({'event': 'region_end', 'region': region})\n"
                )
            },
        )
        assert hits == [("OBS-501", "pipeline/bad.py")]

    def test_negative_owner_module_and_plain_dicts(self, tmp_path):
        hits = _scan(
            tmp_path,
            {
                # The sanctioned funnel builds the envelope by hand.
                "telemetry/core.py": (
                    "def emit(sink, seq, event):\n"
                    "    record = {'v': 1, 'seq': seq, 'event': event}\n"
                    "    sink.write(record)\n"
                ),
                # Non-event dicts and non-dict writes are fine anywhere.
                "obs/ok.py": (
                    "def save(handle, payload):\n"
                    "    handle.write({'kind': 'schedule', 'order': payload})\n"
                    "    return {'v': 1, 'seq': 2}\n"
                ),
            },
        )
        assert all(rule != "OBS-501" for rule, _ in hits)
