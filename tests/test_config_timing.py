"""Tests for configuration dataclasses and the cost models."""

import numpy as np
import pytest

from repro.config import (
    ACOParams,
    FilterParams,
    FleetParams,
    GPUParams,
    ResilienceParams,
    SIZE_CLASS_LABELS,
    SuiteParams,
    geometric_mean,
    replace_params,
    size_class_index,
)
from repro.errors import ConfigError
from repro.parallel import DivergencePolicy
from repro.pipeline.filters import REVERT_LENGTH_DEGRADATION, REVERT_OCCUPANCY_GAIN
from repro.timing import (
    CompileTimeModel,
    CPUCostModel,
    DEFAULT_COMPILE_TIME,
    DEFAULT_CPU_COST,
    DEFAULT_GPU_COST,
    GPUCostModel,
)


class TestSizeClasses:
    def test_paper_classes(self):
        assert size_class_index(1) == 0
        assert size_class_index(49) == 0
        assert size_class_index(50) == 1
        assert size_class_index(99) == 1
        assert size_class_index(100) == 2
        assert size_class_index(2223) == 2

    def test_labels(self):
        assert SIZE_CLASS_LABELS == ("1-49", "50-99", ">=100")

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            size_class_index(0)


class TestACOParams:
    def test_defaults_valid(self):
        ACOParams().validate()

    def test_paper_settings(self):
        params = ACOParams()
        assert params.decay == 0.8  # Section IV-A
        assert params.termination_conditions == (1, 2, 3)  # Section VI-A

    def test_termination_by_size(self):
        params = ACOParams()
        assert params.termination_condition(10) == 1
        assert params.termination_condition(75) == 2
        assert params.termination_condition(500) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(exploitation_prob=1.5),
            dict(decay=0.0),
            dict(initial_pheromone=0.0),
            dict(min_pheromone=2.0, max_pheromone=1.0),
            dict(termination_conditions=(1, 2)),
            dict(termination_conditions=(0, 1, 2)),
            dict(sequential_ants=0),
            dict(max_iterations=0),
            # NaN fails every positive check; these were silently accepted.
            dict(initial_pheromone=float("nan")),
            dict(min_pheromone=float("nan")),
            dict(max_pheromone=float("nan")),
            dict(mmas_tau_min_scale=float("nan")),
            dict(deposit=0.0),
            dict(deposit=-1.0),
            dict(optional_stall_prob=-0.5),
            dict(optional_stall_prob=float("nan")),
            dict(optional_stall_budget=-1.0),
            dict(optional_stall_budget=float("nan")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ACOParams(**kwargs).validate()


class TestGPUParams:
    def test_paper_geometry(self):
        gpu = GPUParams()
        assert gpu.blocks == 180
        assert gpu.total_threads(64) == 11_520  # Section IV-B
        assert gpu.wavefronts == 180
        gpu.validate()

    def test_threads_must_match_wavefront(self):
        # A block is one wavefront: its thread count is derived from the
        # device's wavefront size and cannot disagree with it.
        gpu = GPUParams(blocks=3)
        for wavefront_size in (4, 32, 64):
            policy = DivergencePolicy.from_params(gpu, wavefront_size)
            assert policy.wavefront_size == wavefront_size
            assert policy.num_ants == gpu.total_threads(wavefront_size)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            GPUParams(stall_wavefront_fraction=1.5).validate()

    def test_replace_params(self):
        gpu = replace_params(GPUParams(), blocks=4)
        assert gpu.blocks == 4
        assert gpu.soa_layout  # untouched


class TestFilterAndSuiteParams:
    def test_defaults(self):
        filters = FilterParams()
        assert filters.cycle_threshold == 21  # Table 7's best
        assert REVERT_OCCUPANCY_GAIN == 3  # Section VI-D
        assert REVERT_LENGTH_DEGRADATION == 63
        filters.validate()

    def test_invalid(self):
        with pytest.raises(ConfigError):
            FilterParams(cycle_threshold=-1).validate()
        with pytest.raises(ConfigError):
            SuiteParams(num_kernels=0).validate()


#: Every count setting, with a valid value (a float count passes the range
#: checks but crashes with a TypeError where it is used).
COUNT_FIELDS = [
    (ACOParams, "sequential_ants", 2),
    (ACOParams, "max_iterations", 2),
    (ACOParams, "termination_conditions", (1, 2, 3)),
    (ACOParams, "mmas_patience", 2),
    (ACOParams, "mmas_reinit_stagnation", 2),
    (GPUParams, "blocks", 2),
    (ResilienceParams, "max_retries", 2),
    (FleetParams, "num_shards", 2),
    (SuiteParams, "num_benchmarks", 2),
    (SuiteParams, "num_kernels", 2),
    (SuiteParams, "regions_per_kernel", 2),
]


def _fractional(value):
    if isinstance(value, tuple):
        return value[:1] + (2.5,) + value[2:]
    return value + 0.5


class TestIntegerCounts:
    @pytest.mark.parametrize(
        "cls, field, valid", COUNT_FIELDS, ids=[f for _c, f, _v in COUNT_FIELDS]
    )
    def test_fractional_count_rejected(self, cls, field, valid):
        with pytest.raises(ConfigError, match="must be (an )?integers?"):
            cls(**{field: _fractional(valid)}).validate()

    @pytest.mark.parametrize(
        "cls, field, valid", COUNT_FIELDS, ids=[f for _c, f, _v in COUNT_FIELDS]
    )
    def test_numpy_integer_count_accepted(self, cls, field, valid):
        if isinstance(valid, tuple):
            valid = tuple(np.int64(v) for v in valid)
        else:
            valid = np.int64(valid)
        cls(**{field: valid}).validate()

    def test_bool_count_rejected(self):
        with pytest.raises(ConfigError, match="blocks must be an integer"):
            GPUParams(blocks=True).validate()


class TestResilienceParams:
    @pytest.mark.parametrize("seed", [0, 42, np.int64(7)])
    def test_integer_chaos_seed_accepted(self, seed):
        ResilienceParams(chaos_seed=seed).validate()

    @pytest.mark.parametrize("seed", ["x", 1.7, True, float("nan")])
    def test_non_integer_chaos_seed_rejected(self, seed):
        with pytest.raises(ConfigError):
            ResilienceParams(chaos_seed=seed).validate()


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            geometric_mean([1.0, 0.0])


class TestCostModels:
    def test_cpu_construction_linear(self):
        model = CPUCostModel()
        assert model.construction_seconds(10, 100, 50) == pytest.approx(
            10 * model.step_op + 100 * model.ready_scan_op + 50 * model.successor_op
        )
        assert model.pheromone_seconds(1000) == pytest.approx(1000 * model.pheromone_op)

    def test_gpu_copy_model(self):
        model = GPUCostModel()
        assert model.copy_seconds(0, 1) == pytest.approx(model.per_copy_call)
        assert model.copy_seconds(8_000_000_000, 0) == pytest.approx(
            8_000_000_000 / model.copy_bandwidth
        )

    def test_gpu_kernel_batches(self):
        model = GPUCostModel(compute_units=1, simds_per_cu=1, clock_hz=1e9)
        one = model.kernel_seconds(1000.0, 1)
        two = model.kernel_seconds(1000.0, 2)
        assert two == pytest.approx(2 * one)

    def test_compile_time_model(self):
        model = CompileTimeModel()
        assert model.heuristic_seconds(100) > model.heuristic_seconds(10)
        assert model.base_seconds(1000, 2) == pytest.approx(
            1000 * model.base_per_instruction + 2 * model.base_per_kernel
        )

    def test_defaults_exported(self):
        assert DEFAULT_CPU_COST.ready_scan_op > 0
        assert DEFAULT_GPU_COST.clock_hz == 1.8e9  # Radeon VII clock
        assert DEFAULT_GPU_COST.compute_units == 60
        assert DEFAULT_COMPILE_TIME.base_per_instruction > 0
