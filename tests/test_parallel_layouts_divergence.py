"""Tests for the device image (layouts) and the divergence policy."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import GPUParams
from repro.ddg import DDG, TransitiveClosure
from repro.machine import amd_vega20
from repro.parallel import AntRngStreams, DivergencePolicy, RegionDeviceData

from strategies import ddgs, non_ssa_regions


class TestRegionDeviceData:
    def test_figure1_image(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        assert data.num_instructions == 7
        assert data.num_registers == 7
        assert data.ready_capacity == 5  # the Section V-A tight bound
        assert data.uses.shape[1] == 2  # max two operands in figure 1
        assert data.succ_ids.shape == data.succ_lat.shape

    def test_trivial_bound_when_disabled(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega, tight_ready_bound=False)
        assert data.ready_capacity == 7

    def test_luts_match_tables(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        for ci, cls in enumerate(data.classes):
            table = vega.table_for(cls)
            for pressure in (0, 1, 24, 25, 28, 29):
                if pressure < data.lut_width:
                    assert data.occ_lut[ci, pressure] == table.occupancy(pressure)
                    assert data.aprp_lut[ci, pressure] == table.aprp(pressure)

    def test_live_out_mask(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        out_ids = [i for i in range(data.num_registers) if data.live_out_mask[i]]
        assert [str(data.registers[i]) for i in out_ids] == ["v7"]

    def test_device_arrays_nonempty(self, fig1_ddg, vega):
        data = RegionDeviceData(fig1_ddg, vega)
        arrays = data.device_arrays()
        assert len(arrays) >= 10
        assert all(np.asarray(a).nbytes >= 0 for a in arrays)

    def test_per_ant_bytes_scale_with_capacity(self, fig1_ddg, vega):
        tight = RegionDeviceData(fig1_ddg, vega, tight_ready_bound=True)
        loose = RegionDeviceData(fig1_ddg, vega, tight_ready_bound=False)
        assert loose.per_ant_state_bytes(64) > tight.per_ant_state_bytes(64)

    @given(ddgs())
    @settings(max_examples=25, deadline=None)
    def test_capacity_bounds_hold(self, ddg):
        data = RegionDeviceData(ddg, amd_vega20())
        closure = TransitiveClosure(ddg)
        assert data.ready_capacity >= min(
            ddg.num_instructions, closure.ready_list_upper_bound()
        )
        assert data.ready_capacity <= ddg.num_instructions

    @given(ddgs())
    @settings(max_examples=25, deadline=None)
    def test_operand_tables_roundtrip(self, ddg):
        data = RegionDeviceData(ddg, amd_vega20())
        for inst in ddg.region:
            uses = [data.registers[r] for r in data.uses[inst.index] if r >= 0]
            assert sorted(map(str, uses)) == sorted(map(str, inst.uses))
            defs = [data.registers[r] for r in data.defs[inst.index] if r >= 0]
            assert sorted(map(str, defs)) == sorted(map(str, inst.defs))

    @given(non_ssa_regions())
    @settings(max_examples=25, deadline=None)
    def test_liveness_arrays_match_the_region(self, region):
        """The arrays derived from the register table, recomputed per
        register from the region (redefinitions included)."""
        data = RegionDeviceData(DDG(region), amd_vega20())
        ids = {reg: i for i, reg in enumerate(data.registers)}
        class_index = {cls: i for i, cls in enumerate(data.classes)}
        assert sorted(ids) == sorted(region.live_in | region.defined_registers | region.used_registers)
        opens = np.zeros((len(region), data.num_classes), dtype=np.int32)
        for inst in region:
            for reg in inst.defs:
                if reg.reg_class in class_index:
                    opens[inst.index, class_index[reg.reg_class]] += 1
            closers = [reg not in region.live_out and reg not in inst.defs for reg in inst.uses]
            assert data.closer_slots[inst.index, : len(closers)].tolist() == closers
            assert not data.closer_slots[inst.index, len(closers) :].any()
        assert (data.defs_per_class == opens).all()
        for reg, i in ids.items():
            assert data.total_use_counts[i] == sum(inst.uses.count(reg) for inst in region)
            assert data.live_out_mask[i] == (reg in region.live_out)
            assert data.reg_class[i] == class_index.get(reg.reg_class, -1)
        assert sorted(data.live_in_ids.tolist()) == sorted(ids[reg] for reg in region.live_in)
        live_in = [sum(1 for reg in region.live_in if reg.reg_class is cls) for cls in data.classes]
        assert data.live_in_per_class.tolist() == live_in


class TestDivergencePolicy:
    def _policy(self, **overrides):
        gpu = GPUParams(blocks=8, **overrides)
        return DivergencePolicy.from_params(gpu, wavefront_size=64)

    def test_from_params(self):
        policy = self._policy()
        assert policy.num_wavefronts == 8
        assert policy.wavefront_size == 64
        assert policy.num_ants == 512

    def test_stall_mask_fraction(self):
        policy = self._policy(stall_wavefront_fraction=0.25)
        assert policy.stall_wavefront_mask().sum() == 2
        assert self._policy(stall_wavefront_fraction=0.0).stall_wavefront_mask().sum() == 0
        assert self._policy(stall_wavefront_fraction=1.0).stall_wavefront_mask().sum() == 8

    def test_stall_mask_spread(self):
        mask = self._policy(stall_wavefront_fraction=0.5).stall_wavefront_mask()
        # Evenly spread, not clustered at the front.
        assert mask.sum() == 4
        assert mask[0] and not mask[1]

    def test_heuristic_assignment_rotates(self):
        policy = self._policy(heuristic_diversity=True)
        assignment = policy.heuristic_assignment(2)
        assert set(assignment) == {0, 1}
        off = self._policy(heuristic_diversity=False).heuristic_assignment(2)
        assert set(off) == {0}

    def test_wavefront_level_draw_uniform_within_wavefront(self):
        policy = self._policy(wavefront_level_choice=True)
        draw = policy.exploit_draw_streams(AntRngStreams(0, policy.num_ants), q0=0.5)
        blocks = draw.reshape(8, 64)
        assert 0 < blocks[:, 0].sum() < 8
        for row in blocks:
            assert row.all() or not row.any()

    def test_thread_level_draw_varies_within_wavefront(self):
        policy = self._policy(wavefront_level_choice=False)
        draw = policy.exploit_draw_streams(AntRngStreams(0, policy.num_ants), q0=0.5)
        blocks = draw.reshape(8, 64)
        assert any(0 < row.sum() < 64 for row in blocks)


class TestGPUParamsToggles:
    def test_without_memory_opts(self):
        gpu = GPUParams().without_memory_opts()
        assert not gpu.soa_layout
        assert not gpu.tight_ready_list_bound
        assert not gpu.batched_transfers
        assert gpu.wavefront_level_choice  # divergence opts untouched

    def test_without_divergence_opts(self):
        gpu = GPUParams().without_divergence_opts()
        assert not gpu.wavefront_level_choice
        assert gpu.stall_wavefront_fraction == 1.0
        assert not gpu.early_wavefront_termination
        assert not gpu.heuristic_diversity
        assert gpu.soa_layout  # memory opts untouched
