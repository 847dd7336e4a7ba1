"""Tests for the gpusim sanitizer: per-ant index checks and colony invariants."""

import types

import numpy as np
import pytest

from repro.aco import PheromoneTable
from repro.analysis import ColonySanitizer
from repro.config import ACOParams, GPUParams
from repro.ddg import DDG
from repro.errors import SanitizerError
from repro.gpusim import GPUDevice, KernelAccounting
from repro.parallel import (
    BACKENDS,
    DivergencePolicy,
    ParallelACOScheduler,
    RegionDeviceData,
)


def _make_colony(
    ddg, machine, blocks=1, seed=0, sanitize=True, backend="vectorized", **gpu_overrides
):
    gpu = GPUParams(blocks=blocks, **gpu_overrides)
    params = ACOParams()
    policy = DivergencePolicy.from_params(gpu, GPUDevice().wavefront_size)
    data = RegionDeviceData(ddg, machine, tight_ready_bound=gpu.tight_ready_list_bound)
    accounting = KernelAccounting(GPUDevice(), policy.num_wavefronts, coalesced=True)
    sanitizer = ColonySanitizer() if sanitize else None
    colony = BACKENDS[backend](
        data,
        params,
        policy,
        accounting,
        seed,
        sanitizer=sanitizer,
    )
    return colony, data, params


class TestCheckIndex:
    """The one bounds check: ant row and column, each against both bounds."""

    def test_negative_scalar_index_rejected(self):
        with pytest.raises(SanitizerError, match="column index -1 .* of buf"):
            ColonySanitizer().check_index("buf", (2, 8), 1, -1)

    def test_negative_array_index_rejected(self):
        with pytest.raises(SanitizerError, match="ant index -1"):
            ColonySanitizer().check_index("buf", (2, 8), np.array([0, -1]), np.array([0, 0]))

    def test_index_at_bound_rejected(self):
        sanitizer = ColonySanitizer()
        with pytest.raises(SanitizerError, match=r"column index 8 outside \[0, 8\) of buf"):
            sanitizer.check_index("buf", (2, 8), np.array([0, 1]), np.array([3, 8]))
        with pytest.raises(SanitizerError, match=r"ant index 2 outside \[0, 2\)"):
            sanitizer.check_index("buf", (2, 8), 2, 0)

    def test_in_bounds_indices_pass(self):
        sanitizer = ColonySanitizer()
        sanitizer.check_index("buf", (3, 4), 2, 3)
        sanitizer.check_index("buf", (3, 4), np.array([0, 2]), np.array([1, 2]))
        empty = np.zeros(0, dtype=np.int64)
        sanitizer.check_index("buf", (3, 4), empty, empty)


def _scheduler_colony(ddg, machine, **kw):
    scheduler = ParallelACOScheduler(machine, gpu_params=GPUParams(blocks=1), **kw)
    colony, _ = scheduler._make_colony(RegionDeviceData(ddg, machine), seed=0)
    return scheduler, colony


class TestEnvGating:
    """The colony sanitizes exactly when the scheduler's ``verify``
    argument hands it a sanitizer; the process environment has no say."""

    def test_defaults_off(self, fig1_ddg, vega):
        scheduler, colony = _scheduler_colony(fig1_ddg, vega)
        assert not scheduler.verify_enabled
        assert colony.sanitizer is None

    def test_sanitize_env(self, fig1_ddg, vega, monkeypatch):
        # The retired REPRO_SANITIZE / REPRO_VERIFY switches are inert.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_VERIFY", "1")
        scheduler, colony = _scheduler_colony(fig1_ddg, vega)
        assert not scheduler.verify_enabled
        assert colony.sanitizer is None
        plain, _, _ = _make_colony(fig1_ddg, vega, sanitize=False)
        assert plain.sanitizer is None

    def test_verify_implies_sanitize(self, fig1_ddg, vega):
        for backend in ("vectorized", "loop"):
            _, colony = _scheduler_colony(fig1_ddg, vega, verify=True, backend=backend)
            assert isinstance(colony.sanitizer, ColonySanitizer)


class TestColonyCleanRuns:
    def test_rp_iteration_sanitized(self, fig1_ddg, vega):
        colony, _, params = _make_colony(fig1_ddg, vega)
        result = colony.run_rp_iteration(PheromoneTable(7, params).tau)
        assert sorted(result.winner_order) == list(range(7))
        assert colony.sanitizer.steps_checked == 7

    def test_ilp_iteration_sanitized(self, fig1_ddg, vega):
        colony, _, params = _make_colony(fig1_ddg, vega)
        result = colony.run_ilp_iteration(
            PheromoneTable(7, params).tau, {}, max_length=32
        )
        assert result.winner_order is not None
        assert colony.sanitizer.steps_checked > 0

    def test_sanitizer_does_not_change_results(self, fig1_ddg, vega):
        """Sanitize mode observes; the constructed schedules are identical."""
        plain, _, params = _make_colony(fig1_ddg, vega, sanitize=False, seed=3)
        sanitized, _, _ = _make_colony(fig1_ddg, vega, sanitize=True, seed=3)
        tau = PheromoneTable(7, params).tau
        assert (
            plain.run_rp_iteration(tau).winner_order
            == sanitized.run_rp_iteration(tau).winner_order
        )


class TestFaultInjection:
    def test_oversized_ready_list(self, fig1_ddg, vega):
        """Mutation: the available list claims more entries than the
        Section V-A bound sized the buffer for."""
        colony, data, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        colony.avail_len[0] = data.ready_capacity + 1
        with pytest.raises(SanitizerError, match="Section V-A bound"):
            colony.sanitizer.check_step(colony)

    def test_poison_violation(self, fig1_ddg, vega):
        """Mutation: a stale id appears beyond the list's length."""
        colony, data, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        free_slot = int(colony.avail_len[0])
        assert free_slot < data.ready_capacity
        np.asarray(colony.avail_ids)[0, free_slot] = 3
        with pytest.raises(SanitizerError, match="poison"):
            colony.sanitizer.check_step(colony)

    def test_duplicate_in_available_list(self, fig1_ddg, vega):
        """Mutation: a cross-ant write lands an id twice in one ant."""
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        np.asarray(colony.avail_ids)[0, 1] = np.asarray(colony.avail_ids)[0, 0]
        with pytest.raises(SanitizerError, match="aliasing|appears"):
            colony.sanitizer.check_step(colony)

    def test_duplicate_report_names_first_ant_and_instruction(self, fig1_ddg, vega):
        """With duplicates in two ants, the lowest (ant, instruction) is named."""
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        avail = np.asarray(colony.avail_ids)
        first = int(avail[1, 0])
        avail[2, 0] = avail[2, 1]
        avail[1, 1] = first
        with pytest.raises(SanitizerError) as info:
            colony.sanitizer.check_step(colony)
        assert str(info.value) == (
            "instruction %d appears 2 times in ant 1's issued/available state "
            "(cross-ant aliasing or duplicate issue)" % first
        )

    def test_negative_pred_counter(self, fig1_ddg, vega):
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        np.asarray(colony.pred_remaining)[0, 0] = -1
        with pytest.raises(SanitizerError, match="predecessor"):
            colony.sanitizer.check_step(colony)

    def test_non_uniform_wavefront_decision(self):
        """Mutation: one lane explores while its wavefront exploits."""
        sanitizer = ColonySanitizer()
        exploit = np.ones(128, dtype=bool)
        exploit[5] = False  # lane 5 of wavefront 0 diverges
        with pytest.raises(SanitizerError, match="wavefront 0"):
            sanitizer.check_exploit_uniform(exploit, 2, 64)
        # Uniform draws pass.
        sanitizer.check_exploit_uniform(np.zeros(128, dtype=bool), 2, 64)

    def test_winner_order_corruption(self, fig1_ddg, vega):
        """Mutation: the winning ant's order lost an instruction."""
        colony, _, params = _make_colony(fig1_ddg, vega)
        colony.run_rp_iteration(PheromoneTable(7, params).tau)
        np.asarray(colony.order_buf)[0, 0] = np.asarray(colony.order_buf)[0, 1]
        with pytest.raises(SanitizerError, match="incomplete or duplicated"):
            colony.sanitizer.check_iteration_end(colony, winner=0)

    def test_aliased_rows_rejected_at_layout_audit(self, fig1_ddg, vega):
        """Mutation: two ants' rows share memory (stride-0 broadcast)."""
        colony, data, _ = _make_colony(fig1_ddg, vega)
        fake = types.SimpleNamespace(
            num_ants=colony.num_ants,
            data=data,
            avail_ids=np.broadcast_to(
                np.zeros(data.ready_capacity, dtype=np.int32),
                (colony.num_ants, data.ready_capacity),
            ),
            avail_release=colony.avail_release,
            pred_remaining=colony.pred_remaining,
            remaining_uses=colony.remaining_uses,
            order_buf=colony.order_buf,
            cycles_buf=colony.cycles_buf,
        )
        with pytest.raises(SanitizerError, match="share state|overlap"):
            colony.sanitizer.audit_layout(fake)

    def test_wrong_capacity_rejected(self, fig1_ddg, vega):
        colony, data, _ = _make_colony(fig1_ddg, vega)
        fake = types.SimpleNamespace(
            num_ants=colony.num_ants,
            data=data,
            avail_ids=np.zeros(
                (colony.num_ants, data.ready_capacity + 2), dtype=np.int32
            ),
            avail_release=colony.avail_release,
            pred_remaining=colony.pred_remaining,
            remaining_uses=colony.remaining_uses,
            order_buf=colony.order_buf,
            cycles_buf=colony.cycles_buf,
        )
        with pytest.raises(SanitizerError, match="capacity"):
            colony.sanitizer.audit_layout(fake)

    def test_negative_column_caught_through_flat_offsets(self, fig1_ddg, vega):
        """Mutation: lanes issue an uninitialized pick (-1). Folded into a
        flat offset, column -1 of ant a is a valid-looking cell of ant
        a - 1, so the 2-D key must be checked before folding."""
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        doers = np.arange(colony.num_ants) > 0  # ant 0 would go negative anyway
        chosen = np.full(colony.num_ants, -1, dtype=np.int32)
        with pytest.raises(SanitizerError, match="cycles_buf"):
            colony._schedule_chosen(doers, chosen, cycle=0)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_pick_at_row_width_caught_before_neighbour_write(self, fig1_ddg, vega, backend):
        """Mutation: ant 0 issues instruction n. Folded into a flat offset,
        column n of ant 0 is column 0 of ant 1, so the check must see the
        column against the row width before the write."""
        colony, data, _ = _make_colony(fig1_ddg, vega, backend=backend)
        colony._reset()
        doers = np.zeros(colony.num_ants, dtype=bool)
        doers[0] = True
        chosen = np.zeros(colony.num_ants, dtype=np.int32)
        chosen[0] = data.num_instructions
        neighbour = colony.cycles_buf[1].copy()
        with pytest.raises(SanitizerError, match="cycles_buf"):
            colony._schedule_chosen(doers, chosen, cycle=5)
        assert (colony.cycles_buf[1] == neighbour).all()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_selection_past_available_list_caught(self, fig1_ddg, vega, backend):
        """Mutation: ant 0 selects the column one past its available list's
        capacity, which is ant 1's first entry once folded."""
        colony, data, _ = _make_colony(fig1_ddg, vega, backend=backend)
        colony._reset()
        doers = np.zeros(colony.num_ants, dtype=bool)
        doers[0] = True
        sel = np.zeros(colony.num_ants, dtype=np.int64)
        sel[0] = data.ready_capacity
        neighbour = colony.avail_ids[1].copy()
        with pytest.raises(SanitizerError, match="avail_ids"):
            colony._remove_from_avail(doers, sel)
        assert (colony.avail_ids[1] == neighbour).all()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_remove_from_empty_available_list(self, fig1_ddg, vega, backend):
        """Mutation: an ant removes from an empty available list, so its
        last entry is column -1 (numpy would wrap it to the row's end, a
        flat offset to the previous ant's last slot)."""
        colony, _, _ = _make_colony(fig1_ddg, vega, backend=backend)
        colony._reset()
        colony.avail_ids[1] = -1
        colony.avail_len[1] = 0
        doers = np.zeros(colony.num_ants, dtype=bool)
        doers[1] = True
        with pytest.raises(SanitizerError, match="avail_ids"):
            colony._remove_from_avail(doers, np.zeros(colony.num_ants, dtype=np.int64))

    @pytest.mark.parametrize(
        "name",
        [
            "avail_ids", "avail_release", "pred_remaining", "earliest",
            "remaining_uses", "live", "current", "order_buf", "cycles_buf",
        ],
    )
    def test_write_into_sentinel_column_caught(self, fig1_ddg, vega, name):
        """Mutation: a real write lands in an array's sentinel column (a
        column equal to the row width, folded into a flat offset)."""
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        colony.sanitizer.check_step(colony)
        column, reset = {
            entry: (col, value) for entry, col, value in colony.sentinel_columns
        }[name]
        column[3] = not reset if column.dtype == bool else reset - 1
        with pytest.raises(SanitizerError, match="sentinel column of %s .* ant 3" % name):
            colony.sanitizer.check_step(colony)

    def test_idle_lane_issuing_a_real_pick_caught(self, fig1_ddg, vega):
        """Mutation: a non-doer lane carries a real pick instead of -1, so
        its lockstep order write into the sentinel slot is not inert."""
        colony, _, _ = _make_colony(fig1_ddg, vega)
        colony._reset()
        doers = np.ones(colony.num_ants, dtype=bool)
        doers[5] = False
        chosen = colony._remove_from_avail(doers, np.zeros(colony.num_ants, dtype=np.int64))
        chosen[5] = colony.avail_ids[5, 0]
        colony._schedule_chosen(doers, chosen, cycle=0)
        with pytest.raises(SanitizerError, match="sentinel column of order_buf .* ant 5"):
            colony.sanitizer.check_step(colony)

    def test_state_arrays_print_in_sanitize_mode(self, fig1_ddg, vega):
        """Debugging a sanitized colony prints its state like any array."""
        colony, _, params = _make_colony(fig1_ddg, vega)
        colony.run_rp_iteration(PheromoneTable(7, params).tau)
        for name in ("avail_ids", "cycles_buf", "order_buf", "remaining_uses", "live"):
            text = repr(getattr(colony, name))
            assert text.startswith("array(")
