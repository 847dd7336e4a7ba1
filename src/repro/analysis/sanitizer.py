"""The gpusim sanitizer: bounds-checked SoA offsets and lockstep invariants.

Section V-A replaces device-side dynamic allocation with fixed-capacity
structure-of-arrays buffers indexed by computed offsets — exactly the kind
of code where an off-by-one silently corrupts a *neighbouring ant's* state
instead of faulting (the GPU-ACO failure mode Skinderowicz documents).
When sanitize mode is on (``--verify``, or an explicit ``verify=True`` on
the parallel scheduler, which hands the colony a :class:`ColonySanitizer`),
the colony:

* checks every computed per-ant state index with
  :meth:`ColonySanitizer.check_index` before the access: the ant row and
  the column, each against both bounds. The vectorized engine checks
  every doer's real column against the real width before its dense
  writes, the loop engine at its scalar writes. Folded into a flat offset,
  a column of ``-1`` or past the row would otherwise land in the
  neighbouring ant's row, and one of the row width in the row's sentinel
  column (numpy would also wrap a ``-1`` to the end of a row): the Python
  analogue of an out-of-bounds device access;
* runs :meth:`ColonySanitizer.check_step` after every lockstep step,
  which audits the available-list bound of Section V-A, the ``-1`` poison
  discipline on uninitialized slots, per-ant consistency between the
  available list and the issued prefix (a cross-ant write would break
  these with overwhelming probability), non-negative counters, and that
  every per-ant sentinel column (where the vectorized engine's idle lanes
  and padded slots write) still holds its reset value;
* asserts wavefront-uniform explore/exploit draws whenever the
  wavefront-level-choice divergence optimization claims uniformity.

All failures raise :class:`~repro.errors.SanitizerError` immediately —
a sanitizer that reports late is a sanitizer that gets ignored.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SanitizerError


# -- the colony sanitizer ----------------------------------------------------


class ColonySanitizer:
    """Lockstep invariant checks for the vectorized colony."""

    def __init__(self):
        self.steps_checked = 0

    # -- one-time layout audit ----------------------------------------------

    def audit_layout(self, colony) -> None:
        """Check that per-ant rows occupy disjoint memory (no aliasing)."""
        for name in ("avail_ids", "avail_release", "pred_remaining",
                     "remaining_uses", "order_buf", "cycles_buf"):
            arr = getattr(colony, name)
            if arr.ndim != 2 or arr.shape[0] != colony.num_ants:
                raise SanitizerError(
                    "%s is not a per-ant 2-D array (shape %r for %d ants)"
                    % (name, arr.shape, colony.num_ants)
                )
            row_bytes = arr.shape[1] * arr.itemsize
            if arr.shape[0] > 1 and abs(arr.strides[0]) < row_bytes:
                raise SanitizerError(
                    "%s rows overlap in memory (stride %d < row size %d): "
                    "ants share state" % (name, arr.strides[0], row_bytes)
                )
        cap = colony.data.ready_capacity
        if colony.avail_ids.shape[1] != cap:
            raise SanitizerError(
                "available-list width %d does not match the declared "
                "capacity %d" % (colony.avail_ids.shape[1], cap)
            )

    # -- per-access bounds ---------------------------------------------------

    def check_index(self, name: str, shape, rows, cols) -> None:
        """Every ``(rows, cols)`` pair must lie inside a ``shape`` array.

        ``rows`` is the ant axis, ``cols`` the column; both may be scalars
        or integer arrays. Checked against both bounds before the access:
        numpy wraps a ``-1`` column to the end of the row, and once the pair
        is folded into a flat offset, a column outside the row lands in
        another cell (a neighbouring ant's row, or the row's sentinel
        column) without any error.
        """
        for axis, index, bound in (("ant", rows, shape[0]), ("column", cols, shape[1])):
            index = np.asarray(index)
            if not index.size:
                return
            low, high = int(index.min()), int(index.max())
            if low < 0 or high >= bound:
                raise SanitizerError(
                    "%s index %d outside [0, %d) of %s (uninitialized slot "
                    "or neighbouring ant's state)"
                    % (axis, low if low < 0 else high, bound, name)
                )

    # -- divergence uniformity ----------------------------------------------

    def check_exploit_uniform(
        self, exploit: np.ndarray, num_wavefronts: int, wavefront_size: int
    ) -> None:
        """Wavefront-level draws must be identical across a wavefront's lanes."""
        lanes = np.asarray(exploit).reshape(num_wavefronts, wavefront_size)
        uniform = (lanes == lanes[:, :1]).all(axis=1)
        if not uniform.all():
            bad = int(np.flatnonzero(~uniform)[0])
            raise SanitizerError(
                "wavefront %d mixes explore and exploit lanes although "
                "wavefront-level choice is on" % bad
            )

    # -- per-step state audit ------------------------------------------------

    def check_step(self, colony) -> None:
        """Audit the SoA state after one lockstep construction step."""
        self.steps_checked += 1
        d = colony.data
        cap = d.ready_capacity
        n = d.num_instructions
        avail_len = np.asarray(colony.avail_len)
        avail_ids = np.asarray(colony.avail_ids)
        order_buf = np.asarray(colony.order_buf)
        scheduled = np.asarray(colony.scheduled)

        if avail_len.min() < 0:
            raise SanitizerError("negative available-list length")
        peak = int(avail_len.max())
        if peak > cap:
            raise SanitizerError(
                "available list grew to %d entries; the Section V-A bound "
                "sized the buffer at %d" % (peak, cap)
            )
        # Each cell as a flat (ant, instruction) key ant * n + id; the
        # uniqueness audit below counts them with one bincount.
        ant_keys = np.arange(colony.num_ants)[:, None] * n
        valid = np.arange(avail_ids.shape[1]) < avail_len[:, None]
        ids = avail_ids[valid]
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise SanitizerError(
                "available list holds instruction id outside [0, %d)" % n
            )
        if (avail_ids[~valid] != -1).any():
            raise SanitizerError(
                "slot beyond the available-list length is not poisoned "
                "(-1): stale or cross-ant write"
            )
        if scheduled.min() < 0 or scheduled.max() > n:
            raise SanitizerError("scheduled-instruction counter out of range")
        issued_valid = np.arange(order_buf.shape[1]) < scheduled[:, None]
        issued = order_buf[issued_valid]
        if issued.size and (issued.min() < 0 or issued.max() >= n):
            raise SanitizerError(
                "issued prefix of order_buf holds an invalid instruction id"
            )
        if (order_buf[~issued_valid] != -1).any():
            raise SanitizerError(
                "order_buf beyond the issued prefix is not poisoned (-1)"
            )
        # Per-ant disjointness and uniqueness: a cross-ant or double write
        # shows up as a duplicate id within one ant's issued+available set.
        keys = np.concatenate(
            ((ant_keys + order_buf)[issued_valid], (ant_keys + avail_ids)[valid])
        )
        marks = np.bincount(keys, minlength=colony.num_ants * n)
        if marks.max() > 1:
            worst = int(np.argmax(marks))
            ant, inst = divmod(worst, n)
            raise SanitizerError(
                "instruction %d appears %d times in ant %d's issued/"
                "available state (cross-ant aliasing or duplicate issue)"
                % (inst, int(marks[worst]), ant)
            )
        if np.asarray(colony.pred_remaining).min() < 0:
            raise SanitizerError("negative unscheduled-predecessor counter")
        if np.asarray(colony.current).min() < 0:
            raise SanitizerError("negative register-pressure counter")
        # Idle lanes and padded slots write into the sentinel columns; each
        # write must leave its column at the reset value, or a real value
        # landed there (and is missing from a real column).
        for name, column, reset in colony.sentinel_columns:
            moved = column != reset
            if moved.any():
                ant = int(np.argmax(moved))
                raise SanitizerError(
                    "sentinel column of %s holds %r in ant %d, not its reset "
                    "value %r: a lane's write there was not inert"
                    % (name, column[ant].item(), ant, reset)
                )

    # -- end of iteration ----------------------------------------------------

    def check_iteration_end(self, colony, winner: Optional[int]) -> None:
        """The winning ant's order must be a complete permutation."""
        if winner is None:
            return
        n = colony.data.num_instructions
        order = np.asarray(colony.order_buf)[winner]
        if sorted(int(i) for i in order) != list(range(n)):
            raise SanitizerError(
                "winning ant %d produced an incomplete or duplicated "
                "instruction order" % winner
            )
