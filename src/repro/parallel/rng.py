"""Spawn-indexed per-ant RNG streams.

Both construction backends (:mod:`~repro.parallel.vectorized` and
:mod:`~repro.parallel.loop`) must make *exactly* the same random decisions
for a given seed, or the differential harness cannot demand bit-identical
schedules. A single shared generator cannot provide that: the vectorized
engine draws step-major (one batch across all ants per step) while a
scalar engine naturally draws ant-major, so the two would interleave one
stream differently.

The fix is one independent stream per ant *slot*, spawned from the launch
seed with :meth:`numpy.random.SeedSequence.spawn` semantics: ant ``i``
always owns spawn child ``i``. Consequences, each pinned by a regression
test:

* ant ``i``'s draw sequence depends only on ``(seed, i)`` — never on how
  many ants run beside it or how they are grouped into wavefronts;
* a batch draw across the population equals the ant-by-ant scalar draws,
  so backend equivalence holds by construction at the RNG layer and the
  differential harness only has to prove the *state evolution* equal;
* wavefront-level decisions (Section V-B) are drawn from the wavefront
  leader's stream (lane 0), keeping them lockstep-uniform without a
  second stream family.

The per-step draw discipline shared by both backends:

====== =====================================================================
pass 1 exploit decision (leader stream per wavefront, or every ant's
       stream at thread level), then one roulette draw per ant
pass 2 one stall draw per ant (only on steps where any ant considers a
       stall), then the pass-1 sequence
====== =====================================================================

Every ant draws on every step it is charged for — including exploiting
ants' unused roulette draws and inactive lanes' draws — exactly like the
paper's kernel, where a masked-off lane still executes the wavefront's
RNG instructions.

**Draw-ahead.** A Python call per ant per draw would cost more than the
step that consumes it, so each stream is read ahead in blocks: ant ``i``'s
next values come from a buffer row filled by one
``generators[i].random(DRAW_BLOCK)`` call, refilled (that row only) when
it runs out. This changes no value, because a block of ``k`` draws equals
``k`` scalar ``random()`` calls on the same generator, value for value
and in the state it leaves behind. The invariant every primitive keeps:

* ant ``i``'s ``j``-th consumed value is the ``j``-th scalar draw of
  spawn child ``i``, whatever mix of primitives consumed the ones before
  it (the recorder observes exactly the consumed values, in order);
* :meth:`AntRngStreams.state` reports each stream as if it had drawn only
  the values consumed so far — the block's start state, advanced by the
  consumed count — so a checkpoint restored into a fresh stream set
  continues draw for draw. Values drawn ahead but never consumed are not
  part of any observable state.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ConfigError
from ..obs import record as _record

SeedLike = Union[int, np.random.Generator, "AntRngStreams"]

#: Values each stream draws ahead per refill of its buffer row.
DRAW_BLOCK = 128


class AntRngStreams:
    """One independent ``numpy.random.Generator`` per ant slot.

    ``seed`` may be an integer launch seed or an already-seeded
    :class:`numpy.random.Generator` (its spawn children are used, which
    for ``default_rng(s)`` equals spawning ``SeedSequence(s)`` directly).
    """

    def __init__(self, seed: SeedLike, num_ants: int):
        if num_ants < 1:
            raise ConfigError("need at least one ant stream")
        if isinstance(seed, np.random.Generator):
            root = seed
        else:
            root = np.random.default_rng(seed)
        self.num_ants = num_ants
        #: Stream ``i`` belongs to ant slot ``i`` (spawn-indexed: the first
        #: ``k`` streams are identical for every population size >= k).
        self.generators = tuple(root.spawn(num_ants))
        self._all = np.arange(num_ants)
        # Draw-ahead buffers: row i holds stream i's current block, of which
        # _used[i] values are consumed; _block_start[i] is the stream's state
        # before that block (None until the first refill). Rows start empty,
        # so nothing is drawn before the first consumer asks.
        self._buffer = np.empty((num_ants, DRAW_BLOCK), dtype=np.float64)
        self._used = np.full(num_ants, DRAW_BLOCK, dtype=np.intp)
        self._block_start: list = [None] * num_ants

    @classmethod
    def coerce(cls, rng: SeedLike, num_ants: int) -> "AntRngStreams":
        """Wrap a seed or generator; pass an existing stream set through."""
        if isinstance(rng, AntRngStreams):
            if rng.num_ants != num_ants:
                raise ConfigError(
                    "stream set has %d ants, launch needs %d"
                    % (rng.num_ants, num_ants)
                )
            return rng
        return cls(rng, num_ants)

    # -- state capture (checkpointed recovery) ------------------------------

    def state(self) -> list:
        """Every stream's bit-generator state, in ant-slot order.

        The returned structure is JSON-serializable (PCG64 state is a dict
        of ints), so a checkpoint can round-trip it losslessly; restoring
        it with :meth:`restore` continues each ant's draw sequence exactly
        where it stopped. Each state is the one after the *consumed*
        draws: the block's start state, advanced by replaying the consumed
        count on the same bit generator (exact for any bit generator).
        """
        states = []
        for ant, generator in enumerate(self.generators):
            bit_generator = generator.bit_generator
            start = self._block_start[ant]
            if start is None:
                states.append(bit_generator.state)
                continue
            ahead = bit_generator.state
            bit_generator.state = start
            np.random.Generator(bit_generator).random(int(self._used[ant]))
            states.append(bit_generator.state)
            bit_generator.state = ahead
        return states

    def restore(self, states: list) -> None:
        """Restore a :meth:`state` capture into this stream set."""
        if len(states) != self.num_ants:
            raise ConfigError(
                "checkpoint has %d ant streams, launch needs %d"
                % (len(states), self.num_ants)
            )
        for generator, state in zip(self.generators, states):
            generator.bit_generator.state = state
        self._used[:] = DRAW_BLOCK
        self._block_start = [None] * self.num_ants

    # -- draw-ahead buffers ---------------------------------------------------

    def _refill(self, ant: int) -> None:
        generator = self.generators[ant]
        self._block_start[ant] = generator.bit_generator.state
        self._buffer[ant] = generator.random(DRAW_BLOCK)
        self._used[ant] = 0

    def _draw(self, ants: np.ndarray) -> np.ndarray:
        """The next value of each listed (distinct) stream, in list order."""
        for ant in ants[self._used[ants] == DRAW_BLOCK]:
            self._refill(int(ant))
        used = self._used[ants]
        values = self._buffer[ants, used]
        self._used[ants] = used + 1
        return values

    # -- draw primitives (the only ways the colonies consume randomness) ----

    def uniform_ants(self) -> np.ndarray:
        """One U[0,1) draw from every ant's stream, in ant-slot order."""
        values = self._draw(self._all)
        recorder = _record.get_recorder()
        if recorder is not None:
            # Observed *after* the streams advanced, so the recorded
            # sequence is exactly what the colony consumed; with no ambient
            # recorder the draw path is untouched (recording off stays
            # bit-identical).
            for ant, value in enumerate(values):
                recorder.observe_draw(ant, float(value))
        return values

    def uniform_ant(self, ant: int) -> float:
        """One U[0,1) draw from a single ant's stream (scalar engines)."""
        used = int(self._used[ant])
        if used == DRAW_BLOCK:
            self._refill(ant)
            used = 0
        self._used[ant] = used + 1
        value = float(self._buffer[ant, used])
        recorder = _record.get_recorder()
        if recorder is not None:
            recorder.observe_draw(ant, value)
        return value

    def uniform_wavefront_leaders(
        self, num_wavefronts: int, wavefront_size: int
    ) -> np.ndarray:
        """One draw per wavefront, taken from its lane-0 (leader) stream."""
        if num_wavefronts * wavefront_size != self.num_ants:
            raise ConfigError(
                "wavefront geometry %dx%d does not cover %d ant streams"
                % (num_wavefronts, wavefront_size, self.num_ants)
            )
        values = self._draw(self._all[::wavefront_size])
        recorder = _record.get_recorder()
        if recorder is not None:
            for w in range(num_wavefronts):
                recorder.observe_draw(w * wavefront_size, float(values[w]))
        return values
