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
       stall), then the pass-1 sequence; a cycle the colony jumps because
       no active ant can issue considers no stall, so it draws only the
       pass-1 sequence
====== =====================================================================

Every ant draws on every step it is charged for — including exploiting
ants' unused roulette draws and inactive lanes' draws — exactly like the
paper's kernel, where a masked-off lane still executes the wavefront's
RNG instructions.

**Batch derivation.** Spawn child ``i`` is the PCG64 generator seeded by
``SeedSequence(seed, spawn_key=(i,))``. Building 192 such objects per
launch costs milliseconds of Python, so :func:`spawn_states` runs the
SeedSequence hash itself: the launch seed's words are mixed once, the
spawn index (the only per-child word) is mixed for every ant at once in
NumPy arrays (32-bit arithmetic, masked), and the PCG64 seeding is done on
128-bit Python ints. A launch seed must be a non-negative int.
The result is each child's PCG64 ``(state, inc)`` pair, value for value
what NumPy's own spawn produces (pinned by a test against
``SeedSequence(seed).spawn(n)`` over two-word and wider seeds). A stream
set then keeps one bit generator and per-ant states instead of one
``Generator`` per ant.

**Draw-ahead.** A Python call per ant per draw would cost more than the
step that consumes it, so each stream is read ahead in blocks: ant ``i``'s
next values come from a buffer row filled by loading ant ``i``'s state
into the shared bit generator and drawing ``DRAW_BLOCK`` values, refilled
(that row only) when it runs out. This changes no value, because a block
of ``k`` draws equals ``k`` scalar ``random()`` calls on the same
generator, value for value, and every double advances PCG64 by exactly one
step, so the state after a block is computed by LCG jump-ahead instead of
read back. The invariant every primitive keeps:

* ant ``i``'s ``j``-th consumed value is the ``j``-th scalar draw of
  spawn child ``i``, whatever mix of primitives consumed the ones before
  it (a recorder observes exactly the consumed values, in order);
* :meth:`AntRngStreams.state` reports each stream as if it had drawn only
  the values consumed so far — the block's start state, advanced by the
  consumed count — so a checkpoint restored into a fresh stream set
  continues draw for draw. Values drawn ahead but never consumed are not
  part of any observable state.

**Recording.** A stream set built with ``recorder=`` (a
:class:`repro.obs.record.RunRecorder`; the GPU scheduler passes the one its
telemetry carries) reports every consumed value to it, keyed by ant slot.
Without one each primitive pays a single ``None`` check and the draws are
untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:
    from ..obs.record import RunRecorder

SeedLike = Union[int, "AntRngStreams"]

#: Values each stream draws ahead per refill of its buffer row.
DRAW_BLOCK = 128

# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG: state' = state * _PCG_MULT + inc (mod 2**128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _jump_table(steps: int) -> Tuple[Tuple[int, int], ...]:
    """``(a_k, c_k)`` with ``advance(s, k) = s * a_k + inc * c_k`` for k <= steps."""
    table = [(1, 0)]
    for _ in range(steps):
        a, c = table[-1]
        table.append(((a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128))
    return tuple(table)


_JUMP = _jump_table(DRAW_BLOCK)


def _advance(state: int, inc: int, steps: int) -> int:
    """A PCG64 state after ``steps`` outputs (``steps <= DRAW_BLOCK``)."""
    a, c = _JUMP[steps]
    return (state * a + inc * c) & _MASK128


def _pcg64_state(state: int, inc: int) -> dict:
    """The ``bit_generator.state`` dict of a PCG64 that has drawn only doubles."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def check_seed(seed) -> int:
    """A launch seed as an int; :class:`ConfigError` unless a non-negative int."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)):
        raise ConfigError("ant stream seed must be a non-negative int, got %r" % (seed,))
    if seed < 0:
        raise ConfigError("ant stream seed must be non-negative, got %d" % seed)
    return int(seed)


def spawn_states(seed: int, num_ants: int) -> List[Tuple[int, int]]:
    """PCG64 ``(state, inc)`` of spawn child ``i`` of ``seed``, for every ant.

    Equal to ``PCG64(SeedSequence(seed).spawn(num_ants)[i]).state`` for
    each ``i``, computed in one batch. The children's entropy is the seed's
    ``uint32`` words (zero-padded to the pool size) followed by the spawn
    index; the hash constant advances once per mixed word whatever its
    value, so the seed words are mixed once as Python ints and only the
    spawn index is mixed per ant, as arrays.
    """
    words = []
    rest = check_seed(seed)
    while True:
        words.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    words += [0] * (_POOL_SIZE - len(words))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # The spawn index, per ant. uint64 holds every product below 2**64
    # before the mask, so the arithmetic is exact.
    index = np.arange(num_ants, dtype=np.uint64)
    pools = [mix(np.uint64(pool[dst]), hashmix(index)) for dst in range(_POOL_SIZE)]

    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    hash_const = _INIT_B
    out = []
    for word in range(2 * _POOL_SIZE):
        value = pools[word % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[2 * k] | (out[2 * k + 1] << 32)).tolist() for k in range(4)
    )
    # pcg64_set_seed: inc = 2*initseq + 1; state = (inc + initstate) * M + inc.
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


class AntRngStreams:
    """One independent PCG64 stream per ant slot.

    Stream ``i`` is spawn child ``i`` of the integer launch ``seed``
    (spawn-indexed: the first ``k`` streams are identical for every
    population size >= k). The set keeps one bit generator and loads each
    ant's state into it only to refill that ant's draw-ahead row.
    ``recorder``, when given, observes every consumed draw.
    """

    def __init__(
        self, seed: int, num_ants: int, recorder: Optional["RunRecorder"] = None
    ):
        if num_ants < 1:
            raise ConfigError("need at least one ant stream")
        states = spawn_states(seed, num_ants)
        self.num_ants = num_ants
        self.recorder = recorder
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)
        # Per ant: the increment, the state the next refill starts from,
        # and the start state of the buffered block (None until the first
        # refill). Row i of _buffer holds that block, of which _used[i]
        # values are consumed; rows start empty, so nothing is drawn before
        # the first consumer asks.
        self._inc = [inc for _state, inc in states]
        self._next = [state for state, _inc in states]
        self._block_start: List[Optional[int]] = [None] * num_ants
        self._buffer = np.empty((num_ants, DRAW_BLOCK), dtype=np.float64)
        self._flat = self._buffer.reshape(-1)
        self._row_offset = np.arange(num_ants) * DRAW_BLOCK
        self._used = np.full(num_ants, DRAW_BLOCK, dtype=np.intp)
        self._all = np.arange(num_ants)

    @classmethod
    def coerce(cls, rng: SeedLike, num_ants: int) -> "AntRngStreams":
        """Wrap an integer seed; pass an existing stream set through."""
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
        draws: the block's start state, advanced by the consumed count.
        """
        states = []
        for ant, inc in enumerate(self._inc):
            start = self._block_start[ant]
            if start is None:
                position = self._next[ant]
            else:
                position = _advance(start, inc, int(self._used[ant]))
            states.append(_pcg64_state(position, inc))
        return states

    def restore(self, states: list) -> None:
        """Restore a :meth:`state` capture into this stream set."""
        if len(states) != self.num_ants:
            raise ConfigError(
                "checkpoint has %d ant streams, launch needs %d"
                % (len(states), self.num_ants)
            )
        try:
            pairs = [
                (int(entry["state"]["state"]), int(entry["state"]["inc"]))
                for entry in states
                if entry["bit_generator"] == "PCG64"
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("malformed ant stream state: %s" % exc) from exc
        if len(pairs) != self.num_ants:
            raise ConfigError("checkpoint holds a non-PCG64 ant stream state")
        self._next = [state for state, _inc in pairs]
        self._inc = [inc for _state, inc in pairs]
        self._used[:] = DRAW_BLOCK
        self._block_start = [None] * self.num_ants

    # -- draw-ahead buffers ---------------------------------------------------

    def _refill(self, ant: int) -> None:
        start, inc = self._next[ant], self._inc[ant]
        self._bit_generator.state = _pcg64_state(start, inc)
        self._generator.random(out=self._buffer[ant])
        self._block_start[ant] = start
        self._next[ant] = _advance(start, inc, DRAW_BLOCK)
        self._used[ant] = 0

    def _draw(self, rows: slice) -> np.ndarray:
        """The next value of each stream in ``rows``, in row order."""
        used = self._used[rows]
        if used.max() == DRAW_BLOCK:
            for ant in self._all[rows][used == DRAW_BLOCK]:
                self._refill(int(ant))
        values = self._flat.take(self._row_offset[rows] + used)
        used += 1
        return values

    # -- draw primitives (the only ways the colonies consume randomness) ----

    def uniform_ants(self) -> np.ndarray:
        """One U[0,1) draw from every ant's stream, in ant-slot order."""
        values = self._draw(slice(None))
        recorder = self.recorder
        if recorder is not None:
            # Observed *after* the streams advanced, so the recorded
            # sequence is exactly what the colony consumed; with no
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
        recorder = self.recorder
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
        values = self._draw(slice(None, None, wavefront_size))
        recorder = self.recorder
        if recorder is not None:
            for w in range(num_wavefronts):
                recorder.observe_draw(w * wavefront_size, float(values[w]))
        return values
