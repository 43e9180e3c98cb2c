"""Counter-based random number streams for reproducible parallel Monte Carlo.

Paths are grouped in blocks of `BLOCK_PATHS`: path p = BLOCK_PATHS b + r
is row r of block b.  Every block owns independent Philox streams, one per
noise channel: Gaussian increments, Poisson jump counts and jump marks.  A
fourth channel (jump times) is reserved: nothing draws it, and it keeps its
slot in the key so that no stream moves.  The stream key is a pure function
of (seed, block index, channel), written once in `stream_key`.  A block's
channel is drawn row by row in C order (marks in (row, step, draw) order),
and Philox draws are sequential, so a path's bits depend only on (seed,
path): not on how many of its block's rows are drawn, which rows are kept,
which worker simulates it or in which order paths are executed.

`BLOCK_PATHS` is part of that layout, not a tuning knob: changing it moves
every bit of every Monte Carlo output.

Philox is counter-based (Salmon et al., SC'11): its whole state is a key,
a counter and a four-word output buffer.  `rekey` points one generator at
the start of any stream by resetting that state in place, so a batched
engine can walk every block's streams with a single generator and draw the
same bits as `stream` would give for each.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

CHANNEL_GAUSSIAN = 0
CHANNEL_POISSON_COUNT = 1
CHANNEL_POISSON_MARKS = 2
CHANNEL_POISSON_TIMES = 3

_N_CHANNELS = 4
_MASK64 = (1 << 64) - 1

BLOCK_PATHS = 256        # paths per stream block: fixed by the layout, see above


def _key_words(seed: int, block: int, channel: int) -> tuple[int, int]:
    if channel < 0 or channel >= _N_CHANNELS:
        raise ValueError(f"channel must be in [0, {_N_CHANNELS}), got {channel}")
    if block < 0:
        raise ValueError(f"block index must be nonnegative, got {block}")
    return seed & _MASK64, (block * _N_CHANNELS + channel) & _MASK64


def stream_key(seed: int, block: int, channel: int) -> np.ndarray:
    """Philox key of the (seed, block, channel) stream: [seed, 4 block + channel] mod 2^64.

    Block b's stream holds the channel's draws of paths BLOCK_PATHS b to
    BLOCK_PATHS (b + 1) - 1, one row per path in path order.
    """
    return np.array(_key_words(seed, block, channel), dtype=np.uint64)


def stream(seed: int, block: int, channel: int) -> np.random.Generator:
    """Generator for one (seed, block, channel) triple.

    Philox is counter-based: distinct keys give statistically independent,
    reproducible streams with no sequential dependence between blocks.
    """
    return Generator(Philox(key=stream_key(seed, block, channel)))


# The state `rekey` assigns, with the key rewritten on each call.  The
# Philox setter copies every word out of it, so one dict serves all calls;
# it reads the words by index, so plain int lists do, and skip building
# uint64 arrays.
_START_STATE = {"bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def rekey(gen: np.random.Generator, seed: int, block: int, channel: int) -> np.random.Generator:
    """Reset a Philox-backed generator, in place, to the start of one stream.

    The key becomes `stream_key(seed, block, channel)`, the counter zero and
    the output buffer empty: the state a fresh `stream(seed, block, channel)`
    starts in, so the draws that follow are bit-identical to its draws.
    Building a new Philox instead costs an OS-entropy seeding that the key
    then overrides.  Returns `gen`.
    """
    _START_STATE["state"]["key"] = list(_key_words(seed, block, channel))
    gen.bit_generator.state = _START_STATE
    return gen


class PathStreams:
    """The noise channels of one stream index: `stream(seed, path, channel)`.

    Each channel's generator is created once and then consumed sequentially;
    a fresh PathStreams with the same (seed, path) replays the same noise.
    This is not the engines' layout: they key streams by block of
    `BLOCK_PATHS` paths, so a path's noise is a row of its block's streams,
    not these streams.  The class serves the tests and the benchmark tracer
    as a ready set of independent generators.
    """

    def __init__(self, seed: int, path: int):
        self.seed = seed
        self.path = path
        self._gen: dict[int, np.random.Generator] = {}

    def _channel(self, channel: int) -> np.random.Generator:
        if channel not in self._gen:
            self._gen[channel] = stream(self.seed, self.path, channel)
        return self._gen[channel]

    @property
    def gaussian(self) -> np.random.Generator:
        return self._channel(CHANNEL_GAUSSIAN)

    @property
    def poisson_count(self) -> np.random.Generator:
        return self._channel(CHANNEL_POISSON_COUNT)

    @property
    def poisson_marks(self) -> np.random.Generator:
        return self._channel(CHANNEL_POISSON_MARKS)


def decorrelate(seed: int, cell: int) -> int:
    """Derive an independent base seed for a sweep cell or sub-experiment."""
    return (seed * 0x9E3779B97F4A7C15 + 0x100000001B3 * (cell + 1)) & _MASK64
