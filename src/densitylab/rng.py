"""Counter-based random number streams for reproducible parallel Monte Carlo.

Every path owns independent Philox streams, one per noise channel:
Gaussian increments, Poisson jump counts and jump marks.  A fourth
channel (jump times) is reserved: nothing draws it, and it keeps its slot
in the key so that no stream moves.  The stream key is a pure function of (seed, path index, channel), written once
in `stream_key`, so a path produces bit-identical noise no matter which
worker simulates it or in which order paths are executed.

Philox is counter-based (Salmon et al., SC'11): its whole state is a key,
a counter and a four-word output buffer.  `rekey` points one generator at
the start of any stream by resetting that state in place, so a batched
engine can walk thousands of streams with a single generator and draw the
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


def _key_words(seed: int, path: int, channel: int) -> tuple[int, int]:
    if channel < 0 or channel >= _N_CHANNELS:
        raise ValueError(f"channel must be in [0, {_N_CHANNELS}), got {channel}")
    if path < 0:
        raise ValueError(f"path index must be nonnegative, got {path}")
    return seed & _MASK64, (path * _N_CHANNELS + channel) & _MASK64


def stream_key(seed: int, path: int, channel: int) -> np.ndarray:
    """Philox key of the (seed, path, channel) stream: [seed, 4 path + channel] mod 2^64."""
    return np.array(_key_words(seed, path, channel), dtype=np.uint64)


def stream(seed: int, path: int, channel: int) -> np.random.Generator:
    """Generator for one (seed, path, channel) triple.

    Philox is counter-based: distinct keys give statistically independent,
    reproducible streams with no sequential dependence between paths.
    """
    return Generator(Philox(key=stream_key(seed, path, channel)))


# The state `rekey` assigns, with the key rewritten on each call.  The
# Philox setter copies every word out of it, so one dict serves all calls;
# it reads the words by index, so plain int lists do, and skip building
# uint64 arrays.
_START_STATE = {"bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def rekey(gen: np.random.Generator, seed: int, path: int, channel: int) -> np.random.Generator:
    """Reset a Philox-backed generator, in place, to the start of one stream.

    The key becomes `stream_key(seed, path, channel)`, the counter zero and
    the output buffer empty: the state a fresh `stream(seed, path, channel)`
    starts in, so the draws that follow are bit-identical to its draws.
    Building a new Philox instead costs an OS-entropy seeding that the key
    then overrides.  Returns `gen`.
    """
    _START_STATE["state"]["key"] = list(_key_words(seed, path, channel))
    gen.bit_generator.state = _START_STATE
    return gen


class PathStreams:
    """The noise channels of a single Monte Carlo path.

    Each channel's generator is created once and then consumed sequentially;
    a fresh PathStreams with the same (seed, path) replays the same noise.
    The batched engines draw the same streams through `rekey`; this class
    serves the single-path helpers and the tests as their independent replay.
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
