"""Contention-window model: priority subwindow backoff and frame air time.

The maximum contention window of ``T`` microseconds is split into as many
subwindows as there are packets in the scenario. A node whose stake is
``m`` relevant packets (lost packets for a requester, suppliable packets for
a replier) draws uniformly inside subwindow ``M - m + 1``, so a higher stake
always yields a strictly shorter backoff than a lower one; ``draw_bounds``
builds every stake's draw range once per (packet count, window), and a draw
only picks inside the range it is given. Plain CSMA/CA draws anywhere in
the window, over [1, W + 1), through the same step: ``draw_baseline_backoff``
is ``draw_backoff`` under a second name. The step takes a ``Pcg64Draws``
only: one list of the 32-bit halves of a PCG64 stream's raw words, fetched
in blocks (its position counts a block's unread words as not yet drawn),
over which each draw replays numpy's bounded-int step in its own frame. A
scenario run hands the engine one over each just-derived backoff stream, and
``lent_draws`` lends one over a plain ``Generator`` and hands its position
back. ``TimingConfig`` caps the window at 2**32 us and an exchange needs at
least 2 us per subwindow, so every span the model draws lies in [2, 2**32];
the step checks no span. Every frame's air time is the preamble plus the
payload of the data packets it carries: a reply carries the packets it
supplies, and a request, a control frame, is the frame that carries none.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import Rng

BLOCK_WORDS = 32  # raw words per random_raw call; 16 and 64 ran no faster (BENCH_block_words.json)
DrawBounds = tuple[tuple[int, int] | None, ...]  # draw range [low, high) per stake count


@dataclass(frozen=True)
class TimingConfig:
    """All air-time constants, in integer microseconds.

    The default window of 9207 us sits behind a 34 us DIFS, so the full
    sensing span runs 34..9241 us. Time is modelled in whole microseconds;
    draws exclude 0 so a transmission never starts at the exact instant the
    channel is declared idle.
    """

    difs_us: int = 34
    cw_total_us: int = 9207
    preamble_us: int = 20  # 8 us short training + 8 us long training + 4 us signal
    payload_us_per_packet: int = 2000

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.cw_total_us > 1 << 32:  # each backoff draw reads one 32-bit half-word
            raise ValueError(f"cw_total_us must be at most 2**32, got {self.cw_total_us}")


def subwindow_bounds(num_packets: int, subwindow: int, window_us: int) -> tuple[int, int]:
    """Integer bounds (lo, hi] of one subwindow of a window of ``window_us``.

    The ranges for k = 1..M are disjoint, ordered, and exactly tile
    (0, window_us]; every value in subwindow k is strictly below every value
    in subwindow k + 1.
    """
    if not 1 <= subwindow <= num_packets:
        raise ValueError(f"subwindow must lie in [1, {num_packets}], got {subwindow}")
    lo = (subwindow - 1) * window_us // num_packets
    hi = subwindow * window_us // num_packets
    return lo, hi


@lru_cache(maxsize=64)  # int keys, like the engine's air-time table
def draw_bounds(num_packets: int, window_us: int) -> DrawBounds:
    """Entry m, for m = 1..M, is subwindow M - m + 1 of ``subwindow_bounds`` shifted by one.

    Entry 0 is ``None``: an empty stake makes no draw. A window narrower than
    M leaves subwindow 1 empty and is refused.
    """
    if window_us < num_packets:
        raise ValueError(f"subwindow 1 of window {window_us} us is empty; "
                         f"need window_us >= num_packets ({num_packets})")
    ranges = [subwindow_bounds(num_packets, k, window_us) for k in range(num_packets, 0, -1)]
    return (None, *((lo + 1, hi + 1) for lo, hi in ranges))


def draw_backoff(low: int, high: int, rng: Pcg64Draws) -> int:
    """Uniform integer draw, in us, in [low, high): a ``draw_bounds`` entry, per draw.

    The value and the half-words read are those of numpy's
    ``Generator.integers`` over [low, high) on ``rng``'s stream (see
    ``Pcg64Draws``), for a span ``high - low`` from 2 to 2**32, as every
    range of an accepted window has. The span is not checked: a span of 1
    would read a half-word, where numpy reads none. The step is written out
    here, not called, because a method call per draw would cost a second
    Python frame on the engine's hottest path.
    """
    span = high - low
    try:
        m = rng.halves.pop() * span
    except IndexError:
        m = rng._next32() * span
    if (m & 0xFFFF_FFFF) < span:
        threshold = (1 << 32) % span
        while (m & 0xFFFF_FFFF) < threshold:
            m = rng._next32() * span
    return low + (m >> 32)


# Plain CSMA/CA draws over [1, W] as [1, W + 1); the name stays while perfbench wraps it.
draw_baseline_backoff = draw_backoff


class Pcg64Draws:
    """The draw source of ``draw_backoff``: PCG64's raw words.

    numpy bounds an int64 draw with Lemire's nearly divisionless method
    (D. Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    29(1), 2019): spans up to 2**32 on 32-bit words, which PCG64 serves as the
    low and then the high half of one raw word, keeping the high half pending
    between draws. (numpy returns a bare half-word for a span of exactly
    2**32, which is what the method gives there too.) ``draw_backoff`` does
    the same in Python over ``halves``: the 32-bit halves of a block of
    ``BLOCK_WORDS`` raw words that one ``random_raw`` call fetches, low half
    first, stored reversed so that ``pop()`` gives the next half; an odd
    length means a high half is pending. Each value and the word position
    then match numpy's draw for draw on a twin generator, without numpy's
    per-call overhead, and backoff values rest on PCG64's raw output, not on
    numpy's choice of draw algorithm. The position is the generator's less
    the ``len(halves) // 2`` whole words not yet read.

    The source starts with no pending half-word, as a PCG64 seeded just now
    does, and reads nothing from the generator's state; it keeps its pending
    half-word to itself, so the generator should be drawn from through this
    source alone, or lent through ``lent_draws``, which hands it back.
    """

    __slots__ = ("_fetch", "halves")

    def __init__(self, bit_generator: np.random.PCG64) -> None:
        self._fetch = bit_generator.random_raw
        self.halves: list[int] = []

    def _next32(self) -> int:
        if not self.halves:
            self.halves = self._block()
        return self.halves.pop()

    def _block(self) -> list[int]:
        """The halves of ``BLOCK_WORDS`` new raw words, low half first, reversed for ``pop``."""
        return self._fetch(BLOCK_WORDS).astype("<u8", copy=False).view("<u4")[::-1].tolist()


@contextmanager
def lent_draws(generator: Rng) -> Iterator[Pcg64Draws]:
    """A ``Pcg64Draws`` over a PCG64 ``generator``, lent from where the generator stands.

    The source starts from the generator's pending half-word, if it has one.
    On exit, an exception included, it hands the position back: the
    generator is rewound by the whole words fetched but not read, and the
    half-word left pending, if any, is pending in it again. So the generator
    stands where numpy's own ``integers`` would have left it after the same
    draws, its whole ``state`` dict included: numpy's ``uinteger`` keeps the
    high half of the last word read, pending or drawn (its entry value if no
    word was read), and so does the handed-back generator's. A generator over
    another bit generator is refused before its state is read.
    """
    bit_generator = generator.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise ValueError(f"backoff draws need a PCG64 stream, got {type(bit_generator).__name__}")
    source = Pcg64Draws(bit_generator)
    entry = bit_generator.state
    source.halves = [entry["uinteger"]] if entry["has_uint32"] else []
    try:
        yield source
    finally:
        halves = source.halves
        bit_generator.advance(-(len(halves) // 2))  # this also zeroes numpy's uinteger
        state, uinteger = bit_generator.state, entry["uinteger"]
        if state["state"] != entry["state"]:  # re-read the last word read for its high half
            bit_generator.advance(-1)
            uinteger = int(bit_generator.random_raw()) >> 32
        bit_generator.state = {**state, "has_uint32": len(halves) & 1, "uinteger": uinteger}


def frame_duration(data_packet_count: int, timing: TimingConfig) -> int:
    """Air time, in microseconds, of one frame carrying ``data_packet_count`` data packets.

    A request carries none and costs the preamble only; a reply adds the
    per-packet payload time for each packet it carries.
    """
    if data_packet_count < 0:
        raise ValueError(f"a frame cannot carry {data_packet_count} data packets")
    return timing.preamble_us + data_packet_count * timing.payload_us_per_packet
