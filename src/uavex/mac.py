"""Contention-window model: priority subwindow backoff and frame air time.

The maximum contention window of ``T`` microseconds is split into as many
subwindows as there are packets in the scenario. A node whose stake is
``m`` relevant packets (lost packets for a requester, suppliable packets for
a replier) draws uniformly inside subwindow ``M - m + 1``, so a higher stake
always yields a strictly shorter backoff than a lower one; ``draw_bounds``
builds every stake's draw range once per (packet count, window), and a draw
only picks inside the range it is given. A scenario run hands the engine a
``Pcg64Draws`` over each just-derived backoff stream, which replays numpy's
bounded-int algorithm over one list of the 32-bit halves of the stream's raw
words, fetched in blocks (its position counts a block's unread words as not
yet drawn). ``TimingConfig`` caps the window at 2**32 us, so every span the
model draws, from 2 to 2**32, takes that source's one 32-bit step; the draw
functions run it in their own frame, and make one ``integers(low, high)``
call for any other span or rng, a plain ``Generator`` included. Every
frame's air time is the preamble plus the payload of the data packets it
carries: a reply carries the packets it supplies, and a request, a control
frame, is the frame that carries none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def draw_backoff(low: int, high: int, rng: Rng) -> int:
    """Uniform integer draw, in us, in [low, high): a ``draw_bounds`` entry, per draw."""
    span = high - low
    if type(rng) is Pcg64Draws and 1 < span <= 1 << 32 and high <= 1 << 63:
        # Pcg64Draws.integers' 32-bit step, inlined: a method call per draw
        # would cost a second Python frame on the engine's hottest path.
        try:
            m = rng.halves.pop() * span
        except IndexError:
            m = rng._next32() * span
        if (m & 0xFFFF_FFFF) < span:
            threshold = (1 << 32) % span
            while (m & 0xFFFF_FFFF) < threshold:
                m = rng._next32() * span
        return low + (m >> 32)
    return int(rng.integers(low, high))


def draw_baseline_backoff(window_us: int, rng: Rng) -> int:
    """Uniform integer draw, in us, over the whole window, as plain CSMA/CA would do."""
    if type(rng) is Pcg64Draws and 1 < window_us <= 1 << 32:
        # The same inlined step as in draw_backoff, over [1, window_us].
        try:
            m = rng.halves.pop() * window_us
        except IndexError:
            m = rng._next32() * window_us
        if (m & 0xFFFF_FFFF) < window_us:
            threshold = (1 << 32) % window_us
            while (m & 0xFFFF_FFFF) < threshold:
                m = rng._next32() * window_us
        return 1 + (m >> 32)
    return int(rng.integers(1, window_us + 1))


class Pcg64Draws:
    """``Generator.integers(low, high)`` for scalar ints, replayed from PCG64's raw words.

    numpy bounds an int64 draw with Lemire's nearly divisionless method
    (D. Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    29(1), 2019): spans up to 2**32 on 32-bit words, which PCG64 serves as the
    low and then the high half of one raw word, keeping the high half pending
    between draws. (numpy returns a bare half-word for a span of exactly
    2**32, which is what the method gives there too.) This does the same in
    Python over ``halves``: the 32-bit halves of a block of ``BLOCK_WORDS``
    raw words that one ``random_raw`` call fetches, low half first, stored
    reversed so that ``pop()`` gives the next half; an odd length means a
    high half is pending. Each result, each error and the word position then
    match numpy's draw for draw on a twin generator, without numpy's per-call
    overhead, and backoff values rest on PCG64's raw output, not on numpy's
    choice of draw algorithm. The position is the generator's less the
    ``len(halves) // 2`` whole words not yet read. A wider span, which numpy
    draws from whole raw words, is refused before any half-word is read: no
    window the model accepts needs one.

    The source starts with no pending half-word, as a PCG64 seeded just now
    does, and reads nothing from the generator's state; it keeps its pending
    half-word to itself, so the generator should be drawn from through this
    source alone.
    """

    __slots__ = ("_fetch", "halves")

    def __init__(self, bit_generator: np.random.PCG64) -> None:
        self._fetch = bit_generator.random_raw
        self.halves: list[int] = []

    def integers(self, low: int, high: int) -> int:
        """A uniform int in [low, high), as ``Generator.integers(low, high)`` would draw it.

        numpy's errors come first; a span above 2**32 is then refused before
        any half-word is read.
        """
        span = high - low
        if low < -(1 << 63):
            raise ValueError("low is out of bounds for int64")
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        if span < 1:
            raise ValueError("low >= high")
        if span == 1:
            return low  # numpy draws nothing for a single value
        if span > 1 << 32:
            raise ValueError(f"span {span} is above 2**32, the widest a 32-bit half-word draws")
        m = self._next32() * span
        if (m & 0xFFFF_FFFF) < span:
            threshold = (1 << 32) % span
            while (m & 0xFFFF_FFFF) < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def _next32(self) -> int:
        if not self.halves:
            self.halves = self._block()
        return self.halves.pop()

    def _block(self) -> list[int]:
        """The halves of ``BLOCK_WORDS`` new raw words, low half first, reversed for ``pop``."""
        return self._fetch(BLOCK_WORDS).astype("<u8", copy=False).view("<u4")[::-1].tolist()


def frame_duration(data_packet_count: int, timing: TimingConfig) -> int:
    """Air time, in microseconds, of one frame carrying ``data_packet_count`` data packets.

    A request carries none and costs the preamble only; a reply adds the
    per-packet payload time for each packet it carries.
    """
    if data_packet_count < 0:
        raise ValueError(f"a frame cannot carry {data_packet_count} data packets")
    return timing.preamble_us + data_packet_count * timing.payload_us_per_packet
