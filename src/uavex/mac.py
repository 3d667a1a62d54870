"""Contention-window model: priority subwindow backoff and frame air time.

The maximum contention window of ``T`` microseconds is split into as many
subwindows as there are packets in the scenario. A node whose stake is
``m`` relevant packets (lost packets for a requester, suppliable packets for
a replier) draws uniformly inside subwindow ``M - m + 1``, so a higher stake
always yields a strictly shorter backoff than a lower one. Each draw takes
its bounds from two integer divisions. A scenario run hands the engine a
``Pcg64Draws`` over each just-derived backoff stream, which replays numpy's
bounded-int algorithm over the stream's raw words; the draw functions run its
32-bit step, which serves every span from 2 to 2**32, in their own frame, and
make one ``integers(low, high)`` call for any other span or rng, a plain
``Generator`` included. Every frame's air time is the preamble plus the payload
of the data packets it carries: a reply carries the packets it supplies, and a
request, a control frame, is the frame that carries none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Rng


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
        for name in ("difs_us", "cw_total_us", "preamble_us", "payload_us_per_packet"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


def subwindow_for_count(num_packets: int, relevant_count: int) -> int:
    """Subwindow index (1-based) for a node with the given number of relevant packets."""
    if not 1 <= relevant_count <= num_packets:
        raise ValueError(
            f"relevant_count must lie in [1, {num_packets}], got {relevant_count}"
        )
    return num_packets - relevant_count + 1


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


def draw_backoff(num_packets: int, relevant_count: int, window_us: int, rng: Rng) -> int:
    """Uniform integer draw, in us, inside the priority subwindow for ``relevant_count``.

    The draw range [lo + 1, hi + 1) is ``subwindow_bounds`` of subwindow
    M - m + 1 shifted by one, computed inline: this is the per-draw path.
    """
    if not 1 <= relevant_count <= num_packets:
        raise ValueError(
            f"relevant_count must lie in [1, {num_packets}], got {relevant_count}"
        )
    prior = num_packets - relevant_count  # subwindows ahead of this one
    low = prior * window_us // num_packets + 1
    high = (prior + 1) * window_us // num_packets + 1
    span = high - low
    if type(rng) is Pcg64Draws and 1 < span <= 1 << 32 and high <= 1 << 63:
        # Pcg64Draws.integers' 32-bit step over _next32, inlined: a method call
        # per draw would cost a second Python frame on the engine's hottest path.
        if rng.has_uint32:
            rng.has_uint32 = 0
            m = rng.uinteger * span
        else:
            word = rng._raw()
            rng.has_uint32 = 1
            rng.uinteger = word >> 32
            m = (word & 0xFFFF_FFFF) * span
        if (m & 0xFFFF_FFFF) < span:
            threshold = (1 << 32) % span
            while (m & 0xFFFF_FFFF) < threshold:
                m = rng._next32() * span
        return low + (m >> 32)
    if span < 1:
        raise ValueError(
            f"subwindow {prior + 1} of window {window_us} us is empty; "
            f"need window_us >= num_packets ({num_packets})"
        )
    return int(rng.integers(low, high))


def draw_baseline_backoff(window_us: int, rng: Rng) -> int:
    """Uniform integer draw, in us, over the whole window, as plain CSMA/CA would do."""
    if type(rng) is Pcg64Draws and 1 < window_us <= 1 << 32:
        # The same inlined step as in draw_backoff, over [1, window_us].
        if rng.has_uint32:
            rng.has_uint32 = 0
            m = rng.uinteger * window_us
        else:
            word = rng._raw()
            rng.has_uint32 = 1
            rng.uinteger = word >> 32
            m = (word & 0xFFFF_FFFF) * window_us
        if (m & 0xFFFF_FFFF) < window_us:
            threshold = (1 << 32) % window_us
            while (m & 0xFFFF_FFFF) < threshold:
                m = rng._next32() * window_us
        return 1 + (m >> 32)
    if window_us < 1:
        raise ValueError("window_us must be at least 1")
    return int(rng.integers(1, window_us + 1))


class Pcg64Draws:
    """``Generator.integers(low, high)`` for scalar ints, replayed from PCG64's raw words.

    numpy bounds an int64 draw with Lemire's nearly divisionless method
    (D. Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    29(1), 2019): spans up to 2**32 on 32-bit words, which PCG64 serves as the
    low and then the high half of one raw word, keeping the high half pending
    in ``has_uint32``/``uinteger``; wider spans on whole raw words. (numpy
    returns a bare word for a span of exactly 2**32 or 2**64, which is what
    the method gives there too.) This does the same in Python, one raw word
    at a time, so each result, each error and the word position match numpy's
    draw for draw on a twin generator, without numpy's per-call overhead;
    backoff values then rest on PCG64's raw output, not on numpy's choice of
    draw algorithm.

    The source starts with no pending half-word, as a PCG64 seeded just now
    does, and reads nothing from the generator's state; it keeps its pending
    half-word to itself, so the generator should be drawn from through this
    source alone.
    """

    __slots__ = ("_raw", "has_uint32", "uinteger")

    def __init__(self, bit_generator: np.random.PCG64) -> None:
        self._raw = bit_generator.random_raw
        self.has_uint32 = self.uinteger = 0

    def integers(self, low: int, high: int) -> int:
        """A uniform int in [low, high), as ``Generator.integers(low, high)`` would draw it."""
        span = high - low
        if 1 < span <= 1 << 32 and low >= -(1 << 63) and high <= 1 << 63:
            m = self._next32() * span
            if (m & 0xFFFF_FFFF) < span:
                threshold = (1 << 32) % span
                while (m & 0xFFFF_FFFF) < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        if low < -(1 << 63):
            raise ValueError("low is out of bounds for int64")
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        if span < 1:
            raise ValueError("low >= high")
        if span == 1:
            return low  # numpy draws nothing for a single value
        m = self._raw() * span
        if (m & 0xFFFF_FFFF_FFFF_FFFF) < span:
            threshold = (1 << 64) % span
            while (m & 0xFFFF_FFFF_FFFF_FFFF) < threshold:
                m = self._raw() * span
        return low + (m >> 64)

    def _next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self._raw()
        self.has_uint32 = 1
        self.uinteger = word >> 32
        return word & 0xFFFF_FFFF


def frame_duration(data_packet_count: int, timing: TimingConfig) -> int:
    """Air time, in microseconds, of one frame carrying ``data_packet_count`` data packets.

    A request carries none and costs the preamble only; a reply adds the
    per-packet payload time for each packet it carries.
    """
    if data_packet_count < 0:
        raise ValueError(f"a frame cannot carry {data_packet_count} data packets")
    return timing.preamble_us + data_packet_count * timing.payload_us_per_packet
