"""Contention-window model: priority subwindow backoff and frame timing.

The maximum contention window of ``T`` microseconds is split into as many
subwindows as there are packets in the scenario. A node whose stake is
``m`` relevant packets (lost packets for a requester, suppliable packets for
a replier) draws uniformly inside subwindow ``M - m + 1``, so a higher stake
always yields a strictly shorter backoff than a lower one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .core import Rng


class FrameKind(Enum):
    REQUEST = "request"
    REPLY = "reply"


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
            if not isinstance(value, int) or value <= 0:
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


@lru_cache(maxsize=128)
def _draw_ranges(num_packets: int, window_us: int) -> tuple[tuple[int, int], ...]:
    """Half-open draw range [lo + 1, hi + 1) for each stake, indexed by stake (index 0 unused)."""
    ranges = [(0, 0)]
    for stake in range(1, num_packets + 1):
        lo, hi = subwindow_bounds(num_packets, num_packets - stake + 1, window_us)
        ranges.append((lo + 1, hi + 1))
    return tuple(ranges)


def draw_backoff(num_packets: int, relevant_count: int, window_us: int, rng: Rng) -> int:
    """Uniform integer draw, in us, inside the priority subwindow for ``relevant_count``."""
    if not 1 <= relevant_count <= num_packets:
        raise ValueError(
            f"relevant_count must lie in [1, {num_packets}], got {relevant_count}"
        )
    low, high = _draw_ranges(num_packets, window_us)[relevant_count]
    if high <= low:
        raise ValueError(
            f"subwindow {num_packets - relevant_count + 1} of window {window_us} us is empty; "
            f"need window_us >= num_packets ({num_packets})"
        )
    return int(rng.integers(low, high))


def draw_baseline_backoff(window_us: int, rng: Rng) -> int:
    """Uniform integer draw, in us, over the whole window, as plain CSMA/CA would do."""
    if window_us < 1:
        raise ValueError("window_us must be at least 1")
    return int(rng.integers(1, window_us + 1))


def frame_duration(kind: FrameKind, data_packet_count: int, timing: TimingConfig) -> int:
    """Air time of one frame in microseconds.

    Requests are control frames carrying no data payload, so they cost the
    preamble only; replies add the per-packet payload time for each carried
    data packet.
    """
    if kind is FrameKind.REQUEST:
        if data_packet_count != 0:
            raise ValueError("request frames carry no data packets")
        return timing.preamble_us
    if data_packet_count < 1:
        raise ValueError("reply frames must carry at least one data packet")
    return timing.preamble_us + data_packet_count * timing.payload_us_per_packet
