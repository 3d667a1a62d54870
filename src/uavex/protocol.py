"""The one backoff rule of the UAVs on a shared cluster channel, and the trace format.

A cluster's exchange state is a few parallel int lists, indexed by each UAV's
position in the sorted member list: ``held`` is its bitmask, bit m for packet
m, and the request draws and, while a request is open, the reply draws hold
its draws in whole microseconds, 0 for none. A UAV backs off in proportion to
its stake: the packets it lacks when it requests, or the open request's
packets it can supply when it replies. ``stake_draws`` is that rule. One mask
pair states both stakes, ``(held ^ flip) & keep``: what a UAV lacks with
``flip = keep = full``, what it holds of a request ``asked`` with ``flip = 0``
and ``keep = asked``. An empty stake gives 0 and makes no draw. Backoff
*values* persist between contention rounds; they are replaced only when the
owner's stake changes, when a collision forces a redraw, or when the draw is
consumed by transmitting.

The exchange loop calls it once per channel event, to write in place the
first request draws, a clean request's reply draws, a collision's redraws or
a clean reply's redraws. Each draw is one call of this module's
``draw_backoff`` or ``draw_baseline_backoff``, looked up when it is made, so
a cluster's stream is consumed in event order and, within an event, in the
order of the positions given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import PacketId, Rng, UavId, packet_label
from .mac import DrawBounds, draw_backoff, draw_baseline_backoff


def stake_draws(
    held: list[int], uavs: Sequence[int], flip: int, keep: int, bounds: DrawBounds | None,
    window: int, rng: Rng, draws: list[int],
) -> None:
    """Write ``draws[i]`` for each position i in ``uavs``, in order, sized by its stake.

    A priority draw falls in the ``bounds`` entry of the stake's packet
    count, a plain CSMA draw (``bounds`` is ``None``) anywhere in the window;
    an empty stake writes 0. Other positions are left as they are.
    """
    if bounds is None:
        for i in uavs:
            draws[i] = draw_baseline_backoff(window, rng) if (held[i] ^ flip) & keep else 0
        return
    for i in uavs:
        if stake := (held[i] ^ flip) & keep:
            low, high = bounds[stake.bit_count()]
            draws[i] = draw_backoff(low, high, rng)
        else:
            draws[i] = 0


@dataclass(frozen=True)
class TraceRecord:
    """One simulator event in a stable, text-serializable form."""

    time_us: int
    uav: UavId
    event: str
    packets: tuple[PacketId, ...] = ()
    peer: UavId | None = None
    cluster: int = 0


def trace_line(record: TraceRecord) -> str:
    """Render one trace record; packet ids use the external 1-based labels."""
    parts = [
        f"t={record.time_us:>8}us",
        f"cluster={record.cluster}",
        f"uav={record.uav}",
        record.event,
    ]
    if record.packets:
        parts.append("[" + ",".join(packet_label(p) for p in sorted(record.packets)) + "]")
    if record.peer is not None:
        parts.append(f"peer={record.peer}")
    return " ".join(parts)
