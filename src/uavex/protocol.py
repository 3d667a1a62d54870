"""Request/reply rules of the UAVs on one shared cluster channel, one function per channel event.

A cluster's exchange state is a few parallel int lists, indexed by each UAV's
position in the sorted member list: ``held`` is its bitmask, bit m for packet
m, and ``requests`` and, while a request is open, the reply draws hold its
draws in whole microseconds, 0 for none. A UAV wants every packet it does not
hold; a request draw is sized by how many it wants, a reply draw by how many of
the open request's packets it can supply. Backoff *values* persist between
contention rounds; they are replaced only when the owner's stake changes, when
a collision forces a redraw, or when the draw is consumed by transmitting.

The rules are the first request draws (``first_draws``), a clean request
(``open_request``), a clean reply (``absorb_reply``) and a collision
(``redraw_colliders``); a request nobody can supply changes no draw. Each
takes the packet count, the window, whether the scheme uses priority backoff,
and the cluster's draw source. Each draw is one call of this module's
``draw_backoff`` or ``draw_baseline_backoff``, looked up when it is made, so a
cluster's stream is consumed in event order and, within an event, in uav order
(colliders in the order they are given).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PacketId, Rng, UavId, packet_label
from .mac import draw_backoff, draw_baseline_backoff


def first_draws(
    held: list[int], full: int, num_packets: int, window: int, priority: bool, rng: Rng
) -> list[int]:
    """A request draw for every UAV, sized by its missing count; 0 for a UAV missing nothing."""
    requests = []
    for mask in held:
        stake = (full & ~mask).bit_count()
        if not stake:
            requests.append(0)
        elif priority:
            requests.append(draw_backoff(num_packets, stake, window, rng))
        else:
            requests.append(draw_baseline_backoff(window, rng))
    return requests


def open_request(
    held: list[int], asked: int, num_packets: int, window: int, priority: bool, rng: Rng
) -> list[int]:
    """One reply draw per UAV for a clean request's packets ``asked``, sized by how many it holds.

    The draw is 0 for a UAV holding none of them, the requester included;
    every draw is 0 when nobody can reply.
    """
    draws = []
    for mask in held:
        supplied = asked & mask
        if not supplied:
            draws.append(0)
        elif priority:
            draws.append(draw_backoff(num_packets, supplied.bit_count(), window, rng))
        else:
            draws.append(draw_baseline_backoff(window, rng))
    return draws


def absorb_reply(
    held: list[int], requests: list[int], requester: int, supply: int, full: int,
    num_packets: int, window: int, priority: bool, rng: Rng,
) -> None:
    """Close a transaction: every UAV takes in the packets ``supply`` of an overheard reply.

    The reply ends the open request, so the other reply draws lapse with it.
    Holdings only ever gain packets. A UAV that gains packets while holding a
    request draw wants fewer, so its draw is redrawn from the new subwindow, or
    dropped once it wants nothing; a stale draw would misstate the priority.
    The sender already holds the packets, so nothing changes for it. Last, the
    requester draws again if it still wants packets. A reply naming a packet
    outside the scenario raises ``ValueError`` and changes nothing.
    """
    if supply & ~full:
        raise ValueError(f"reply mask {supply} does not fit {num_packets} packets")
    for i, mask in enumerate(held):
        if not supply & ~mask:
            continue  # nothing new: holdings and stake are unchanged
        held[i] = mask = mask | supply
        if requests[i]:
            stake = (full & ~mask).bit_count()
            if not stake:
                requests[i] = 0
            elif priority:
                requests[i] = draw_backoff(num_packets, stake, window, rng)
            else:
                requests[i] = draw_baseline_backoff(window, rng)
    stake = (full & ~held[requester]).bit_count()
    if stake:
        requests[requester] = (
            draw_backoff(num_packets, stake, window, rng) if priority
            else draw_baseline_backoff(window, rng)
        )


def redraw_colliders(
    draws: list[int], colliders: list[int], frames: list[int], num_packets: int, window: int,
    priority: bool, rng: Rng,
) -> None:
    """Redraw, in the given order, the draws at ``colliders`` whose frames collided.

    A collision changes no stake, so each collider redraws within the
    subwindow of the frame it sent (``frames``, its packet mask): what it
    wants for a request, what it can supply for a reply.
    """
    for k, frame in zip(colliders, frames):
        draws[k] = (
            draw_backoff(num_packets, frame.bit_count(), window, rng) if priority
            else draw_baseline_backoff(window, rng)
        )


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
