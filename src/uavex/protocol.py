"""Request/reply behaviour of the UAVs on one shared cluster channel.

Each UAV tracks what it holds, which packets it has given up on, and at most
one pending backoff per role, kept as a plain int of microseconds: a request
draw sized by how many packets it still wants, and a reply draw sized by how
many of the open request's packets it can supply. Backoff *values* persist
between contention rounds; they are replaced only when the owner's stake
changes, when a collision forces a redraw, or when the draw is consumed by
transmitting.

The rules are written once per channel event, each applied to the cluster's
UAV states in uav order: the first request draws (``draw_requests``), a clean
request (``open_transaction``), a clean reply (``absorb_reply``), a collision
(``redraw_colliders``) and a request nobody can supply
(``mark_unobtainable``). Each draw is one call of ``draw_backoff`` or
``draw_baseline_backoff``, so a cluster's stream is consumed in event order
and, within an event, in uav order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (
    IndicatorVector,
    PacketId,
    Rng,
    Scheme,
    UavId,
    packet_label,
)
from .mac import FrameKind, TimingConfig, draw_backoff, draw_baseline_backoff


@dataclass(frozen=True)
class Frame:
    """One broadcast on a cluster channel.

    A request lists the sender's wanted packets; a reply lists the data
    packets it carries and names the requester it answers. The packets are a
    bitmask, bit m for packet m.
    """

    kind: FrameKind
    sender: UavId
    mask: int
    in_reply_to: UavId | None = None

    def __post_init__(self) -> None:
        if self.mask <= 0:
            raise ValueError("frames must name at least one packet")
        if self.kind is FrameKind.REPLY and self.in_reply_to is None:
            raise ValueError("reply frames must name the requester")
        if self.kind is FrameKind.REQUEST and self.in_reply_to is not None:
            raise ValueError("request frames answer nobody")


@dataclass(slots=True)
class UavProtocolState:
    """Mutable per-UAV exchange state, owned by a single cluster's channel engine.

    Packets given up on are kept as a bitmask, like the holdings. A pending
    draw is its backoff in whole microseconds (always positive), or None when
    there is none.
    """

    uav_id: UavId
    holdings: IndicatorVector
    unobtainable_mask: int = 0
    request_draw: int | None = None
    reply_draw: int | None = None  # answers the request the channel has open

    @property
    def wanted_mask(self) -> int:
        """Packets still worth requesting: missing and not declared unobtainable."""
        holdings = self.holdings
        return ((1 << holdings.length) - 1) & ~(holdings.mask | self.unobtainable_mask)

    @property
    def is_done(self) -> bool:
        return not self.wanted_mask


def _draw(stake: int, num_packets: int, timing: TimingConfig, scheme: Scheme, rng: Rng) -> int:
    """One backoff for a positive stake: its priority subwindow, or the whole window."""
    if scheme.uses_priority_backoff:
        return draw_backoff(num_packets, stake, timing.cw_total_us, rng)
    return draw_baseline_backoff(timing.cw_total_us, rng)


def draw_requests(
    states: Iterable[UavProtocolState], timing: TimingConfig, scheme: Scheme, rng: Rng
) -> None:
    """Give every UAV that wants packets a request draw sized by its wanted count."""
    for state in states:
        stake = state.wanted_mask.bit_count()
        state.request_draw = (
            _draw(stake, state.holdings.length, timing, scheme, rng) if stake else None
        )


def open_transaction(
    states: Iterable[UavProtocolState],
    request: Frame,
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng,
) -> list[UavProtocolState]:
    """Draw a reply backoff for every other UAV holding some of a clean request's packets.

    The stake is how many of the requested packets the UAV holds. Returns the
    repliers in the order they drew; empty when nobody can reply.
    """
    repliers = []
    for state in states:
        if state.uav_id == request.sender:
            continue
        stake = (request.mask & state.holdings.mask).bit_count()
        if stake:
            state.reply_draw = _draw(stake, state.holdings.length, timing, scheme, rng)
            repliers.append(state)
    return repliers


def absorb_reply(
    states: Mapping[UavId, UavProtocolState],
    reply: Frame,
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng,
) -> None:
    """Close a transaction: every UAV but the sender takes in an overheard reply.

    The reply answers the open request, so every other pending reply is
    dropped. Holdings only ever gain packets; anything received stops being
    unobtainable. A UAV that gains packets while holding a request draw has a
    smaller wanted count, so its draw is redrawn from the new subwindow, or
    dropped once nothing is wanted anymore; a stale draw would misstate the
    priority. Last, the requester draws again if it still wants packets.
    """
    for state in states.values():
        if state.uav_id == reply.sender:
            continue
        state.reply_draw = None
        state.unobtainable_mask &= ~reply.mask
        holdings = state.holdings
        if not reply.mask & ~holdings.mask:
            continue  # nothing new: holdings and stake are unchanged
        state.holdings = IndicatorVector.from_mask(holdings.mask | reply.mask, holdings.length)
        if state.request_draw is not None:
            stake = state.wanted_mask.bit_count()
            state.request_draw = (
                _draw(stake, holdings.length, timing, scheme, rng) if stake else None
            )
    requester = states[reply.in_reply_to]
    stake = requester.wanted_mask.bit_count()
    if stake:
        requester.request_draw = _draw(stake, requester.holdings.length, timing, scheme, rng)


def redraw_colliders(
    colliders: Iterable[UavProtocolState],
    answering: Frame | None,
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng,
) -> None:
    """Redraw, in the given order, the draws whose frames collided.

    Request colliders (``answering`` is None) redraw their request, reply
    colliders their reply to ``answering``. A collision changes no stake, so
    each redraws within its current subwindow.
    """
    for state in colliders:
        if answering is None:
            stake = state.wanted_mask.bit_count()
            state.request_draw = _draw(stake, state.holdings.length, timing, scheme, rng)
        else:
            stake = (answering.mask & state.holdings.mask).bit_count()
            state.reply_draw = _draw(stake, state.holdings.length, timing, scheme, rng)


def build_request(state: UavProtocolState) -> Frame:
    """Request frame listing everything currently wanted."""
    wanted = state.wanted_mask
    if not wanted:
        raise ValueError(f"uav {state.uav_id} has nothing to request")
    return Frame(FrameKind.REQUEST, state.uav_id, wanted)


def build_reply(state: UavProtocolState, request: Frame) -> Frame:
    """Reply frame carrying exactly the requested packets this UAV holds."""
    supply = request.mask & state.holdings.mask
    if not supply:
        raise ValueError(f"uav {state.uav_id} holds none of the requested packets")
    return Frame(FrameKind.REPLY, state.uav_id, supply, in_reply_to=request.sender)


def mark_unobtainable(state: UavProtocolState, request_sent: Frame) -> None:
    """Give up on every still-missing packet of an own request that drew no reply."""
    state.unobtainable_mask |= request_sent.mask & state.holdings.missing_mask


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
