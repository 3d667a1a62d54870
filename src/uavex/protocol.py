"""Request/reply behaviour of the UAVs on one shared cluster channel.

Each UAV tracks what it holds and which packets it has given up on, as int
bitmasks, and at most one pending backoff per role, kept as a plain int of
microseconds: a request draw sized by how many packets it still wants, and a
reply draw sized by how many of the open request's packets it can supply.
Backoff *values* persist between contention rounds; they are replaced only
when the owner's stake changes, when a collision forces a redraw, or when
the draw is consumed by transmitting.

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
from typing import Callable, Collection, Mapping

from .core import IndicatorVector, PacketId, Rng, Scheme, UavId, packet_label
from .mac import FrameKind, TimingConfig, draw_backoff, draw_baseline_backoff


class Frame:
    """One broadcast on a cluster channel.

    A request lists the sender's wanted packets; a reply lists the data
    packets it carries and names the requester it answers. The packets are a
    bitmask, bit m for packet m.
    """

    __slots__ = ("kind", "sender", "mask", "in_reply_to")

    def __init__(
        self, kind: FrameKind, sender: UavId, mask: int, in_reply_to: UavId | None = None
    ) -> None:
        if mask <= 0:
            raise ValueError("frames must name at least one packet")
        if kind is FrameKind.REPLY and in_reply_to is None:
            raise ValueError("reply frames must name the requester")
        if kind is FrameKind.REQUEST and in_reply_to is not None:
            raise ValueError("request frames answer nobody")
        self.kind, self.sender, self.mask, self.in_reply_to = kind, sender, mask, in_reply_to


@dataclass(slots=True, init=False)
class UavProtocolState:
    """Mutable per-UAV exchange state, owned by a single cluster's channel engine.

    What the UAV holds and the packets it has given up on are plain bitmasks,
    bit m for packet m, and ``full`` has a bit for every packet of the
    scenario. A pending draw is its backoff in whole microseconds (always
    positive), or None when there is none.
    """

    uav_id: UavId
    held: int
    full: int
    unobtainable_mask: int
    request_draw: int | None
    reply_draw: int | None  # answers the request the channel has open

    def __init__(self, uav_id: UavId, holdings: IndicatorVector) -> None:
        self.uav_id = uav_id
        self.held = holdings.mask
        self.full = (1 << holdings.length) - 1
        self.unobtainable_mask = 0
        self.request_draw = None
        self.reply_draw = None

    @property
    def holdings(self) -> IndicatorVector:
        """What the UAV holds, as a vector (a read-only view of ``held``)."""
        return IndicatorVector.from_mask(self.held, self.full.bit_length())

    @property
    def wanted_mask(self) -> int:
        """Packets still worth requesting: missing and not declared unobtainable."""
        return self.full & ~(self.held | self.unobtainable_mask)

    @property
    def is_done(self) -> bool:
        return not self.wanted_mask


def _drawer(
    states: Collection[UavProtocolState], timing: TimingConfig, scheme: Scheme, rng: Rng
) -> Callable[[int], int]:
    """One backoff per call for a positive stake: its priority subwindow, or the whole window.

    Resolved once per channel event; the states of a cluster share one packet
    count. Each call is one call of the module's ``draw_backoff`` or
    ``draw_baseline_backoff``, looked up when it is made.
    """
    window = timing.cw_total_us
    if not scheme.uses_priority_backoff:
        return lambda stake: draw_baseline_backoff(window, rng)
    num_packets = next(iter(states)).full.bit_length() if states else 0
    return lambda stake: draw_backoff(num_packets, stake, window, rng)


def draw_requests(
    states: Collection[UavProtocolState], timing: TimingConfig, scheme: Scheme, rng: Rng
) -> None:
    """Give every UAV that wants packets a request draw sized by its wanted count."""
    draw = _drawer(states, timing, scheme, rng)
    for state in states:
        stake = (state.full & ~(state.held | state.unobtainable_mask)).bit_count()
        state.request_draw = draw(stake) if stake else None


def open_transaction(
    states: Collection[UavProtocolState], request: Frame, timing: TimingConfig, scheme: Scheme,
    rng: Rng,
) -> list[UavProtocolState]:
    """Draw a reply backoff for every other UAV holding some of a clean request's packets.

    The stake is how many of the requested packets the UAV holds. Returns the
    repliers in the order they drew; empty when nobody can reply.
    """
    draw = _drawer(states, timing, scheme, rng)
    sender, mask = request.sender, request.mask
    repliers = []
    for state in states:
        if state.uav_id == sender:
            continue
        stake = (mask & state.held).bit_count()
        if stake:
            state.reply_draw = draw(stake)
            repliers.append(state)
    return repliers


def absorb_reply(
    states: Mapping[UavId, UavProtocolState], reply: Frame, timing: TimingConfig, scheme: Scheme,
    rng: Rng,
) -> None:
    """Close a transaction: every UAV but the sender takes in an overheard reply.

    The reply answers the open request, so every other pending reply is
    dropped. Holdings only ever gain packets; anything received stops being
    unobtainable. A UAV that gains packets while holding a request draw has a
    smaller wanted count, so its draw is redrawn from the new subwindow, or
    dropped once nothing is wanted anymore; a stale draw would misstate the
    priority. Last, the requester draws again if it still wants packets.
    A reply naming a packet outside the scenario raises ``ValueError`` and
    changes no state.
    """
    requester = states[reply.in_reply_to]
    full, mask, sender = requester.full, reply.mask, reply.sender
    if mask & ~full:
        raise ValueError(f"reply mask {mask} does not fit {full.bit_length()} packets")
    draw = _drawer(states.values(), timing, scheme, rng)
    for state in states.values():
        if state.uav_id == sender:
            continue
        state.reply_draw = None
        state.unobtainable_mask &= ~mask
        held = state.held
        if not mask & ~held:
            continue  # nothing new: holdings and stake are unchanged
        state.held = held = held | mask
        if state.request_draw is not None:
            stake = (full & ~(held | state.unobtainable_mask)).bit_count()
            state.request_draw = draw(stake) if stake else None
    stake = requester.wanted_mask.bit_count()
    if stake:
        requester.request_draw = draw(stake)


def redraw_colliders(
    colliders: Collection[UavProtocolState], answering: Frame | None, timing: TimingConfig,
    scheme: Scheme, rng: Rng,
) -> None:
    """Redraw, in the given order, the draws whose frames collided.

    Request colliders (``answering`` is None) redraw their request, reply
    colliders their reply to ``answering``. A collision changes no stake, so
    each redraws within its current subwindow.
    """
    draw = _drawer(colliders, timing, scheme, rng)
    for state in colliders:
        if answering is None:
            state.request_draw = draw(state.wanted_mask.bit_count())
        else:
            state.reply_draw = draw((answering.mask & state.held).bit_count())


def build_request(state: UavProtocolState) -> Frame:
    """Request frame listing everything currently wanted."""
    wanted = state.wanted_mask
    if not wanted:
        raise ValueError(f"uav {state.uav_id} has nothing to request")
    return Frame(FrameKind.REQUEST, state.uav_id, wanted)


def build_reply(state: UavProtocolState, request: Frame) -> Frame:
    """Reply frame carrying exactly the requested packets this UAV holds."""
    supply = request.mask & state.held
    if not supply:
        raise ValueError(f"uav {state.uav_id} holds none of the requested packets")
    return Frame(FrameKind.REPLY, state.uav_id, supply, request.sender)


def mark_unobtainable(state: UavProtocolState, request_sent: Frame) -> None:
    """Give up on every still-missing packet of an own request that drew no reply."""
    state.unobtainable_mask |= request_sent.mask & state.full & ~state.held


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
