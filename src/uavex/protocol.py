"""Per-UAV request/reply behaviour on one shared cluster channel.

Each UAV tracks what it holds, which packets it has given up on, and at most
one pending backoff per role: a request draw sized by how many packets it
still wants, and a reply draw sized by how many of a heard request's packets
it can supply. Backoff *values* persist between contention rounds; they are
replaced only when the owner's stake changes, when a collision forces a
redraw, or when the draw is consumed by transmitting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    IndicatorVector,
    PacketId,
    Rng,
    Scheme,
    UavId,
    mask_packets,
    packet_label,
)
from .mac import BackoffDraw, FrameKind, TimingConfig, draw_backoff, draw_baseline_backoff


@dataclass(frozen=True)
class Frame:
    """One broadcast on a cluster channel.

    A request lists the sender's wanted packets; a reply lists the data
    packets it carries and names the requester it answers. The packets are a
    bitmask, bit m for packet m; ``packet_ids`` is its packet-id view.
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

    @property
    def packet_ids(self) -> frozenset[PacketId]:
        return frozenset(mask_packets(self.mask))


@dataclass
class UavProtocolState:
    """Mutable per-UAV exchange state, owned by a single cluster's channel engine.

    Packets given up on are kept as a bitmask, like the holdings;
    ``unobtainable`` is its packet-id view.
    """

    uav_id: UavId
    holdings: IndicatorVector
    unobtainable_mask: int = 0
    request_draw: BackoffDraw | None = None
    reply_draw: BackoffDraw | None = None
    active_request: Frame | None = None  # the request the reply draw answers

    @property
    def unobtainable(self) -> frozenset[PacketId]:
        return frozenset(mask_packets(self.unobtainable_mask))

    @property
    def missing(self) -> frozenset[PacketId]:
        return self.holdings.missing_packets()

    @property
    def wanted_mask(self) -> int:
        """Packets still worth requesting: missing and not declared unobtainable."""
        holdings = self.holdings
        return ((1 << holdings.length) - 1) & ~(holdings.mask | self.unobtainable_mask)

    @property
    def wanted(self) -> frozenset[PacketId]:
        return frozenset(mask_packets(self.wanted_mask))

    @property
    def is_done(self) -> bool:
        return not self.wanted_mask

    @property
    def pending_backoff(self) -> int:
        """Duration of the draw currently in play (reply duty first), else 0."""
        if self.reply_draw is not None:
            return self.reply_draw.duration_us
        if self.request_draw is not None:
            return self.request_draw.duration_us
        return 0

    @property
    def phase(self) -> str:
        if self.is_done:
            return "done"
        if self.reply_draw is not None:
            return "reply_backoff"
        if self.request_draw is not None:
            return "request_backoff"
        return "idle"


def _draw(
    relevant_count: int,
    num_packets: int,
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng,
    owner: UavId,
) -> BackoffDraw:
    if scheme.uses_priority_backoff:
        return draw_backoff(num_packets, relevant_count, timing.cw_total_us, rng, owner=owner)
    return draw_baseline_backoff(timing.cw_total_us, rng, owner=owner)


def decide_request(
    state: UavProtocolState, timing: TimingConfig, scheme: Scheme, rng: Rng
) -> BackoffDraw | None:
    """Backoff draw for requesting, sized by the wanted-packet count; None when done."""
    stake = state.wanted_mask.bit_count()
    if not stake:
        return None
    return _draw(stake, len(state.holdings), timing, scheme, rng, state.uav_id)


def decide_reply(
    state: UavProtocolState,
    request: Frame,
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng,
) -> BackoffDraw | None:
    """Backoff draw for answering a request, sized by how many of its packets we hold."""
    if request.sender == state.uav_id:
        return None
    stake = (request.mask & state.holdings.mask).bit_count()
    if not stake:
        return None
    return _draw(stake, len(state.holdings), timing, scheme, rng, state.uav_id)


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


def absorb_reply(
    state: UavProtocolState,
    reply: Frame,
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng,
) -> None:
    """Fold an overheard reply into holdings and refresh the request draw if the stake changed.

    Every UAV on the channel absorbs replies, not only the requester. Holdings
    only ever gain packets; anything received stops being unobtainable. A
    pending request draw is kept as long as the wanted count is unchanged,
    discarded outright when nothing is wanted anymore, and redrawn from the
    new subwindow otherwise since a stale draw would misstate the priority.
    """
    state.unobtainable_mask &= ~reply.mask
    holdings = state.holdings
    if not reply.mask & ~holdings.mask:
        return  # nothing new: holdings and stake are unchanged
    before = state.wanted_mask.bit_count()
    state.holdings = IndicatorVector.from_mask(holdings.mask | reply.mask, holdings.length)
    after = state.wanted_mask.bit_count()
    if state.request_draw is None or after == before:
        return
    if after == 0:
        state.request_draw = None
    else:
        state.request_draw = _draw(
            after, len(state.holdings), timing, scheme, rng, state.uav_id
        )


def cancel_reply_if_answered(state: UavProtocolState, observed: Frame) -> None:
    """Drop a pending reply once another UAV has answered the same request."""
    if state.reply_draw is None or state.active_request is None:
        return
    if (
        observed.kind is FrameKind.REPLY
        and observed.sender != state.uav_id
        and observed.in_reply_to == state.active_request.sender
    ):
        state.reply_draw = None
        state.active_request = None


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
