"""Deterministic discrete-event simulation of the in-cluster exchange.

One engine instance simulates one cluster's shared channel in integer
microseconds. Clusters sit on disjoint channels, so a scenario run simulates
them independently and reports the per-cluster maxima.

Channel life alternates between two contention modes. While no request is
outstanding, UAVs with pending request draws contend: after the channel has
been idle for DIFS, the smallest draw transmits its request. Once a request
is on the air, every other UAV that can supply some of it draws a reply
backoff, and only those repliers contend. Draws are never counted down: a
pending request draw is held at its full value until the transaction closes
with a reply (or, when nobody can supply anything, with a timeout after DIFS
plus a full window of silence), and then contends again, whole, from the
next idle check. Draws that expire at the same microsecond collide: both
frames are lost and the colliders redraw within their current subwindows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterAssignment, cluster_network
from .core import (
    IndicatorVector,
    Rng,
    RunStreams,
    ScenarioConfig,
    Scheme,
    UavId,
    mask_packets,
)
from .mac import FrameKind, TimingConfig, frame_duration
from .protocol import (
    Frame,
    TraceRecord,
    UavProtocolState,
    absorb_reply,
    build_reply,
    build_request,
    cancel_reply_if_answered,
    decide_reply,
    decide_request,
    mark_unobtainable,
)


class EventKind(IntEnum):
    """Event kinds; the numeric value is the tie-break priority at equal timestamps.

    Frame completions must become visible before new activity, so TX_END
    sorts first and TX_START last.
    """

    TX_END = 0
    CHANNEL_IDLE_CHECK = 1
    TIMEOUT = 2
    BACKOFF_EXPIRED = 3
    TX_START = 4


@dataclass(frozen=True)
class Event:
    time_us: int
    kind: EventKind
    subject: UavId
    payload: object = None


class _Mode(Enum):
    IDLE_CONTENTION = "idle"
    AWAITING_REPLY = "awaiting_reply"


@dataclass
class _Transmission:
    frame: Frame
    start_us: int
    end_us: int
    collided: bool = False


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster's exchange."""

    exchange_count: int
    delay_us: int
    completed: bool
    collision_count: int
    unobtainable: frozenset[int] = frozenset()


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run: per-cluster results plus the reported maxima.

    Clusters exchange in parallel on disjoint channels, so the slowest,
    busiest cluster determines the figures reported for the whole network.
    """

    cluster_results: tuple[ClusterResult, ...]
    reported_exchanges: int
    reported_delay_us: int
    all_completed: bool

    @classmethod
    def from_clusters(cls, results: Sequence[ClusterResult]) -> RunResult:
        results = tuple(results)
        return cls(
            cluster_results=results,
            reported_exchanges=max(r.exchange_count for r in results),
            reported_delay_us=max(r.delay_us for r in results),
            all_completed=all(r.completed for r in results),
        )

    @property
    def full_cluster_fraction(self) -> float:
        """Fraction of clusters that finished with every member complete."""
        done = sum(1 for r in self.cluster_results if r.completed)
        return done / len(self.cluster_results)


def sample_initial_receipts(
    num_uavs: int, num_packets: int, delivery_rate: float, rng: Rng
) -> list[IndicatorVector]:
    """Independent Bernoulli receipt of each packet at each UAV.

    One ``(num_uavs, num_packets)`` uniform draw decides every receipt; each
    row is packed little-endian into the bitmask of one UAV's vector.
    """
    if not 0.0 <= delivery_rate <= 1.0:
        raise ValueError("delivery_rate must lie in [0, 1]")
    hits = rng.random((num_uavs, num_packets)) < delivery_rate
    packed = np.packbits(hits, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [
        IndicatorVector.from_mask(
            int.from_bytes(raw[u * width:(u + 1) * width], "little"), num_packets
        )
        for u in range(num_uavs)
    ]


class _ChannelEngine:
    """Event loop for one cluster channel. Single-threaded, fully deterministic."""

    def __init__(
        self,
        members: Sequence[UavId],
        holdings: Mapping[UavId, IndicatorVector],
        timing: TimingConfig,
        scheme: Scheme,
        rng: Rng,
        trace: list[TraceRecord] | None = None,
        cluster_id: int = 0,
        max_events: int = 1_000_000,
    ):
        if not members:
            raise ValueError("cluster must have at least one member")
        self.members = sorted(members)
        self.states = {u: UavProtocolState(u, holdings[u]) for u in self.members}
        self.num_packets = len(holdings[self.members[0]])
        # Equal stakes share a subwindow, so colliders separate only if each
        # subwindow offers at least two values: floor(kW/M) - floor((k-1)W/M)
        # >= floor(W/M) >= 2 once W >= 2M. Narrower windows can livelock.
        min_window = 2 * self.num_packets
        if timing.cw_total_us < min_window:
            raise ValueError(
                f"contention window of {timing.cw_total_us} us is too short for "
                f"{self.num_packets} packets: cw_total_us must be at least {min_window}"
            )
        self.timing = timing
        self.scheme = scheme
        self.rng = rng
        self.trace = trace
        self.cluster_id = cluster_id
        self.max_events = max_events

        self._heap: list[tuple[int, int, int, int, Event]] = []
        self._seq = 0
        self._now = 0
        self._epoch = 0
        self._mode = _Mode.IDLE_CONTENTION
        self._open_request: Frame | None = None
        self._request_end_us = 0
        self._active: dict[UavId, _Transmission] = {}
        self._pending = 0
        self._finish_us = 0
        self.exchange_count = 0
        self.collision_count = 0

    # -- bookkeeping -------------------------------------------------------

    def _push(self, event: Event) -> None:
        assert event.time_us >= self._now
        self._seq += 1
        heapq.heappush(
            self._heap,
            (event.time_us, int(event.kind), event.subject, self._seq, event),
        )

    def _record(
        self,
        uav: UavId,
        event: str,
        packets_mask: int = 0,
        peer: UavId | None = None,
    ) -> None:
        if self.trace is not None:
            self.trace.append(
                TraceRecord(
                    time_us=self._now,
                    uav=uav,
                    event=event,
                    packets=mask_packets(packets_mask),
                    peer=peer,
                    cluster=self.cluster_id,
                )
            )

    def _mark_done(self, state: UavProtocolState) -> None:
        state.request_draw = None
        state.reply_draw = None
        state.active_request = None
        self._pending -= 1
        self._finish_us = max(self._finish_us, self._now)
        self._record(state.uav_id, "done")

    def _settle_done(self) -> None:
        for u in self.members:
            state = self.states[u]
            if state.is_done and state.request_draw is None and u not in self._done_set:
                self._done_set.add(u)
                self._mark_done(state)

    # -- event handlers ----------------------------------------------------

    def _on_idle_check(self, event: Event) -> None:
        if event.payload != self._epoch or self._active:
            return
        if self._mode is _Mode.IDLE_CONTENTION:
            contenders = [self.states[u] for u in self.members if self.states[u].request_draw]
            if not contenders:
                if self._pending:
                    raise RuntimeError("stalled: pending UAVs without request draws")
                return
            draws = {s.uav_id: s.request_draw.duration_us for s in contenders}
        else:
            contenders = [self.states[u] for u in self.members if self.states[u].reply_draw]
            if not contenders:
                # Nobody can supply anything: let the requester give up after
                # DIFS plus a full window of provable silence.
                assert self._open_request is not None
                deadline = self._request_end_us + self.timing.difs_us + self.timing.cw_total_us
                self._push(
                    Event(deadline, EventKind.TIMEOUT, self._open_request.sender, self._epoch)
                )
                return
            draws = {s.uav_id: s.reply_draw.duration_us for s in contenders}
        shortest = min(draws.values())
        anchor = event.time_us + self.timing.difs_us
        for uav, duration in sorted(draws.items()):
            if duration == shortest:
                self._push(Event(anchor + duration, EventKind.BACKOFF_EXPIRED, uav, self._epoch))

    def _on_backoff_expired(self, event: Event) -> None:
        if event.payload != self._epoch:
            return
        state = self.states[event.subject]
        if self._mode is _Mode.IDLE_CONTENTION:
            frame = build_request(state)
            state.request_draw = None
        else:
            assert self._open_request is not None
            frame = build_reply(state, self._open_request)
            state.reply_draw = None
            state.active_request = None
        self._push(Event(event.time_us, EventKind.TX_START, event.subject, frame))

    def _on_tx_start(self, event: Event) -> None:
        frame: Frame = event.payload  # type: ignore[assignment]
        carried = frame.mask.bit_count() if frame.kind is FrameKind.REPLY else 0
        tx = _Transmission(
            frame=frame,
            start_us=event.time_us,
            end_us=event.time_us + frame_duration(frame.kind, carried, self.timing),
        )
        if self._active:
            # Expiries are only ever scheduled for the joint minimum of a
            # window, so concurrent transmissions always start the same us.
            assert all(other.start_us == tx.start_us for other in self._active.values())
            fresh = not any(other.collided for other in self._active.values())
            for other in self._active.values():
                other.collided = True
            tx.collided = True
            if fresh:
                self.collision_count += 1
                self._record(event.subject, "collision", frame.mask)
        self._active[event.subject] = tx
        self._epoch += 1
        self._push(Event(tx.end_us, EventKind.TX_END, event.subject, tx))

    def _on_tx_end(self, event: Event) -> None:
        tx: _Transmission = event.payload  # type: ignore[assignment]
        del self._active[event.subject]
        if tx.collided:
            self._redraw_collider(self.states[event.subject], tx.frame)
            if not self._active:
                self._epoch += 1
                self._push(Event(event.time_us, EventKind.CHANNEL_IDLE_CHECK, -1, self._epoch))
            return
        assert not self._active, "clean frame overlapped another transmission"
        if tx.frame.kind is FrameKind.REQUEST:
            self._open_transaction(tx.frame)
        else:
            self._close_transaction(tx.frame)
        self._epoch += 1
        self._push(Event(event.time_us, EventKind.CHANNEL_IDLE_CHECK, -1, self._epoch))

    def _on_timeout(self, event: Event) -> None:
        if event.payload != self._epoch:
            return
        assert self._open_request is not None
        state = self.states[event.subject]
        mark_unobtainable(state, self._open_request)
        self._record(event.subject, "unobtainable", self._open_request.mask)
        self._mode = _Mode.IDLE_CONTENTION
        self._open_request = None
        self._settle_done()
        self._epoch += 1
        self._push(Event(event.time_us, EventKind.CHANNEL_IDLE_CHECK, -1, self._epoch))

    # -- transaction plumbing ----------------------------------------------

    def _redraw_collider(self, state: UavProtocolState, frame: Frame) -> None:
        # A collider redraws within its current subwindow; its stake has not
        # changed, so only the value is refreshed.
        if frame.kind is FrameKind.REQUEST:
            state.request_draw = decide_request(state, self.timing, self.scheme, self.rng)
        else:
            assert self._open_request is not None
            state.reply_draw = decide_reply(
                state, self._open_request, self.timing, self.scheme, self.rng
            )
            state.active_request = self._open_request

    def _open_transaction(self, request: Frame) -> None:
        self._record(request.sender, "request", request.mask)
        self._mode = _Mode.AWAITING_REPLY
        self._open_request = request
        self._request_end_us = self._now
        for u in self.members:
            state = self.states[u]
            draw = decide_reply(state, request, self.timing, self.scheme, self.rng)
            if draw is not None:
                state.reply_draw = draw
                state.active_request = request

    def _close_transaction(self, reply: Frame) -> None:
        self.exchange_count += 1
        self._record(reply.sender, "reply", reply.mask, peer=reply.in_reply_to)
        requester = self.states[reply.in_reply_to]
        for u in self.members:
            state = self.states[u]
            if state.uav_id == reply.sender:
                continue
            cancel_reply_if_answered(state, reply)
            absorb_reply(state, reply, self.timing, self.scheme, self.rng)
        if requester.wanted:
            requester.request_draw = decide_request(requester, self.timing, self.scheme, self.rng)
        self._mode = _Mode.IDLE_CONTENTION
        self._open_request = None
        self._settle_done()

    # -- main loop ----------------------------------------------------------

    def run(self) -> ClusterResult:
        self._done_set: set[UavId] = set()
        self._pending = len(self.members)
        for u in self.members:
            state = self.states[u]
            state.request_draw = decide_request(state, self.timing, self.scheme, self.rng)
        self._settle_done()
        if self._pending:
            self._push(Event(0, EventKind.CHANNEL_IDLE_CHECK, -1, self._epoch))
        handlers = {
            EventKind.TX_END: self._on_tx_end,
            EventKind.CHANNEL_IDLE_CHECK: self._on_idle_check,
            EventKind.TIMEOUT: self._on_timeout,
            EventKind.BACKOFF_EXPIRED: self._on_backoff_expired,
            EventKind.TX_START: self._on_tx_start,
        }
        processed = 0
        while self._heap and self._pending:
            _, _, _, _, event = heapq.heappop(self._heap)
            assert event.time_us >= self._now, "event times must be non-decreasing"
            self._now = event.time_us
            handlers[event.kind](event)
            processed += 1
            if processed > self.max_events:
                raise RuntimeError(
                    f"event budget exceeded ({self.max_events}); "
                    "likely a degenerate contention window"
                )
        if self._pending:
            raise RuntimeError("event queue drained with UAVs still pending")
        completed = all(self.states[u].holdings.is_full() for u in self.members)
        unobtainable = 0
        for u in self.members:
            unobtainable |= self.states[u].unobtainable_mask
        return ClusterResult(
            exchange_count=self.exchange_count,
            delay_us=self._finish_us,
            completed=completed,
            collision_count=self.collision_count,
            unobtainable=frozenset(mask_packets(unobtainable)),
        )


def run_cluster_exchange(
    members: Sequence[UavId],
    holdings: Mapping[UavId, IndicatorVector],
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng,
    trace: list[TraceRecord] | None = None,
    cluster_id: int = 0,
) -> ClusterResult:
    """Simulate one cluster's channel until every member is done.

    Members that cannot complete (their cluster holds no copy of a wanted
    packet) end by declaring those packets unobtainable; that is reported in
    the result, not raised.
    """
    engine = _ChannelEngine(
        members, holdings, timing, scheme, rng, trace=trace, cluster_id=cluster_id
    )
    return engine.run()


def assignment_for_scheme(
    receipts: Sequence[IndicatorVector], config: ScenarioConfig, rng: Rng
) -> ClusterAssignment:
    """Cluster per the scheme: the no-clustering variants use one big cluster."""
    if config.scheme.uses_clustering:
        return cluster_network(receipts, config.num_clusters, rng)
    return cluster_network(receipts, 1, rng)


def run_scenario(
    config: ScenarioConfig,
    run_index: int = 0,
    timing: TimingConfig | None = None,
    trace: list[TraceRecord] | None = None,
) -> RunResult:
    """One full scenario run: sample receipts, cluster, exchange, aggregate.

    Deterministic in (config, run_index). Each run derives its own receipt,
    tie-break, and per-cluster backoff streams from the master seed, so runs
    are independent and any single run can be replayed in isolation.
    """
    timing = timing or TimingConfig()
    streams = RunStreams(config.seed, run_index)
    receipts = sample_initial_receipts(
        config.num_uavs, config.num_packets, config.delivery_rate, streams.stream("bs-delivery")
    )
    assignment = assignment_for_scheme(receipts, config, streams.stream("tie-break"))
    results = []
    for cluster_id, group in enumerate(assignment.members):
        results.append(
            run_cluster_exchange(
                group,
                {u: receipts[u] for u in group},
                timing,
                config.scheme,
                streams.stream(f"backoff/{cluster_id}"),
                trace=trace,
                cluster_id=cluster_id,
            )
        )
    return RunResult.from_clusters(results)
