"""Deterministic simulation of the in-cluster exchange, one contention round at a time.

One engine instance simulates one cluster's shared channel in integer
microseconds. Clusters sit on disjoint channels, so a scenario run simulates
them independently and reports the per-cluster maxima.

The channel resolves one contention round at a time: it idles for DIFS, then
the shortest pending draw transmits. While no request is outstanding, UAVs
with request draws contend. A clean request makes every other UAV that can
supply some of it draw a reply backoff, and only those repliers contend until
one reply gets through. Draws are never counted down: a pending request draw
is held at its full value until the transaction closes with a reply (or, when
nobody can supply anything, with a timeout after DIFS plus a full window of
silence), and then contends again, whole, in the next round. Equal shortest
draws collide: all their frames are lost and the colliders redraw within
their current subwindows as their frames end.

Draws are plain ints of microseconds. The engine keeps the clock, picks the
transmitters and records the trace; each protocol rule is one ``protocol``
call per channel event (first draws, clean request, clean reply, collision,
timeout) that walks the cluster's states itself. Members that want nothing
more are retired once and no longer contend for requests, though they keep
answering them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import core  # core.stream is read at call time, so rebinding it reaches every call
from .clustering import cluster_network, reads_tie_break
from .core import IndicatorVector, Rng, ScenarioConfig, Scheme, UavId, mask_packets
from .mac import Pcg64Draws, TimingConfig, draw_source, frame_duration
from .protocol import (
    Frame,
    TraceRecord,
    UavProtocolState,
    absorb_reply,
    build_reply,
    build_request,
    draw_requests,
    mark_unobtainable,
    open_transaction,
    redraw_colliders,
)


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
    """Contention-round loop for one cluster channel. Single-threaded, fully deterministic."""

    def __init__(
        self,
        members: Sequence[UavId],
        holdings: Mapping[UavId, IndicatorVector],
        timing: TimingConfig,
        scheme: Scheme,
        rng: Rng | Pcg64Draws,
        trace: list[TraceRecord] | None = None,
        cluster_id: int = 0,
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
        self.rng = draw_source(rng)
        # A source wrapped here hands its pending half-word back to the
        # caller's generator at the end; a source handed in stays the caller's.
        self._write_back = self.rng is not rng
        self.trace = trace
        self.cluster_id = cluster_id

        self._now = 0
        self._pending = list(self.states.values())  # members not yet done, in uav order
        self._repliers: list[UavProtocolState] = []  # holders of the open request's reply draws
        self._finish_us = 0
        self.exchange_count = 0
        self.collision_count = 0

    # -- bookkeeping -------------------------------------------------------

    def _record(self, uav: UavId, event: str, mask: int = 0, peer: UavId | None = None) -> None:
        if self.trace is not None:
            packets = mask_packets(mask)
            self.trace.append(TraceRecord(self._now, uav, event, packets, peer, self.cluster_id))

    def _settle_done(self) -> None:
        """Retire the members that want nothing more, recording when each finished."""
        pending = []
        for state in self._pending:
            if state.request_draw is None and not state.wanted_mask:
                self._finish_us = max(self._finish_us, self._now)
                self._record(state.uav_id, "done")
            else:
                pending.append(state)
        self._pending = pending

    # -- one contention round ----------------------------------------------

    def _round(self, answering: Frame | None = None) -> Frame | None:
        """Resolve one round among the request draws, or the reply draws to ``answering``.

        The channel idles for DIFS plus the shortest draw; every UAV holding
        that draw transmits. A lone frame is returned once its air time has
        passed. Equal draws collide: the round counts one collision, the
        colliders redraw as their frames end, and None is returned.
        """
        if answering is None:
            draws = [(s.request_draw, s) for s in self._pending if s.request_draw]
        else:
            draws = [(s.reply_draw, s) for s in self._repliers]
        if not draws:
            raise RuntimeError("stalled: pending UAVs without request draws")
        shortest = min(draw for draw, _ in draws)
        self._now += self.timing.difs_us + shortest
        sent = []
        for draw, state in draws:
            if draw != shortest:
                continue
            if answering is None:
                frame = build_request(state)
                state.request_draw = None
                carried = 0
            else:
                frame = build_reply(state, answering)
                state.reply_draw = None
                carried = frame.mask.bit_count()
            end = self._now + frame_duration(frame.kind, carried, self.timing)
            sent.append((end, state.uav_id, frame, state))
        if len(sent) == 1:
            self._now, _, frame, _ = sent[0]
            return frame
        self.collision_count += 1
        _, second, frame, _ = sent[1]
        self._record(second, "collision", frame.mask)
        sent.sort(key=lambda tx: tx[:2])
        self._now = sent[-1][0]
        redraw_colliders(
            [state for *_, state in sent], answering, self.timing, self.scheme, self.rng
        )
        return None

    # -- main loop ----------------------------------------------------------

    def run(self) -> ClusterResult:
        """Run contention rounds until every member is done.

        Each clean exchange shrinks the total wanted count and each timeout
        retires its requester, so only collisions repeat a round; with every
        subwindow at least two values wide, colliders separate eventually.
        A request that nobody can supply times out after DIFS plus a full
        window of provable silence. A PCG64 generator that the engine wrapped
        in ``Pcg64Draws`` gets its pending half-word back at the end, as if
        numpy had drawn.
        """
        try:
            return self._exchange()
        finally:
            if self._write_back:
                self.rng.write_back()

    def _exchange(self) -> ClusterResult:
        timing, scheme, rng = self.timing, self.scheme, self.rng
        draw_requests(self.states.values(), timing, scheme, rng)
        self._settle_done()
        while self._pending:
            request = self._round()
            if request is None:
                continue
            self._record(request.sender, "request", request.mask)
            self._repliers = open_transaction(self.states.values(), request, timing, scheme, rng)
            if self._repliers:
                reply = None
                while reply is None:
                    reply = self._round(request)
                self.exchange_count += 1
                self._record(reply.sender, "reply", reply.mask, peer=reply.in_reply_to)
                absorb_reply(self.states, reply, timing, scheme, rng)
            else:
                self._now += timing.difs_us + timing.cw_total_us
                mark_unobtainable(self.states[request.sender], request)
                self._record(request.sender, "unobtainable", request.mask)
            self._settle_done()
        completed = all(state.held == state.full for state in self.states.values())
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
    rng: Rng | Pcg64Draws,
    trace: list[TraceRecord] | None = None,
    cluster_id: int = 0,
) -> ClusterResult:
    """Simulate one cluster's channel until every member is done.

    Members that cannot complete (their cluster holds no copy of a wanted
    packet) end by declaring those packets unobtainable; that is reported in
    the result, not raised. A plain PCG64 ``rng`` ends in the state numpy's
    own draws would leave; a ``Pcg64Draws`` is drawn from and left as it is.
    """
    engine = _ChannelEngine(
        members, holdings, timing, scheme, rng, trace=trace, cluster_id=cluster_id
    )
    return engine.run()


def clusters_for_scheme(config: ScenarioConfig) -> int:
    """Cluster count the scheme runs: the no-clustering variants use one big cluster."""
    return config.num_clusters if config.scheme.uses_clustering else 1


def run_scenario(
    config: ScenarioConfig,
    run_index: int = 0,
    timing: TimingConfig | None = None,
    trace: list[TraceRecord] | None = None,
    receipts: Sequence[IndicatorVector] | None = None,
    block: core.StreamBlock | None = None,
) -> RunResult:
    """One full scenario run: sample receipts, cluster, exchange, aggregate.

    Deterministic in (config, run_index). Each run derives its own receipt,
    tie-break, and per-cluster backoff streams from the master seed, so runs
    are independent and any single run can be replayed in isolation. The
    tie-break stream is derived only when clustering reads it.

    Receipts depend on the seed, the run index and the fleet only, so a sweep
    samples them once per run index and passes them as ``receipts`` to every
    scheme it runs there; they must be the ones this run would sample itself,
    which it does when none are given. A sweep likewise hands over the
    ``block`` that seeded its streams in advance; the streams are the same.
    """
    timing = timing or TimingConfig()
    seed = config.seed
    if receipts is None:
        receipts = sample_initial_receipts(
            config.num_uavs, config.num_packets, config.delivery_rate,
            core.stream(seed, run_index, "bs-delivery", block=block),
        )
    num_clusters = clusters_for_scheme(config)
    tie_break = (
        core.stream(seed, run_index, "tie-break", block=block)
        if reads_tie_break(num_clusters) else None
    )
    assignment = cluster_network(receipts, num_clusters, tie_break)
    results = []
    for cluster_id, group in enumerate(assignment.members):
        # The backoff stream is seeded just now and dropped after the exchange,
        # so its draw source starts empty and never writes back.
        backoff = core.stream(seed, run_index, f"backoff/{cluster_id}", block=block)
        results.append(
            run_cluster_exchange(
                group,
                {u: receipts[u] for u in group},
                timing,
                config.scheme,
                Pcg64Draws.fresh(backoff.bit_generator),
                trace=trace,
                cluster_id=cluster_id,
            )
        )
    return RunResult.from_clusters(results)
