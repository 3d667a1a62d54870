"""Deterministic simulation of the in-cluster exchange, one contention round at a time.

One exchange simulates one cluster's shared channel in integer microseconds.
Clusters sit on disjoint channels, so a scenario run simulates them
independently and reports the per-cluster maxima.

The channel resolves one contention round at a time: it idles for DIFS, then
the shortest pending draw transmits. While no request is outstanding, UAVs
with request draws contend. A clean request makes every other UAV that can
supply some of it draw a reply backoff, and only those repliers contend until
one reply gets through. Draws are never counted down: a pending request draw
is held at its full value until the transaction closes with a reply (or, when
nobody can supply anything, with a timeout after DIFS plus a full window of
silence), and then contends again, whole, in the next round. Equal shortest
draws collide: all their frames are lost and the colliders redraw within
their current subwindows, in order of (frame end, uav), once the last frame
has ended.

A cluster's exchange is one loop over parallel int lists indexed by position
in the sorted member list (holdings and given-up packets as bitmasks, request
draws with 0 for none, and the open request's repliers and reply draws). The
loop keeps the clock, picks the transmitters from plain ints, takes frame air
times from a table built once per (packet count, timing) pair, and records the
trace only when a trace list is given; each protocol rule is one ``protocol``
call per channel event (first draws, clean request, clean reply, collision,
timeout). A member whose request draw is 0 once a transaction has closed wants
nothing more: it is done, and no longer contends for requests, though it keeps
answering them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import core  # core.stream is read at call time, so rebinding it reaches every call
from .clustering import cluster_network, reads_tie_break
from .core import IndicatorVector, Rng, ScenarioConfig, Scheme, UavId, mask_packets
from .mac import Pcg64Draws, TimingConfig, frame_duration
from .protocol import (
    TraceRecord,
    absorb_reply,
    first_draws,
    open_request,
    redraw_colliders,
    time_out,
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
        exchanges = delay = 0
        completed = True
        for r in results:
            if r.exchange_count > exchanges:
                exchanges = r.exchange_count
            if r.delay_us > delay:
                delay = r.delay_us
            completed = completed and r.completed
        return cls(results, exchanges, delay, completed)

    @property
    def full_cluster_fraction(self) -> float:
        """Fraction of clusters that finished with every member complete."""
        return sum(r.completed for r in self.cluster_results) / len(self.cluster_results)


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
    return IndicatorVector._from_masks(
        [int.from_bytes(raw[u * width:(u + 1) * width], "little") for u in range(num_uavs)],
        num_packets,
    )


def run_cluster_exchange(
    members: Sequence[UavId],
    holdings: Mapping[UavId, IndicatorVector] | Sequence[IndicatorVector],
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng | Pcg64Draws,
    trace: list[TraceRecord] | None = None,
    cluster_id: int = 0,
) -> ClusterResult:
    """Simulate one cluster's channel until every member is done.

    ``holdings[u]`` is member u's vector, from a mapping or a sequence.
    Members that cannot complete (their cluster holds no copy of a wanted
    packet) end by declaring those packets unobtainable; that is reported in
    the result, not raised. Draws come from ``rng`` as given: a ``Pcg64Draws``
    through its raw-word step, anything else, a plain ``Generator`` included,
    through its own ``integers``, so a ``Generator`` ends where numpy's draws
    leave it.
    """
    return _run_exchange(members, holdings, timing, scheme, rng, trace, cluster_id)[0]


def _run_exchange(
    members: Sequence[UavId],
    holdings: Mapping[UavId, IndicatorVector] | Sequence[IndicatorVector],
    timing: TimingConfig,
    scheme: Scheme,
    rng: Rng | Pcg64Draws,
    trace: list[TraceRecord] | None = None,
    cluster_id: int = 0,
) -> tuple[ClusterResult, list[int]]:
    """``run_cluster_exchange``, plus each member's final held mask in sorted member order."""
    if not members:
        raise ValueError("cluster must have at least one member")
    order = sorted(members)
    num_packets = len(holdings[order[0]])
    # Equal stakes share a subwindow, so colliders separate only if each
    # subwindow offers at least two values: floor(kW/M) - floor((k-1)W/M)
    # >= floor(W/M) >= 2 once W >= 2M. Narrower windows can livelock.
    min_window = 2 * num_packets
    if timing.cw_total_us < min_window:
        raise ValueError(
            f"contention window of {timing.cw_total_us} us is too short for "
            f"{num_packets} packets: cw_total_us must be at least {min_window}"
        )
    # Draws end at cw_total_us + 1 and must fit numpy's int64 bounded draw.
    if timing.cw_total_us >= 1 << 63:
        raise ValueError(
            f"contention window of {timing.cw_total_us} us is too long: "
            f"cw_total_us must be below 2**63"
        )
    held = [holdings[u].mask for u in order]
    return _exchange(order, held, num_packets, timing, scheme.uses_priority_backoff,
                     rng, trace, cluster_id), held


@lru_cache(maxsize=64)
def _air_times(num_packets: int, timing: TimingConfig) -> tuple[int, ...]:
    """Frame air time indexed by data packets carried: entry 0 is a request, k a k-packet reply."""
    return tuple(frame_duration(k, timing) for k in range(num_packets + 1))


def _exchange(
    order: list[UavId], held: list[int], num_packets: int, timing: TimingConfig,
    priority: bool, rng: Rng | Pcg64Draws, trace: list[TraceRecord] | None, cluster_id: int,
) -> ClusterResult:
    """Run contention rounds until every member is done; ``held`` is updated in place.

    Each clean exchange shrinks the total wanted count and each timeout
    retires its requester, so only collisions repeat a round; with every
    subwindow at least two values wide, colliders separate eventually.
    """
    n = len(order)
    full = (1 << num_packets) - 1
    difs, window = timing.difs_us, timing.cw_total_us
    air = _air_times(num_packets, timing)
    request_air = air[0]
    gone = [0] * n
    requests = first_draws(held, full, num_packets, window, priority, rng)
    now = finish = exchanges = collisions = 0
    done = requests.count(0)
    if trace is not None:
        live = [i for i in range(n) if requests[i]]
        for i in range(n):
            if not requests[i]:
                trace.append(TraceRecord(0, order[i], "done", (), None, cluster_id))
    while done < n:
        shortest = min(filter(None, requests))
        now += difs + shortest
        tied = requests.count(shortest)
        if tied > 1:
            collisions += 1
            winners = [requests.index(shortest)]
            while len(winners) < tied:
                winners.append(requests.index(shortest, winners[-1] + 1))
            frames = [full & ~(held[i] | gone[i]) for i in winners]
            if trace is not None:
                trace.append(TraceRecord(now, order[winners[1]], "collision",
                                         mask_packets(frames[1]), None, cluster_id))
            now += request_air  # request frames all end together: colliders redraw in uav order
            redraw_colliders(requests, winners, frames, num_packets, window, priority, rng)
            continue
        requester = requests.index(shortest)
        requests[requester] = 0
        asked = full & ~(held[requester] | gone[requester])
        now += request_air
        if trace is not None:
            trace.append(TraceRecord(now, order[requester], "request", mask_packets(asked),
                                     None, cluster_id))
        repliers, draws = open_request(held, asked, num_packets, window, priority, rng)
        if repliers:
            while True:
                shortest = min(draws)
                now += difs + shortest
                if draws.count(shortest) == 1:
                    break
                collisions += 1
                colliders = [k for k, draw in enumerate(draws) if draw == shortest]
                frames = [asked & held[repliers[k]] for k in colliders]
                if trace is not None:
                    trace.append(TraceRecord(now, order[repliers[colliders[1]]], "collision",
                                             mask_packets(frames[1]), None, cluster_id))
                ends = sorted(
                    (now + air[frame.bit_count()], k, frame)
                    for k, frame in zip(colliders, frames)
                )
                now = ends[-1][0]
                redraw_colliders(draws, [k for _, k, _ in ends], [f for _, _, f in ends],
                                 num_packets, window, priority, rng)
            sender = repliers[draws.index(shortest)]
            supply = asked & held[sender]
            now += air[supply.bit_count()]
            exchanges += 1
            if trace is not None:
                trace.append(TraceRecord(now, order[sender], "reply", mask_packets(supply),
                                         order[requester], cluster_id))
            absorb_reply(held, gone, requests, requester, supply, full, num_packets, window,
                         priority, rng)
        else:
            now += difs + window
            time_out(gone, requester, asked)
            if trace is not None:
                trace.append(TraceRecord(now, order[requester], "unobtainable",
                                         mask_packets(asked), None, cluster_id))
        retired = requests.count(0)
        if retired > done:
            done, finish = retired, now
            if trace is not None:
                for i in live:
                    if not requests[i]:
                        trace.append(TraceRecord(now, order[i], "done", (), None, cluster_id))
                live = [i for i in live if requests[i]]
    unobtainable = 0
    for mask in gone:
        unobtainable |= mask
    return ClusterResult(exchanges, finish, held.count(full) == n, collisions,
                         frozenset(mask_packets(unobtainable)))


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
        # The backoff stream is seeded just now and drawn only through this source.
        backoff = core.stream(seed, run_index, f"backoff/{cluster_id}", block=block)
        results.append(run_cluster_exchange(
            group, receipts, timing, config.scheme, Pcg64Draws(backoff.bit_generator),
            trace, cluster_id,
        ))
    return RunResult.from_clusters(results)
