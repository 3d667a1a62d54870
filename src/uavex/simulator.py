"""Deterministic simulation of the in-cluster exchange, one contention round at a time.

One exchange simulates one cluster's shared channel in integer microseconds.
Clusters sit on disjoint channels, so a scenario run simulates them
independently and reports the per-cluster maxima.

Requests and replies contend by one rule. Each round the channel idles for
DIFS, then the shortest draw of the contending list transmits: the request
draws while no request is open, the open request's reply draws otherwise.
Equal shortest draws collide, requests and replies alike: all their frames
are lost and the colliders redraw within their current subwindows, in order
of (frame end, uav), once the last frame has ended. A clean request makes
every other UAV that can supply some of it draw a reply backoff, or, when
nobody can, times out after DIFS plus a full window of silence; a clean reply
closes the transaction. Draws are never counted down: a pending request draw
is held at its full value until the transaction closes, and then contends
again, whole, in the next round.

A cluster's exchange is one loop over parallel int lists indexed by position in
the sorted member list: holdings as bitmasks, request and reply draws with 0
for none. The loop keeps the clock, picks the transmitters from plain ints,
takes frame air times from a table built once per (packet count, preamble,
payload) and draw ranges from one built once per (packet count, window), takes
in each reply's packets, and records the trace only when a trace list is given.
Every draw follows ``protocol.stake_draws``, called once per channel event to
write its draws in place: the first draws and a clean request over every
member, a collision over its colliders, and a clean reply over the members that
gained packets while holding a request draw, then the requester. Whenever no
request is open, a member whose request draw is 0 wants nothing more: it is
done from then on, and no longer contends for requests, though it keeps
answering them. So is a member whose request nobody could supply: it asked for
every packet it lacks, and no member holds any.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import core  # core.stream is read at call time, so rebinding it reaches every call
from .clustering import cluster_network, reads_tie_break
from .core import IndicatorVector, Rng, ScenarioConfig, Scheme, UavId, mask_packets
from .mac import DrawBounds, Pcg64Draws, TimingConfig, draw_bounds, frame_duration
from .protocol import TraceRecord, stake_draws

_DEFAULT_TIMING = TimingConfig()  # one shared instance for every run given no timing


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster's exchange.

    ``unobtainable`` is the packets no member held (each timeout asks for all
    of them).
    """

    exchange_count: int
    delay_us: int
    collision_count: int
    unobtainable: frozenset[int] = frozenset()

    @property
    def completed(self) -> bool:
        """``not unobtainable``: no request timed out, so every member holds every packet."""
        return not self.unobtainable


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run: the per-cluster results, and the figures derived from them.

    Clusters exchange in parallel on disjoint channels, so the slowest,
    busiest cluster determines the figures reported for the whole network.
    """

    cluster_results: tuple[ClusterResult, ...]

    def __post_init__(self) -> None:
        if not self.cluster_results:
            raise ValueError("a run has at least one cluster result")

    @property
    def reported_exchanges(self) -> int:
        """The most exchanges any cluster made."""
        return max(r.exchange_count for r in self.cluster_results)

    @property
    def reported_delay_us(self) -> int:
        """The longest cluster delay: when the last cluster finished."""
        return max(r.delay_us for r in self.cluster_results)

    @property
    def all_completed(self) -> bool:
        """Whether every cluster finished with every member complete."""
        return all(r.completed for r in self.cluster_results)

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
    # A member whose vector has another length drops out here, and the count shows it.
    held = [v.mask for u in order if (v := holdings[u]).length == num_packets]
    if len(held) < len(order) or len(set(order)) < len(order):
        raise ValueError(f"cluster members {order} must be distinct and hold vectors of "
                         f"one length, got lengths {[holdings[u].length for u in order]}")
    bounds = draw_bounds(num_packets, timing.cw_total_us) if scheme.uses_priority_backoff else None
    return _exchange(order, held, num_packets, timing, bounds, rng, trace, cluster_id), held


@lru_cache(maxsize=64)  # int keys hash and compare faster than a TimingConfig
def _air_times(num_packets: int, preamble_us: int, payload_us_per_packet: int) -> tuple[int, ...]:
    """Frame air time indexed by data packets carried: entry 0 is a request, k a k-packet reply."""
    timing = TimingConfig(preamble_us=preamble_us, payload_us_per_packet=payload_us_per_packet)
    return tuple(frame_duration(k, timing) for k in range(num_packets + 1))


def _exchange(
    order: list[UavId], held: list[int], num_packets: int, timing: TimingConfig,
    bounds: DrawBounds | None, rng: Rng | Pcg64Draws, trace: list[TraceRecord] | None,
    cluster_id: int,
) -> ClusterResult:
    """Run contention rounds until every member is done; ``held`` is updated in place.

    Each round is one contention step over ``contending``, one draw per
    member with 0 for none, in ``bounds`` (``None``: plain CSMA): the request
    draws while no request is open (``asked`` is 0), the reply draws for the
    open request's packets ``asked`` otherwise. Only collisions repeat a round
    (clean exchanges shrink the wanted count, timeouts retire requesters), and
    colliders separate in subwindows two or more values wide.

    A streak of collision rounds longer than ``(b + 1) * (60 + s)``, with b
    the bit length of n and s that of 2n(M + 1), raises ``RuntimeError``: a
    uniform draw source gets that far with probability below 2**-60 per
    exchange, so the source is faulty. The derivation:

    - Held draws never change during a streak, and colliders redraw in their
      own subwindow, so only the g <= n members drawing in the lowest
      occupied subwindow (plain CSMA: the whole window) can collide until the
      streak ends. That subwindow holds w >= 2 values, since W >= 2M.
    - At w = 2 the members that did not collide all hold the upper value. Of
      k colliders, Binomial(k, 1/2) redraw the lower one: one ends the
      streak, j >= 2 collide again, and none leaves all g tied on the upper
      one. From any k, this chain survives b + 1 more rounds with
      probability below 0.34, and wider subwindows survive less. Both are
      computed exactly in ``TestCollisionStreakCap``: the chain for every
      g < 256, the wider subwindows for g <= 4 and widths 3 to 6.
    - So a streak outlasts 60 + s blocks of b + 1 rounds with probability
      below 2**-(60 + s). Each streak ends in a clean round, and there are
      fewer than 2**s of those: at most nM replies, each handing its
      requester a packet it lacked, as many requests answered, and n
      timeouts.
    """
    n = len(order)
    full = (1 << num_packets) - 1
    difs, window = timing.difs_us, timing.cw_total_us
    air = _air_times(num_packets, timing.preamble_us, timing.payload_us_per_packet)
    cap = (n.bit_length() + 1) * (60 + (2 * n * (num_packets + 1)).bit_length())
    everyone = live = range(n)
    contending = requests = [0] * n
    replies = [0] * n
    stake_draws(held, everyone, full, full, bounds, window, rng, requests)
    now = finish = exchanges = collisions = streak = done = asked = unobtainable = 0
    while True:
        if not asked:
            # No request is open: a member without a request draw wants nothing more.
            retired = requests.count(0)
            if retired > done:
                done, finish = retired, now
                if trace is not None:
                    trace.extend(TraceRecord(now, order[i], "done", (), None, cluster_id)
                                 for i in live if not requests[i])
                    live = [i for i in live if requests[i]]
                if done == n:
                    break
        shortest = min(filter(None, contending))
        now += difs + shortest
        if contending.count(shortest) == 1:
            streak = 0  # a short branch: its jump fits one byte, so 3.11 specializes the test
        else:
            # All frames are lost. Request frames carry no data and end together;
            # colliders redraw in (frame end, position) order once the last has ended.
            collisions += 1
            streak += 1
            if streak > cap:
                raise RuntimeError(f"{streak} collision rounds in a row, past the cap of {cap}: "
                                   "the draw source is not uniform")
            colliders = [i for i, draw in enumerate(contending) if draw == shortest]
            flip, keep = (0, asked) if asked else (full, full)
            if trace is not None:
                trace.append(TraceRecord(now, order[colliders[1]], "collision",
                                         mask_packets((held[colliders[1]] ^ flip) & keep), None,
                                         cluster_id))
            if not asked:
                now += air[0]
            else:
                ends = sorted((now + air[(asked & held[i]).bit_count()], i) for i in colliders)
                now = ends[-1][0]
                colliders = [i for _, i in ends]
            stake_draws(held, colliders, flip, keep, bounds, window, rng, contending)
            continue
        if not asked:
            requester = contending.index(shortest)
            requests[requester] = 0
            asked = full & ~held[requester]
            now += air[0]
            if trace is not None:
                trace.append(TraceRecord(now, order[requester], "request", mask_packets(asked),
                                         None, cluster_id))
            stake_draws(held, everyone, 0, asked, bounds, window, rng, replies)
            contending = replies
            if any(replies):
                continue
            now += difs + window
            unobtainable |= asked
            if trace is not None:
                trace.append(TraceRecord(now, order[requester], "unobtainable",
                                         mask_packets(asked), None, cluster_id))
        else:
            sender = contending.index(shortest)
            supply = asked & held[sender]
            now += air[supply.bit_count()]
            exchanges += 1
            if trace is not None:
                trace.append(TraceRecord(now, order[sender], "reply", mask_packets(supply),
                                         order[requester], cluster_id))
            # Every member takes in the reply, and the other reply draws lapse with the
            # request. A member that gained packets while holding a request draw wants
            # fewer, so it redraws (0 once it wants nothing); then the requester draws.
            redraw = []
            for i, mask in enumerate(held):
                if (gained := mask | supply) != mask:  # 3.11 specializes this compare
                    held[i] = gained
                    if requests[i]:
                        redraw.append(i)
            redraw.append(requester)
            stake_draws(held, redraw, full, full, bounds, window, rng, requests)
        contending, asked = requests, 0
    if not unobtainable:  # the default: one empty frozenset for every completed exchange
        return ClusterResult(exchanges, finish, collisions)
    return ClusterResult(exchanges, finish, collisions, frozenset(mask_packets(unobtainable)))


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
    timing = timing or _DEFAULT_TIMING
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
    return RunResult(tuple(results))
