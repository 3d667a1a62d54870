"""Independent straight-line oracles used by the tests.

Deliberately dumb: plain tuples of bits and sets of packet ids, explicit
nested loops, nothing from the library under test except in the sweep oracles
at the end, which call only its single-run functions. Tie-breaks match the
library's documented rules (lexicographically smallest pair wins), and the
odd-count seed drop consumes exactly one integers(0, n_seeds) draw so a shared
stream stays aligned. The exchange oracle makes one ``rng.integers(lo, hi)``
per backoff draw, in the order the simulator documents.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from uavex.clustering import InfeasibleClusterCount, cluster_network, reads_tie_break
from uavex.core import Scheme, stream
from uavex.experiments import AggregateRow
from uavex.simulator import run_scenario, sample_initial_receipts


def hamming(a, b):
    assert len(a) == len(b)
    count = 0
    for x, y in zip(a, b):
        if x != y:
            count += 1
    return count


def or_bits(a, b):
    return tuple(x | y for x, y in zip(a, b))


def brute_force_cluster(vectors, num_clusters, rng):
    """Literal two-stage clustering: pair-seeded init, then max-distance rounds.

    Returns (members, cluster_vectors) as plain lists/tuples.
    """
    num_uavs = len(vectors)
    if num_clusters == 1:
        union = vectors[0]
        for v in vectors[1:]:
            union = or_bits(union, v)
        return [list(range(num_uavs))], [union]

    # Stage 1: repeatedly extract the minimum-distance pair.
    need = num_clusters if num_clusters % 2 == 0 else num_clusters + 1
    assert need <= num_uavs
    pool = list(range(num_uavs))
    seeds = []
    while len(seeds) < need:
        best_pair = None
        best_dist = None
        for ai in range(len(pool)):
            for bi in range(ai + 1, len(pool)):
                d = hamming(vectors[pool[ai]], vectors[pool[bi]])
                if best_dist is None or d < best_dist:
                    best_pair = (pool[ai], pool[bi])
                    best_dist = d
        seeds.append(best_pair[0])
        seeds.append(best_pair[1])
        pool.remove(best_pair[0])
        pool.remove(best_pair[1])
    if num_clusters % 2 == 1:
        dropped = seeds.pop(int(rng.integers(0, len(seeds))))
        pool.append(dropped)
        pool.sort()

    members = [[s] for s in seeds]
    cluster_vectors = [vectors[s] for s in seeds]

    # Stage 2: merging rounds until the pool is empty.
    while pool:
        open_clusters = list(range(num_clusters))
        start_vectors = list(cluster_vectors)
        joined = []
        while open_clusters and pool:
            best = None
            best_dist = -1
            for n in open_clusters:
                for i in pool:
                    d = hamming(start_vectors[n], vectors[i])
                    if d > best_dist:
                        best = (n, i)
                        best_dist = d
            n_star, i_star = best
            open_clusters.remove(n_star)
            pool.remove(i_star)
            members[n_star].append(i_star)
            joined.append((n_star, i_star))
        for n, i in joined:
            cluster_vectors[n] = or_bits(cluster_vectors[n], vectors[i])
    return members, cluster_vectors


def single_cluster_full_rate(num_uavs, num_packets, delivery_rate):
    """Closed-form chance that every packet lands on at least one UAV."""
    return (1.0 - (1.0 - delivery_rate) ** num_uavs) ** num_packets


def replay_trace(members, holdings, trace):
    """Replay an exchange trace independently, checking the protocol rules.

    Verifies along the way: replies answer the open request with exactly the
    requested packets the sender holds, at most one reply per request, and every completed
    transaction strictly shrinks the cluster's total missing count.

    Returns (final holdings as sets, remaining total missing count).
    """
    current = {u: set(holdings[u].held_packets()) for u in members}
    num_packets = len(holdings[members[0]])
    total_missing = sum(num_packets - len(current[u]) for u in members)
    open_request = None
    replies_per_request = []
    for record in trace:
        if record.event == "request":
            open_request = record
            replies_per_request.append(0)
        elif record.event == "reply":
            assert open_request is not None, "reply without an open request"
            assert record.peer == open_request.uav
            replies_per_request[-1] += 1
            # A reply carries exactly the requested packets its sender holds.
            assert set(record.packets) == set(open_request.packets) & current[record.uav]
            for u in members:
                current[u] |= set(record.packets)
            new_missing = sum(num_packets - len(current[u]) for u in members)
            assert new_missing <= total_missing - 1, "transaction made no progress"
            total_missing = new_missing
            open_request = None
    assert all(n <= 1 for n in replies_per_request), "duplicate reply to one request"
    return current, total_missing


def _backoff_bounds(scheme, num_packets, stake, window):
    """``integers`` bounds of one draw: the stake's subwindow (lo, hi], or the whole window."""
    if scheme == "baseline_csma":
        return 1, window + 1
    k = num_packets - stake + 1
    return (k - 1) * window // num_packets + 1, k * window // num_packets + 1


def reference_exchange(members, holdings, timing, scheme, rng, cluster_id=0):
    """One cluster's exchange, contention round by contention round, from the docs alone.

    Each round the channel idles for DIFS plus the shortest pending draw, and
    every UAV holding that draw transmits: request draws while no request is
    open, otherwise the open request's reply draws. Equal shortest draws
    collide; the colliders redraw in order of (frame end, uav) once the last
    frame ends. A clean request makes every other holder of some of it draw a
    reply (in uav order); a clean reply ends the transaction: every other UAV
    takes the packets in, one that gains packets redraws its request draw (in
    uav order), and then the requester draws again if it still wants packets.
    A request nobody can supply times out after DIFS plus the whole window,
    and its packets are given up. A UAV that wants nothing and holds no draw
    is done.

    Returns ``(exchange_count, delay_us, completed, collision_count,
    unobtainable)`` and the trace as text lines.
    """
    uavs = sorted(members)
    num_packets = len(holdings[uavs[0]])
    every = set(range(num_packets))
    have = {u: set(holdings[u].held_packets()) for u in uavs}
    gone = {u: set() for u in uavs}
    request_draw = {u: None for u in uavs}
    window = timing.cw_total_us
    scheme = getattr(scheme, "value", scheme)
    lines = []
    now = finish = exchanges = collisions = 0

    def wanted(u):
        return every - have[u] - gone[u]

    def draw(stake):
        lo, hi = _backoff_bounds(scheme, num_packets, stake, window)
        return int(rng.integers(lo, hi))

    def log(uav, event, packets=(), peer=None):
        line = f"t={now:>8}us cluster={cluster_id} uav={uav} {event}"
        if packets:
            line += " [" + ",".join(f"w{p + 1}" for p in sorted(packets)) + "]"
        if peer is not None:
            line += f" peer={peer}"
        lines.append(line)

    pending = list(uavs)

    def settle():
        nonlocal pending, finish
        still = []
        for u in pending:
            if request_draw[u] is None and not wanted(u):
                finish = now
                log(u, "done")
            else:
                still.append(u)
        pending = still

    for u in uavs:
        if wanted(u):
            request_draw[u] = draw(len(wanted(u)))
    settle()
    while pending:
        contenders = [u for u in pending if request_draw[u] is not None]
        shortest = min(request_draw[u] for u in contenders)
        now += timing.difs_us + shortest
        winners = [u for u in contenders if request_draw[u] == shortest]
        if len(winners) > 1:
            collisions += 1
            log(winners[1], "collision", wanted(winners[1]))
            now += timing.preamble_us  # request frames all end together
            for u in winners:
                request_draw[u] = draw(len(wanted(u)))
            continue
        requester = winners[0]
        asked = wanted(requester)
        request_draw[requester] = None
        now += timing.preamble_us
        log(requester, "request", asked)
        reply_draw = {}
        for u in uavs:
            if u != requester and have[u] & asked:
                reply_draw[u] = draw(len(have[u] & asked))
        if not reply_draw:
            now += timing.difs_us + window
            gone[requester] |= asked
            log(requester, "unobtainable", asked)
            settle()
            continue
        while True:
            shortest = min(reply_draw.values())
            now += timing.difs_us + shortest
            winners = sorted(u for u in reply_draw if reply_draw[u] == shortest)
            if len(winners) == 1:
                break
            collisions += 1
            log(winners[1], "collision", have[winners[1]] & asked)
            ends = []
            for u in winners:
                air = timing.preamble_us + timing.payload_us_per_packet * len(have[u] & asked)
                ends.append((now + air, u))
            ends.sort()
            now = ends[-1][0]
            for _, u in ends:
                reply_draw[u] = draw(len(have[u] & asked))
        sender = winners[0]
        data = have[sender] & asked
        now += timing.preamble_us + timing.payload_us_per_packet * len(data)
        exchanges += 1
        log(sender, "reply", data, peer=requester)
        for u in uavs:
            if u == sender:
                continue
            gone[u] -= data
            if data - have[u]:
                have[u] |= data
                if request_draw[u] is not None:
                    request_draw[u] = draw(len(wanted(u))) if wanted(u) else None
        if wanted(requester):
            request_draw[requester] = draw(len(wanted(requester)))
        settle()
    unobtainable = set()
    for u in uavs:
        unobtainable |= gone[u]
    completed = all(have[u] == every for u in uavs)
    return (exchanges, finish, completed, collisions, frozenset(unobtainable)), lines


# -- stream positions ---------------------------------------------------------

# Where a stream stands after its draws, told the same way for a Generator and
# for a Pcg64Draws: PCG64's 128-bit state, whether a half-word is pending, and
# that half-word (0 when none is). numpy keeps the last high half in
# ``uinteger`` after using it, but reads it only while ``has_uint32`` is set,
# so that stale value cannot change a draw and is not compared. A Pcg64Draws
# fetches raw words in blocks, so its generator stands past the words it has
# read by the block's whole words still in ``halves``.


def numpy_position(rng):
    """Where a ``Generator`` stands: PCG64's state and numpy's pending half-word."""
    state = rng.bit_generator.state
    pending = state["has_uint32"]
    return state["state"], pending, state["uinteger"] if pending else 0


def source_position(source, bit_generator):
    """Where a ``Pcg64Draws`` over ``bit_generator`` stands, as ``numpy_position`` tells it.

    A copy of the generator's state is rewound by the whole words left in
    ``halves``, so the position counts the words the source has read, not
    those fetched; an odd length leaves the last half pending.
    """
    rewound = np.random.PCG64(0)
    rewound.state = bit_generator.state
    rewound.advance(-(len(source.halves) // 2))
    pending = len(source.halves) & 1
    return rewound.state["state"], pending, source.halves[-1] if pending else 0


def counting_fetches(bit_generator):
    """A stand-in for ``bit_generator`` whose ``random_raw(k)`` calls append k to ``fetched``."""
    fetched, fetch = [], bit_generator.random_raw
    return SimpleNamespace(random_raw=lambda k: fetched.append(k) or fetch(k), fetched=fetched)


# -- per-point sweep loops ---------------------------------------------------
#
# The harness oracles below call the library's single-run functions (streams,
# receipt sampling, clustering, run_scenario) but none of its sweep loops:
# each sweep point runs all of its run indices before the next point starts,
# and every run samples its own receipts.


def per_point_scheme_samples(config, runs, timing=None):
    results = [run_scenario(config, k, timing=timing) for k in range(runs)]
    return {
        "exchanges": [r.reported_exchanges for r in results],
        "delay_us": [r.reported_delay_us for r in results],
        "completed": [r.all_completed for r in results],
        "full_fraction": [r.full_cluster_fraction for r in results],
    }


def per_point_full_set_fractions(config, runs):
    fractions = []
    for k in range(runs):
        receipts = sample_initial_receipts(
            config.num_uavs, config.num_packets, config.delivery_rate,
            stream(config.seed, k, "bs-delivery"),
        )
        tie_break = (
            stream(config.seed, k, "tie-break") if reads_tie_break(config.num_clusters) else None
        )
        assignment = cluster_network(receipts, config.num_clusters, tie_break)
        fractions.append(assignment.full_cluster_count() / assignment.num_clusters)
    return fractions


def _sd(values):
    return float(np.std(values, ddof=1)) if len(values) >= 2 else None


def per_point_compare(spec, timing=None):
    """``compare_schemes`` rows, one scheme's runs after another."""
    rows = []
    for value in spec.values:
        scheme = value if isinstance(value, Scheme) else Scheme(value)
        config = replace(spec.base, scheme=scheme)
        samples = per_point_scheme_samples(config, spec.runs, timing)
        delays = [d for d, done in zip(samples["delay_us"], samples["completed"]) if done]
        rows.append(AggregateRow(
            param=f"rho={config.delivery_rate:g};N={config.num_clusters}",
            scheme=scheme.value,
            mean_exchanges=float(np.mean(np.array(samples["exchanges"], dtype=float))),
            sd_exchanges=_sd(np.array(samples["exchanges"], dtype=float)),
            mean_delay_us=float(np.mean(np.array(delays, dtype=float))) if delays else None,
            sd_delay_us=_sd(np.array(delays, dtype=float)),
            full_set_rate=float(np.mean(np.array(samples["full_fraction"]))),
            completion_rate=float(np.mean(np.array(samples["completed"], dtype=bool))),
            runs=spec.runs,
            seed=config.seed,
        ))
    return rows


def per_point_full_set_rate(spec):
    """``sweep_full_set_rate`` rows and warnings, one cluster count's runs after another."""
    def skipped(tag, exc):
        print(f"warning: skipping {tag}: {exc}", file=sys.stderr)
        return AggregateRow(tag, spec.base.scheme.value, None, None, None, None,
                            None, None, 0, spec.base.seed)

    rows = []
    for value in spec.values:
        tag = f"rho={spec.base.delivery_rate:g};N={int(value)}"
        try:
            config = replace(spec.base, num_clusters=int(value))  # N > U fails here
        except ValueError as exc:
            rows.append(skipped(tag, exc))
            continue
        try:
            fractions = np.array(per_point_full_set_fractions(config, spec.runs))
        except InfeasibleClusterCount as exc:
            rows.append(skipped(tag, exc))
            continue
        rows.append(AggregateRow(
            param=tag, scheme=config.scheme.value, mean_exchanges=None, sd_exchanges=None,
            mean_delay_us=None, sd_delay_us=None,
            full_set_rate=float(fractions.mean()),
            completion_rate=float((fractions == 1.0).mean()),
            runs=spec.runs, seed=config.seed,
        ))
    return rows
