"""The invariant checks behind ``uavex selftest`` and acceptance criteria 6-8.

Each checker draws its instances from the generator it is given, checks them,
and raises ``AssertionError`` naming the first instance that fails. The
acceptance tests call them at full size and compare the instances that the
clustering and exchange checkers return with independent oracles;
``run_all`` calls them at smoke size, without pytest.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .clustering import ClusterAssignment, InfeasibleClusterCount, _check_feasible, cluster_network
from .core import IndicatorVector, Scheme, UavId, stream
from .mac import Pcg64Draws, TimingConfig, draw_backoff, draw_bounds, lent_draws, subwindow_bounds
from .protocol import TraceRecord
from .simulator import ClusterResult, _run_exchange, sample_initial_receipts


class ClusteringCase(NamedTuple):
    """One checked fleet, clustered with the tie-break stream ``stream(trial, 0, "tie-break")``."""

    trial: int
    vectors: list[IndicatorVector]
    num_clusters: int
    assignment: ClusterAssignment


class ExchangeCase(NamedTuple):
    """One checked single-cluster exchange: its inputs, trace, result and final holdings."""

    holdings: dict[UavId, IndicatorVector]
    trace: list[TraceRecord]
    result: ClusterResult
    final: dict[UavId, IndicatorVector]


def check_indicator_algebra(rng: np.random.Generator, pairs: int) -> None:
    """OR is commutative and idempotent and never clears a bit, on random vector pairs."""
    for trial in range(pairs):
        m = int(rng.integers(1, 20))
        a = IndicatorVector(tuple(int(b) for b in rng.integers(0, 2, m)))
        b = IndicatorVector(tuple(int(b) for b in rng.integers(0, 2, m)))
        where = f"pair {trial} ({a.bits} | {b.bits})"
        if a | b != b | a:
            raise AssertionError(f"{where}: OR is not commutative")
        if a | a != a:
            raise AssertionError(f"{where}: OR is not idempotent")
        if (a | b).mask & a.mask != a.mask:
            raise AssertionError(f"{where}: OR cleared a bit")


def check_subwindow_tiling(max_packets: int) -> None:
    """Subwindows 1..M are non-empty, ordered and tile (0, W] for M = 1..max_packets.

    The windows are W = M, 1023 and 9207 us, where at least M.
    """
    for num_packets in range(1, max_packets + 1):
        for window in (num_packets, 1023, 9207):
            if window < num_packets:
                continue
            edge = 0
            for k in range(1, num_packets + 1):
                lo, hi = subwindow_bounds(num_packets, k, window)
                if not lo == edge < hi:
                    raise AssertionError(
                        f"M={num_packets}, W={window}: subwindow {k} is ({lo}, {hi}], "
                        f"expected a non-empty range from {edge}"
                    )
                edge = hi
            if edge != window:
                raise AssertionError(f"M={num_packets}, W={window}: subwindows end at {edge}")


def check_backoff_priority(rng: np.random.Generator, pairs: int) -> None:
    """A larger stake always draws a strictly shorter backoff, on random stake pairs.

    Each pair draws through a ``Pcg64Draws`` lent over ``rng`` and handed
    back, so ``rng`` stands where numpy's own draws would leave it.
    """
    window = TimingConfig().cw_total_us
    for trial in range(pairs):
        m = int(rng.integers(2, 17))
        low, high = sorted(rng.choice(np.arange(1, m + 1), size=2, replace=False))
        bounds = draw_bounds(m, window)
        with lent_draws(rng) as draws:
            eager, lazy = draw_backoff(*bounds[high], draws), draw_backoff(*bounds[low], draws)
        if not eager < lazy:
            raise AssertionError(
                f"pair {trial} (M={m}): stake {high} drew {eager} us, "
                f"not below stake {low}'s {lazy} us"
            )


def _feasible_cluster_count(rng: np.random.Generator, num_uavs: int) -> int:
    while True:
        n = int(rng.integers(1, num_uavs + 1))
        try:
            _check_feasible(num_uavs, n)
        except InfeasibleClusterCount:
            continue
        return n


def check_clustering(rng: np.random.Generator, fleets: int) -> list[ClusteringCase]:
    """Partition, balance, cluster-vector and replay invariants on random fleets.

    Returns every fleet checked, in order.
    """
    cases = []
    for trial in range(fleets):
        num_uavs = int(rng.integers(2, 31))
        num_packets = int(rng.integers(1, 17))
        rho = float(rng.uniform(0.3, 0.9))
        vectors = sample_initial_receipts(num_uavs, num_packets, rho, rng)
        n = _feasible_cluster_count(rng, num_uavs)
        where = f"fleet {trial} (U={num_uavs}, M={num_packets}, N={n})"
        assignment = cluster_network(vectors, n, stream(trial, 0, "tie-break"))
        try:
            assignment.validate(vectors)
        except AssertionError as exc:
            raise AssertionError(f"{where}: {exc}") from None
        if cluster_network(vectors, n, stream(trial, 0, "tie-break")) != assignment:
            raise AssertionError(f"{where}: clustering is not deterministic")
        cases.append(ClusteringCase(trial, vectors, n, assignment))
    return cases


def check_exchanges(rng: np.random.Generator, clusters: int) -> list[ExchangeCase]:
    """Termination, exchange-count, holdings and completion invariants on random clusters.

    Each cluster runs the schemes in turn, drawing through a ``Pcg64Draws``
    over the stream ``stream(trial, 1, "backoff/0")`` as a scenario run
    does. Returns every exchange checked, in order.
    """
    timing = TimingConfig()
    schemes = (Scheme.MECHANISM_ONLY, Scheme.BASELINE_CSMA, Scheme.PROPOSED)
    cases = []
    for trial in range(clusters):
        num_uavs = int(rng.integers(1, 9))
        num_packets = int(rng.integers(1, 9))
        rho = float(rng.uniform(0.2, 0.95))
        scheme = schemes[trial % 3]
        receipts = sample_initial_receipts(num_uavs, num_packets, rho, rng)
        holdings = dict(enumerate(receipts))
        where = f"cluster {trial} (U={num_uavs}, M={num_packets}, {scheme.value})"
        trace: list[TraceRecord] = []
        backoff = Pcg64Draws(stream(trial, 1, "backoff/0").bit_generator)
        result, held = _run_exchange(  # termination: the exchange returned
            list(holdings), holdings, timing, scheme, backoff, trace=trace
        )
        initial_missing = sum(num_packets - v.popcount() for v in receipts)
        if result.exchange_count > initial_missing:
            raise AssertionError(
                f"{where}: {result.exchange_count} exchanges for {initial_missing} missing packets"
            )
        final = {u: IndicatorVector.from_mask(m, num_packets) for u, m in zip(holdings, held)}
        if any(holdings[u].mask & ~final[u].mask for u in holdings):
            raise AssertionError(f"{where}: holdings shrank")
        full_union = all(any(v.mask >> p & 1 for v in receipts) for p in range(num_packets))
        if result.completed != full_union:
            raise AssertionError(
                f"{where}: completed={result.completed}, but full union={full_union}"
            )
        cases.append(ExchangeCase(holdings, trace, result, final))
    return cases


def run_all(seed: int = 0) -> int:
    """Run every check at smoke size, printing one PASS/FAIL line each; returns the failures."""
    rng = np.random.default_rng(seed)
    checks = (
        ("indicator-vector algebra", lambda: check_indicator_algebra(rng, 200)),
        ("subwindow tiling", lambda: check_subwindow_tiling(32)),
        ("backoff priority ordering", lambda: check_backoff_priority(rng, 10_000)),
        ("clustering invariants", lambda: check_clustering(rng, 200)),
        ("exchange invariants", lambda: check_exchanges(rng, 100)),
    )
    failures = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL: {name}: {exc}")
            failures += 1
        else:
            print(f"PASS: {name}")
    return failures
