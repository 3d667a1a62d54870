"""Quick self-contained invariant battery behind the ``selftest`` subcommand.

Each check prints one PASS/FAIL line. These are smoke-level versions of the
full test suite, runnable without pytest in a deployed environment.
"""

from __future__ import annotations

import numpy as np

from .clustering import cluster_network
from .core import IndicatorVector, Scheme, stream
from .mac import TimingConfig, draw_backoff, subwindow_bounds
from .simulator import run_cluster_exchange, sample_initial_receipts


def _check_indicator_algebra(rng: np.random.Generator) -> bool:
    for _ in range(200):
        m = int(rng.integers(1, 20))
        a = IndicatorVector(tuple(int(b) for b in rng.integers(0, 2, m)))
        b = IndicatorVector(tuple(int(b) for b in rng.integers(0, 2, m)))
        if a | b != b | a:
            return False
        if a | a != a:
            return False
        if any(x < y for x, y in zip((a | b).bits, a.bits)):
            return False
    return True


def _check_subwindow_tiling() -> bool:
    for num_packets in range(1, 33):
        for window in (num_packets, 257, 9207):
            if window < num_packets:
                continue
            covered = []
            for k in range(1, num_packets + 1):
                lo, hi = subwindow_bounds(num_packets, k, window)
                covered.extend(range(lo + 1, hi + 1))
            if covered != list(range(1, window + 1)):
                return False
    return True


def _check_priority_ordering(rng: np.random.Generator) -> bool:
    window = TimingConfig().cw_total_us
    for _ in range(10_000):
        m = int(rng.integers(2, 17))
        a, b = sorted(rng.choice(np.arange(1, m + 1), size=2, replace=False))
        low = draw_backoff(m, int(b), window, rng)  # larger stake, earlier window
        high = draw_backoff(m, int(a), window, rng)
        if not low < high:
            return False
    return True


def _check_clustering_invariants(rng: np.random.Generator) -> bool:
    for trial in range(200):
        num_uavs = int(rng.integers(2, 31))
        num_packets = int(rng.integers(1, 17))
        rho = float(rng.uniform(0.3, 0.9))
        receipts = sample_initial_receipts(num_uavs, num_packets, rho, rng)
        while True:
            n = int(rng.integers(1, num_uavs + 1))
            if n == 1 or n % 2 == 0 or n + 1 <= num_uavs:
                break
        assignment = cluster_network(receipts, n, stream(7, trial, "tie-break"))
        try:
            assignment.validate(receipts)
        except AssertionError:
            return False
        replay = cluster_network(receipts, n, stream(7, trial, "tie-break"))
        if replay != assignment:
            return False
    return True


def _check_protocol_invariants(rng: np.random.Generator) -> bool:
    timing = TimingConfig()
    for trial in range(100):
        num_uavs = int(rng.integers(1, 9))
        num_packets = int(rng.integers(1, 9))
        rho = float(rng.uniform(0.2, 0.95))
        scheme = Scheme.MECHANISM_ONLY if trial % 2 == 0 else Scheme.BASELINE_CSMA
        receipts = sample_initial_receipts(num_uavs, num_packets, rho, rng)
        holdings = dict(enumerate(receipts))
        initial_missing = sum(num_packets - v.popcount() for v in receipts)
        result = run_cluster_exchange(
            list(range(num_uavs)), holdings, timing, scheme,
            stream(11, trial, "backoff/0"),
        )
        if result.exchange_count > initial_missing:
            return False
        union = receipts[0]
        for v in receipts[1:]:
            union = union | v
        if result.completed != union.is_full():
            return False
    return True


def run_all(seed: int = 0) -> int:
    """Run every check; returns the number of failures."""
    rng = np.random.default_rng(seed)
    checks = [
        ("indicator-vector algebra", lambda: _check_indicator_algebra(rng)),
        ("subwindow tiling", _check_subwindow_tiling),
        ("backoff priority ordering", lambda: _check_priority_ordering(rng)),
        ("clustering invariants", lambda: _check_clustering_invariants(rng)),
        ("exchange invariants", lambda: _check_protocol_invariants(rng)),
    ]
    failures = 0
    for name, check in checks:
        ok = check()
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        failures += 0 if ok else 1
    return failures
