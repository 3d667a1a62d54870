"""Host-speed reference for the timed loop.

The machines this benchmark runs on share their cores with other tenants, and
their speed for single-threaded Python drifts by up to 2x within seconds and
from minute to minute. Each timed pass is therefore followed by this fixed
reference workload, and ``runs_per_s`` is scaled by how long the reference
took next to it compared with ``REFERENCE_S``, its time on a quiet host; each
set-up probe is scaled the same way by a reference run in its own interpreter.
A slowdown of the host stretches both and cancels; a change to uavex moves
only the pass.

The reference does the kinds of work the simulator's hot paths do (tuple and
frozenset building, generator sums over zipped tuples, small dicts and
dataclasses, sorting, numpy generator draws) and imports nothing from uavex,
so no change to the program can change it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Seconds one reference() call takes on a quiet host: 2-core Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6 (the fastest of 200 calls).
REFERENCE_S = 0.031
ROUNDS = 400


@dataclass(frozen=True)
class _Holding:
    owner: int
    bits: tuple[int, ...]


def reference() -> float:
    """Run the fixed reference workload and return its wall seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(1, 2, 3)))
    checksum = 0
    for _ in range(ROUNDS):
        hits = rng.random((6, 10)) < 0.6
        fleet = [_Holding(u, tuple(int(b) for b in row)) for u, row in enumerate(hits)]
        for a in fleet:
            for b in fleet:
                checksum += sum(x != y for x, y in zip(a.bits, b.bits))
        wanted = frozenset(m for m, b in enumerate(fleet[0].bits) if not b)
        stakes = {
            h.owner: len(wanted & frozenset(m for m, b in enumerate(h.bits) if b))
            for h in fleet
        }
        checksum += sorted(stakes.items(), key=lambda kv: -kv[1])[0][1]
        checksum += int(rng.integers(1, 100))
    elapsed = time.perf_counter() - t0
    if checksum <= 0:
        raise AssertionError("reference workload did no work")
    return elapsed
