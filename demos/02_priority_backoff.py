"""See how the subwindow layout turns need into channel priority.

The 9207 us contention window is cut into M equal subwindows. A node with m
relevant packets draws inside subwindow M - m + 1, so whoever has the most
lost packets (or can supply the most) always fires first; a plain CSMA node
draws anywhere in the window.
"""

import numpy as np

from uavex import stream
from uavex.mac import Pcg64Draws, draw_backoff, draw_baseline_backoff, draw_bounds, subwindow_bounds

M = 6
WINDOW = 9207
BOUNDS = draw_bounds(M, WINDOW)  # draw range [low, high) per relevant-packet count

print(f"window {WINDOW} us over {M} subwindows:")
for m_lost in range(M, 0, -1):
    k = M - m_lost + 1
    lo, hi = subwindow_bounds(M, k, WINDOW)
    print(f"  {m_lost} relevant packets -> subwindow {k}: ({lo:>5}, {hi:>5}] us")

rng = Pcg64Draws(stream(0, 0, "demo").bit_generator)  # the draw source the engine takes
print("\n2000 draws per class, observed ranges:")
for m_lost in (6, 3, 1):
    draws = [draw_backoff(*BOUNDS[m_lost], rng) for _ in range(2000)]
    print(f"  m={m_lost}: min {min(draws):>5}, mean {np.mean(draws):7.1f}, max {max(draws):>5}")
baseline = [draw_baseline_backoff(1, WINDOW + 1, rng) for _ in range(2000)]
print(f"  plain: min {min(baseline):>5}, mean {np.mean(baseline):7.1f}, max {max(baseline):>5}")

print("\npriority is strict, not just statistical:")
needy = max(draw_backoff(*BOUNDS[4], rng) for _ in range(1000))
casual = min(draw_backoff(*BOUNDS[2], rng) for _ in range(1000))
print(f"  worst draw with 4 lost packets:  {needy} us")
print(f"  best draw with 2 lost packets:   {casual} us")
