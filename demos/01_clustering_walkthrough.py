"""Cluster a small fleet by packet holdings and watch the stages work.

UAVs that hold near-identical packet sets cannot repair each other, so the
initialization splits the most-similar pair into different clusters, and the
merging rounds then pull in whichever pool UAV is most *different* from each
cluster's combined holdings.

The stages work on holdings masks (one int per UAV, bit m for packet m), so
the walkthrough hands them each vector's ``.mask``; ``cluster_network`` takes
the vectors themselves and returns each cluster's combined holdings as a mask,
building the combined vectors only when ``cluster_vectors`` is read. The pool
of unassigned UAVs is one ascending list, and a merging round updates the
member lists, the cluster masks and the pool in place.
"""

import numpy as np

from uavex import IndicatorVector, cluster_network, stream
from uavex.clustering import hamming_distance, initialize_clusters, merge_iteration

fleet = [
    IndicatorVector((1, 1, 1, 1, 1, 0)),
    IndicatorVector((0, 1, 1, 1, 1, 1)),
    IndicatorVector((0, 0, 1, 0, 1, 0)),
    IndicatorVector((1, 1, 0, 1, 0, 1)),
]

masks = [v.mask for v in fleet]
print("pairwise Hamming distances:")
for i in range(len(fleet)):
    for j in range(i + 1, len(fleet)):
        print(f"  uav{i} vs uav{j}: {hamming_distance(masks[i], masks[j])}")

members, pool = initialize_clusters(masks, 2, stream(0, 0, "tie-break"))
print(f"\nseeds after pair extraction: {members}, pool: {pool}")

cluster_masks = [masks[m[0]] for m in members]
merge_iteration(members, cluster_masks, pool, masks)
print(f"after one merging round (pool now {pool}):")
for n, (group, mask) in enumerate(zip(members, cluster_masks)):
    bits = IndicatorVector.from_mask(mask, 6).bits
    print(f"  cluster {n}: members {group}, combined holdings {bits}")

assignment = cluster_network(fleet, 2, stream(0, 0, "tie-break"))
print(f"\nfinal partition: {assignment.members}")
print(f"full clusters: {assignment.full_cluster_count()} of {assignment.num_clusters}")

# A bigger random fleet: complement-driven grouping vs what chance would give.
rng = np.random.default_rng(1)
big_fleet = [
    IndicatorVector(tuple(int(b) for b in rng.random(6) < 0.7)) for _ in range(10)
]
assignment = cluster_network(big_fleet, 3, stream(0, 0, "tie-break"))
print("\n10-UAV fleet at delivery rate 0.7, 3 clusters:")
for n, (group, vector) in enumerate(zip(assignment.members, assignment.cluster_vectors)):
    full = "complete" if vector.is_full() else "incomplete"
    print(f"  cluster {n}: {group} -> {full}")
