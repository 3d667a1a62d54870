"""Complement-driven clustering of UAVs by packet holdings.

The grouping goal is the opposite of classic similarity clustering: UAVs whose
holdings differ the most can repair each other, so near-duplicates seed
*different* clusters and each cluster greedily absorbs the most-distant
remaining UAV, one per cluster per round, which keeps cluster sizes within one
of each other.

The stages run on holdings masks (one int per UAV, bit m for packet m). The
entry point ``cluster_network`` takes ``IndicatorVector``s and returns each
cluster's combined holdings as a mask.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .core import IndicatorVector, InfeasibleClusterCount, Rng, UavId, check_cluster_count


def hamming_distance(a: int, b: int) -> int:
    """Number of packets held by exactly one of two holdings masks."""
    return (a ^ b).bit_count()


@dataclass(frozen=True)
class ClusterAssignment:
    """A partition of UAV ids into clusters plus each cluster's combined holdings.

    members[n] lists cluster n's UAVs in join order; cluster_masks[n] is the
    OR of all member masks, a mask of num_packets bits. The vectors in
    ``cluster_vectors`` are built on first read.
    """

    members: tuple[tuple[UavId, ...], ...]
    cluster_masks: tuple[int, ...]
    num_packets: int

    @property
    def num_clusters(self) -> int:
        return len(self.members)

    @cached_property
    def cluster_vectors(self) -> tuple[IndicatorVector, ...]:
        return tuple(IndicatorVector._from_masks(self.cluster_masks, self.num_packets))

    def full_cluster_count(self) -> int:
        return self.cluster_masks.count((1 << self.num_packets) - 1)

    def validate(self, vectors: Sequence[IndicatorVector]) -> None:
        """Check the partition, balance, and mask-consistency invariants."""
        seen: list[UavId] = [u for group in self.members for u in group]
        if sorted(seen) != list(range(len(vectors))):
            raise AssertionError("members do not form a partition of all UAVs")
        sizes = [len(group) for group in self.members]
        if max(sizes) - min(sizes) > 1:
            raise AssertionError(f"cluster sizes {sizes} differ by more than 1")
        for vector in vectors:
            if vector.length != self.num_packets:
                raise AssertionError(f"a fleet vector of length {vector.length} differs "
                                     f"from num_packets {self.num_packets}")
        for group, cluster_mask in zip(self.members, self.cluster_masks):
            if not 0 <= cluster_mask < 1 << self.num_packets:
                raise AssertionError(f"cluster mask does not fit {self.num_packets} packets")
            combined = 0
            for u in group:
                combined |= vectors[u].mask
            if combined != cluster_mask:
                raise AssertionError("stored cluster vector differs from member OR")


def reads_tie_break(num_clusters: int) -> bool:
    """Whether ``cluster_network`` reads its tie-break stream: only for an odd count above 1."""
    return num_clusters > 1 and num_clusters % 2 == 1


def _check_feasible(num_uavs: int, num_clusters: int) -> None:
    # N must lie in [1, U]; above 1, seeds come in pairs, so an odd N needs a spare UAV.
    check_cluster_count(num_uavs, num_clusters)
    if reads_tie_break(num_clusters) and num_clusters == num_uavs:
        raise InfeasibleClusterCount(
            f"odd cluster count {num_clusters} needs {num_clusters + 1} seed UAVs, "
            f"got {num_uavs}"
        )


def initialize_clusters(
    masks: Sequence[int], num_clusters: int, rng: Rng
) -> tuple[list[list[UavId]], list[UavId]]:
    """Seed the clusters by repeatedly extracting minimum-distance UAV pairs.

    ``masks[u]`` is UAV u's holdings mask. The two UAVs of each extracted pair
    become two singleton clusters (similar UAVs must end up apart). Pair
    extraction always removes an even number of UAVs, so an odd target first
    extracts one extra seed and then returns one of them, chosen uniformly at
    random, to the pool.

    Returns the singleton member lists and the unassigned UAVs in ascending
    order. Pairs are scanned in that order, so the first strict minimum is
    the lexicographically smallest pair at the minimum distance.
    """
    _check_feasible(len(masks), num_clusters)
    need = num_clusters if num_clusters % 2 == 0 else num_clusters + 1
    if need > len(masks):  # N = 1, exempt from the rule as cluster_network never seeds it
        raise InfeasibleClusterCount(f"odd cluster count 1 needs 2 seed UAVs, got {len(masks)}")
    pool = list(range(len(masks)))
    seeds: list[UavId] = []
    while len(seeds) < need:
        # Not itertools.combinations, which copies the pool into a tuple: a
        # 20-element one would pile up on CPython 3.11's free list (see _everyone).
        best_dist = float("inf")
        for a, i in enumerate(pool):
            mask_i = masks[i]
            for j in pool[a + 1:]:
                d = hamming_distance(mask_i, masks[j])
                if d < best_dist:
                    best_i, best_j, best_dist = i, j, d
        pool.remove(best_i)
        pool.remove(best_j)
        seeds.extend((best_i, best_j))
    if num_clusters % 2 == 1:
        insort(pool, seeds.pop(int(rng.integers(0, len(seeds)))))
    return [[s] for s in seeds], pool


def merge_iteration(
    members: list[list[UavId]],
    cluster_masks: list[int],
    pool: list[UavId],
    masks: Sequence[int],
) -> None:
    """One merging round, in place: every cluster absorbs at most one pool UAV.

    Each pick takes the cluster-UAV pair with the *largest* Hamming distance
    (lexicographically smallest pair on ties: clusters and the ascending
    ``pool`` are scanned in order and the first strict maximum wins), removes
    the UAV from ``pool``, appends it to the cluster's members and ORs its mask
    into the cluster's. Distances read each cluster's mask as it stood when
    the round began, so earlier picks do not skew later ones: a cluster's
    mask changes only with its own pick, which closes it for the round.
    """
    if not pool:
        raise ValueError("pool must be non-empty")
    open_clusters = list(range(len(members)))
    while open_clusters and pool:
        best_dist = -1
        for n in open_clusters:
            cluster_mask = cluster_masks[n]
            for i in pool:
                d = hamming_distance(cluster_mask, masks[i])
                if d > best_dist:
                    best_n, best_i, best_dist = n, i, d
        open_clusters.remove(best_n)
        pool.remove(best_i)
        members[best_n].append(best_i)
        cluster_masks[best_n] |= masks[best_i]


@lru_cache(maxsize=64)
def _everyone(num_uavs: int) -> tuple[UavId, ...]:
    """The single cluster's members, built once per fleet size and shared by every N = 1 call."""
    # CPython 3.11 pushes a freed 20-element tuple onto its free list but never
    # pops one from it, so a fresh tuple(range(20)) per call would pile up there.
    return tuple(range(num_uavs))


def cluster_network(
    vectors: Sequence[IndicatorVector], num_clusters: int, rng: Rng | None
) -> ClusterAssignment:
    """Partition all UAVs into the requested number of clusters.

    Deterministic for a fixed (vectors, num_clusters, rng stream); the stream
    is consumed only for the odd-count seed drop, so it may be None whenever
    ``reads_tie_break(num_clusters)`` is false. A single-cluster request
    short-circuits to "everyone together", which is what the no-clustering
    exchange variants use. ``InfeasibleClusterCount`` reads "cannot form N clusters
    from U UAVs" for every count outside [1, U], and an odd count above 1 also
    needs a spare seed UAV. Vectors of unequal lengths raise ``ValueError``.
    """
    if rng is None and reads_tie_break(num_clusters):
        raise ValueError(f"clustering into {num_clusters} clusters needs a tie-break stream")
    _check_feasible(len(vectors), num_clusters)
    length, masks = vectors[0].length, []
    for v in vectors:
        if v.length != length:
            raise ValueError(f"length mismatch: {length} vs {v.length}")
        masks.append(v.mask)
    if num_clusters == 1:
        union = 0
        for mask in masks:
            union |= mask
        return ClusterAssignment((_everyone(len(vectors)),), (union,), length)
    members, pool = initialize_clusters(masks, num_clusters, rng)
    cluster_masks = [masks[group[0]] for group in members]
    while pool:
        merge_iteration(members, cluster_masks, pool, masks)
    # A tuple built from a generator is allocated at a guessed length and then
    # resized, so it is freed onto another length's free list than the one it
    # came from; built from a list, it takes and returns the same slot.
    return ClusterAssignment(
        tuple([tuple(group) for group in members]), tuple(cluster_masks), length
    )
