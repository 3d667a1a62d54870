"""Clustering behaviour: worked examples, invariants, and oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavex.clustering import (
    InfeasibleClusterCount,
    cluster_network,
    hamming_distance,
    initialize_clusters,
    merge_iteration,
)
from uavex.core import IndicatorVector, stream
from uavex.simulator import sample_initial_receipts

from reference import brute_force_cluster, hamming as ref_hamming

# Four-UAV holdings used by the clustering walkthrough.
WALKTHROUGH_VECTORS = [
    IndicatorVector((1, 1, 1, 1, 1, 0)),
    IndicatorVector((0, 1, 1, 1, 1, 1)),
    IndicatorVector((0, 0, 1, 0, 1, 0)),
    IndicatorVector((1, 1, 0, 1, 0, 1)),
]


def iv(*bits):
    return IndicatorVector(tuple(bits))


class TestHammingDistance:
    def test_worked_example(self):
        assert hamming_distance(iv(1, 0, 0, 1, 0, 0), iv(0, 1, 0, 0, 1, 0)) == 4

    def test_zero_on_identical(self):
        v = iv(1, 0, 1, 1, 0, 0)
        assert hamming_distance(v, v) == 0

    def test_maximal(self):
        assert hamming_distance(IndicatorVector.ones(6), IndicatorVector.from_mask(0, 6)) == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(iv(1, 0), iv(1, 0, 0))

    def test_symmetric_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = iv(*rng.integers(0, 2, 8))
            b = iv(*rng.integers(0, 2, 8))
            assert hamming_distance(a, b) == hamming_distance(b, a)
            assert hamming_distance(a, b) == ref_hamming(a.bits, b.bits)

    @given(
        st.integers(1, 80).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(0, 1), min_size=n, max_size=n)] * 2)
        )
    )
    def test_matches_reference_across_word_sizes(self, pair):
        # Lengths 1..80 span 64 bits, where a fixed-width mask would wrap.
        a, b = (tuple(bits) for bits in pair)
        assert hamming_distance(IndicatorVector(a), IndicatorVector(b)) == ref_hamming(a, b)


class TestInitializeClusters:
    def test_walkthrough_min_pair_seeds_first_clusters(self):
        # Exhaustive check of all six pairwise distances picks the unique
        # minimum-distance pair, which must seed the two clusters.
        dists = {
            (i, j): hamming_distance(WALKTHROUGH_VECTORS[i], WALKTHROUGH_VECTORS[j])
            for i in range(4)
            for j in range(i + 1, 4)
        }
        expected_pair = min(dists, key=lambda p: (dists[p], p))
        members, pool = initialize_clusters(WALKTHROUGH_VECTORS, 2, stream(0, 0, "tie-break"))
        assert members == [[expected_pair[0]], [expected_pair[1]]]
        assert expected_pair == (0, 1)  # frozen from the exhaustive enumeration
        assert pool == {2, 3}

    def test_two_uavs_two_clusters(self):
        vectors = [iv(1, 0), iv(0, 1)]
        members, pool = initialize_clusters(vectors, 2, stream(0, 0, "tie-break"))
        assert sorted(m[0] for m in members) == [0, 1]
        assert pool == set()

    def test_odd_target_returns_one_seed_to_pool(self):
        rng = np.random.default_rng(1)
        vectors = [iv(*rng.integers(0, 2, 6)) for _ in range(5)]
        members, pool = initialize_clusters(vectors, 3, stream(0, 0, "tie-break"))
        assert len(members) == 3
        assert all(len(m) == 1 for m in members)
        assert len(pool) == 2
        seeds = {m[0] for m in members}
        assert seeds.isdisjoint(pool)
        assert seeds | pool == set(range(5))

    def test_odd_drop_is_uniform_over_seeds(self):
        # With four identical vectors every seed is equally likely to drop.
        vectors = [iv(1, 0, 1)] * 4
        drops = []
        for k in range(400):
            members, pool = initialize_clusters(vectors, 3, stream(17, k, "tie-break"))
            (dropped,) = pool  # seed order is 0,1,2,3; exactly one returns
            drops.append(dropped)
        counts = np.bincount(drops, minlength=4)
        assert counts.min() > 50  # roughly uniform over the four seeds

    def test_infeasible_counts(self):
        vectors = [iv(1, 0)] * 4
        with pytest.raises(InfeasibleClusterCount):
            initialize_clusters(vectors, 5, stream(0, 0, "tie-break"))
        with pytest.raises(InfeasibleClusterCount):
            # Odd target needs one extra seed beyond the fleet size.
            initialize_clusters([iv(1, 0)] * 3, 3, stream(0, 0, "tie-break"))


class TestMergeIteration:
    def _singletons(self, vectors, seeds):
        return [[s] for s in seeds], [vectors[s] for s in seeds]

    def test_each_cluster_gains_one_with_big_pool(self):
        rng = np.random.default_rng(2)
        vectors = [iv(*rng.integers(0, 2, 6)) for _ in range(8)]
        members, cluster_vectors = self._singletons(vectors, [0, 1, 2])
        new_members, _, pool = merge_iteration(
            members, cluster_vectors, {3, 4, 5, 6, 7}, vectors
        )
        assert all(len(m) == 2 for m in new_members)
        assert len(pool) == 2

    def test_pool_exhausts_mid_round(self):
        rng = np.random.default_rng(3)
        vectors = [iv(*rng.integers(0, 2, 6)) for _ in range(5)]
        members, cluster_vectors = self._singletons(vectors, [0, 1, 2])
        new_members, _, pool = merge_iteration(members, cluster_vectors, {3, 4}, vectors)
        assert sorted(len(m) for m in new_members) == [1, 2, 2]
        assert pool == set()

    def test_picks_most_distant_uav(self):
        vectors = [
            iv(1, 0, 0, 1, 0, 0),  # the lone cluster
            iv(0, 1, 0, 0, 1, 0),  # distance 4
            iv(1, 0, 0, 0, 0, 0),  # distance 1
        ]
        members, vecs, pool = merge_iteration([[0]], [vectors[0]], {1, 2}, vectors)
        assert members[0] == [0, 1]
        assert pool == {2}

    def test_distances_use_round_start_vectors(self):
        # Two clusters, two pool UAVs. Cluster 0 absorbs UAV 2 first; if its
        # vector updated immediately, UAV 3 would look closer to cluster 0
        # than it does against the round-start vector.
        vectors = [
            iv(0, 0, 0, 0),  # cluster 0 seed
            iv(1, 1, 1, 0),  # cluster 1 seed
            iv(1, 1, 1, 1),  # picked first by cluster 0 (distance 4)
            iv(1, 1, 0, 0),  # then cluster 1 must take this one
        ]
        members, vecs, _ = merge_iteration(
            [[0], [1]], [vectors[0], vectors[1]], {2, 3}, vectors
        )
        assert members == [[0, 2], [1, 3]]
        assert vecs[0] == iv(1, 1, 1, 1)
        assert vecs[1] == iv(1, 1, 1, 0)

    def test_requires_non_empty_pool(self):
        with pytest.raises(ValueError):
            merge_iteration([[0]], [iv(1, 0)], set(), [iv(1, 0)])


class TestClusterNetwork:
    def test_walkthrough_partition(self):
        # Golden value computed with the straight-line reference; also
        # recomputed live so the two implementations stay in lockstep.
        assignment = cluster_network(WALKTHROUGH_VECTORS, 2, stream(0, 0, "tie-break"))
        assert assignment.members == ((0, 2), (1, 3))
        assert sorted(len(m) for m in assignment.members) == [2, 2]
        ref_members, ref_vectors = brute_force_cluster(
            [v.bits for v in WALKTHROUGH_VECTORS], 2, stream(0, 0, "tie-break")
        )
        assert [list(m) for m in assignment.members] == ref_members
        assert [v.bits for v in assignment.cluster_vectors] == ref_vectors

    def test_single_cluster_short_circuit(self):
        assignment = cluster_network(WALKTHROUGH_VECTORS, 1, stream(0, 0, "tie-break"))
        assert assignment.members == ((0, 1, 2, 3),)
        assert assignment.cluster_vectors[0].is_full()

    @staticmethod
    def or_fold(vectors):
        combined = vectors[0]
        for v in vectors[1:]:
            combined = combined | v
        return combined

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 130).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=25))))
    def test_single_cluster_union_equals_the_or_fold(self, fleet):
        num_packets, masks = fleet
        vectors = [IndicatorVector.from_mask(mask, num_packets) for mask in masks]
        assignment = cluster_network(vectors, 1, None)
        assert assignment.members == (tuple(range(len(vectors))),)
        assert assignment.cluster_vectors == (self.or_fold(vectors),)
        assignment.validate(vectors)

    @pytest.mark.parametrize("lengths, message", [
        ((6, 5), "length mismatch: 6 vs 5"),
        ((6, 6, 7), "length mismatch: 6 vs 7"),
        ((3, 3, 3, 4, 2), "length mismatch: 3 vs 4"),
    ])
    def test_single_cluster_of_mixed_lengths_raises_as_the_or_fold(self, lengths, message):
        vectors = [IndicatorVector.ones(n) for n in lengths]
        with pytest.raises(ValueError) as folded:
            self.or_fold(vectors)
        with pytest.raises(ValueError) as united:
            cluster_network(vectors, 1, None)
        assert str(united.value) == str(folded.value) == message

    def test_determinism(self):
        rng = np.random.default_rng(4)
        vectors = [iv(*rng.integers(0, 2, 8)) for _ in range(9)]
        first = cluster_network(vectors, 3, stream(5, 0, "tie-break"))
        second = cluster_network(vectors, 3, stream(5, 0, "tie-break"))
        assert first == second

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(150):
            num_uavs = int(rng.integers(2, 31))
            num_packets = int(rng.integers(1, 17))
            rho = float(rng.uniform(0.3, 0.9))
            vectors = sample_initial_receipts(num_uavs, num_packets, rho, rng)
            while True:
                n = int(rng.integers(1, num_uavs + 1))
                if n == 1 or n % 2 == 0 or n + 1 <= num_uavs:
                    break
            assignment = cluster_network(vectors, n, stream(6, trial, "tie-break"))
            assignment.validate(vectors)

    def test_monotone_union_across_rounds(self):
        rng = np.random.default_rng(6)
        vectors = [iv(*rng.integers(0, 2, 10)) for _ in range(12)]
        members, pool = initialize_clusters(vectors, 4, stream(0, 0, "tie-break"))
        cluster_vectors = [vectors[m[0]] for m in members]
        while pool:
            new_members, new_vectors, pool = merge_iteration(
                members, cluster_vectors, pool, vectors
            )
            for old, new in zip(cluster_vectors, new_vectors):
                assert all(n >= o for o, n in zip(old.bits, new.bits))
            members, cluster_vectors = new_members, new_vectors

    def test_oracle_equivalence_small_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            num_uavs = int(rng.integers(2, 7))
            num_packets = int(rng.integers(1, 7))
            vectors = sample_initial_receipts(
                num_uavs, num_packets, float(rng.uniform(0.2, 0.9)), rng
            )
            while True:
                n = int(rng.integers(1, num_uavs + 1))
                if n == 1 or n % 2 == 0 or n + 1 <= num_uavs:
                    break
            ours = cluster_network(vectors, n, stream(8, trial, "tie-break"))
            ref_members, ref_vectors = brute_force_cluster(
                [v.bits for v in vectors], n, stream(8, trial, "tie-break")
            )
            assert [list(m) for m in ours.members] == ref_members
            assert [v.bits for v in ours.cluster_vectors] == ref_vectors


class TestFullSetRate:
    """Share of clusters whose combined holdings are complete."""

    def test_direct_count(self):
        rng = np.random.default_rng(8)
        vectors = [iv(*rng.integers(0, 2, 4)) for _ in range(6)]
        assignment = cluster_network(vectors, 2, stream(0, 0, "tie-break"))
        expected = sum(1 for v in assignment.cluster_vectors if all(v.bits))
        assert assignment.full_cluster_count() == expected

    def test_all_full(self):
        vectors = [IndicatorVector.ones(4) for _ in range(4)]
        assignment = cluster_network(vectors, 2, stream(0, 0, "tie-break"))
        assert assignment.full_cluster_count() == assignment.num_clusters == 2

    def test_delivery_rate_one_always_full(self):
        vectors = [IndicatorVector.ones(5) for _ in range(8)]
        assignments = [
            cluster_network(vectors, n, stream(0, 0, "tie-break")) for n in (1, 2, 4)
        ]
        assert all(a.full_cluster_count() == a.num_clusters for a in assignments)
