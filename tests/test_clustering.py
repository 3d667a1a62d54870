"""Clustering behaviour: worked examples, invariants, and oracle equivalence."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uavex import clustering
from uavex.clustering import (
    InfeasibleClusterCount,
    cluster_network,
    hamming_distance,
    initialize_clusters,
    merge_iteration,
    reads_tie_break,
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
WALKTHROUGH_MASKS = [v.mask for v in WALKTHROUGH_VECTORS]


def iv(*bits):
    return IndicatorVector(tuple(bits))


def mask(*bits):
    return iv(*bits).mask


def random_masks(rng, num_uavs, num_packets):
    return [mask(*rng.integers(0, 2, num_packets)) for _ in range(num_uavs)]


def feasible_counts(num_uavs):
    """Every cluster count ``cluster_network`` accepts for a fleet of ``num_uavs``."""
    return [n for n in range(1, num_uavs + 1) if n == 1 or n % 2 == 0 or n + 1 <= num_uavs]


class TestHammingDistance:
    def test_worked_example(self):
        assert hamming_distance(mask(1, 0, 0, 1, 0, 0), mask(0, 1, 0, 0, 1, 0)) == 4

    def test_zero_on_identical(self):
        m = mask(1, 0, 1, 1, 0, 0)
        assert hamming_distance(m, m) == 0

    def test_maximal(self):
        assert hamming_distance(IndicatorVector.ones(6).mask, 0) == 6

    def test_symmetric_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = iv(*rng.integers(0, 2, 8))
            b = iv(*rng.integers(0, 2, 8))
            assert hamming_distance(a.mask, b.mask) == hamming_distance(b.mask, a.mask)
            assert hamming_distance(a.mask, b.mask) == ref_hamming(a.bits, b.bits)

    @given(
        st.integers(1, 80).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(0, 1), min_size=n, max_size=n)] * 2)
        )
    )
    def test_matches_reference_across_word_sizes(self, pair):
        # Lengths 1..80 span 64 bits, where a fixed-width mask would wrap.
        a, b = (tuple(bits) for bits in pair)
        assert hamming_distance(IndicatorVector(a).mask, IndicatorVector(b).mask) == ref_hamming(a, b)


class TestInitializeClusters:
    def test_walkthrough_min_pair_seeds_first_clusters(self):
        # Exhaustive check of all six pairwise distances picks the unique
        # minimum-distance pair, which must seed the two clusters.
        dists = {
            (i, j): hamming_distance(WALKTHROUGH_MASKS[i], WALKTHROUGH_MASKS[j])
            for i in range(4)
            for j in range(i + 1, 4)
        }
        expected_pair = min(dists, key=lambda p: (dists[p], p))
        members, pool = initialize_clusters(WALKTHROUGH_MASKS, 2, stream(0, 0, "tie-break"))
        assert members == [[expected_pair[0]], [expected_pair[1]]]
        assert expected_pair == (0, 1)  # frozen from the exhaustive enumeration
        assert pool == [2, 3]

    def test_two_uavs_two_clusters(self):
        members, pool = initialize_clusters([mask(1, 0), mask(0, 1)], 2, stream(0, 0, "tie-break"))
        assert sorted(m[0] for m in members) == [0, 1]
        assert pool == []

    def test_odd_target_returns_one_seed_to_pool(self):
        rng = np.random.default_rng(1)
        masks = random_masks(rng, 5, 6)
        members, pool = initialize_clusters(masks, 3, stream(0, 0, "tie-break"))
        assert len(members) == 3
        assert all(len(m) == 1 for m in members)
        assert len(pool) == 2
        seeds = {m[0] for m in members}
        assert seeds.isdisjoint(pool)
        assert seeds | set(pool) == set(range(5))

    def test_odd_drop_returns_to_its_sorted_place(self):
        # Pairs (0, 2) and (1, 4) tie at distance 0 and are extracted in that
        # order, leaving UAV 3; whichever seed drops goes back in order.
        masks = [mask(1, 1, 0), mask(0, 0, 1), mask(1, 1, 0), mask(1, 0, 1), mask(0, 0, 1)]
        pools = set()
        for k in range(40):
            members, pool = initialize_clusters(masks, 3, stream(3, k, "tie-break"))
            (dropped,) = set(pool) - {3}
            assert [m[0] for m in members] == [s for s in (0, 2, 1, 4) if s != dropped]
            assert pool == sorted(pool)
            pools.add(tuple(pool))
        assert pools == {(0, 3), (2, 3), (1, 3), (3, 4)}

    def test_odd_drop_is_uniform_over_seeds(self):
        # With four identical masks every seed is equally likely to drop.
        masks = [mask(1, 0, 1)] * 4
        drops = []
        for k in range(400):
            members, pool = initialize_clusters(masks, 3, stream(17, k, "tie-break"))
            (dropped,) = pool  # seed order is 0,1,2,3; exactly one returns
            drops.append(dropped)
        counts = np.bincount(drops, minlength=4)
        assert counts.min() > 50  # roughly uniform over the four seeds

    def test_infeasible_counts(self):
        with pytest.raises(InfeasibleClusterCount):
            initialize_clusters([mask(1, 0)] * 4, 5, stream(0, 0, "tie-break"))
        with pytest.raises(InfeasibleClusterCount):
            # Odd target needs one extra seed beyond the fleet size.
            initialize_clusters([mask(1, 0)] * 3, 3, stream(0, 0, "tie-break"))
        with pytest.raises(InfeasibleClusterCount):
            # Seeding one cluster extracts a pair too, unlike cluster_network's one cluster.
            initialize_clusters([mask(1, 0)], 1, stream(0, 0, "tie-break"))


class TestMergeIteration:
    def _singletons(self, masks, seeds):
        return [[s] for s in seeds], [masks[s] for s in seeds]

    def test_each_cluster_gains_one_with_big_pool(self):
        rng = np.random.default_rng(2)
        masks = random_masks(rng, 8, 6)
        members, cluster_masks = self._singletons(masks, [0, 1, 2])
        pool = [3, 4, 5, 6, 7]
        assert merge_iteration(members, cluster_masks, pool, masks) is None
        assert all(len(m) == 2 for m in members)
        assert len(pool) == 2
        assert pool == sorted(pool)
        for group, cluster_mask in zip(members, cluster_masks):
            assert cluster_mask == masks[group[0]] | masks[group[1]]

    def test_pool_exhausts_mid_round(self):
        rng = np.random.default_rng(3)
        masks = random_masks(rng, 5, 6)
        members, cluster_masks = self._singletons(masks, [0, 1, 2])
        pool = [3, 4]
        merge_iteration(members, cluster_masks, pool, masks)
        assert sorted(len(m) for m in members) == [1, 2, 2]
        assert pool == []

    def test_picks_most_distant_uav(self):
        masks = [
            mask(1, 0, 0, 1, 0, 0),  # the lone cluster
            mask(0, 1, 0, 0, 1, 0),  # distance 4
            mask(1, 0, 0, 0, 0, 0),  # distance 1
        ]
        members, pool = [[0]], [1, 2]
        merge_iteration(members, [masks[0]], pool, masks)
        assert members[0] == [0, 1]
        assert pool == [2]

    def test_distances_use_round_start_vectors(self):
        # Two clusters, two pool UAVs. Cluster 0 absorbs UAV 2 first; if its
        # updated mask were read again, UAV 3 would look closer to cluster 0
        # than it does against the round-start mask.
        masks = [
            mask(0, 0, 0, 0),  # cluster 0 seed
            mask(1, 1, 1, 0),  # cluster 1 seed
            mask(1, 1, 1, 1),  # picked first by cluster 0 (distance 4)
            mask(1, 1, 0, 0),  # then cluster 1 must take this one
        ]
        members, cluster_masks = [[0], [1]], [masks[0], masks[1]]
        merge_iteration(members, cluster_masks, [2, 3], masks)
        assert members == [[0, 2], [1, 3]]
        assert cluster_masks[0] == mask(1, 1, 1, 1)
        assert cluster_masks[1] == mask(1, 1, 1, 0)

    def test_requires_non_empty_pool(self):
        with pytest.raises(ValueError):
            merge_iteration([[0]], [mask(1, 0)], [], [mask(1, 0)])


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

    @pytest.mark.parametrize("num_clusters", [1, 2, 3])
    @pytest.mark.parametrize("lengths, message", [
        ((6, 5, 5, 5), "length mismatch: 6 vs 5"),
        ((6, 6, 7, 6), "length mismatch: 6 vs 7"),
        ((3, 3, 3, 4, 2), "length mismatch: 3 vs 4"),
    ])
    def test_mixed_lengths_raise_for_every_count(self, num_clusters, lengths, message):
        vectors = [IndicatorVector.ones(n) for n in lengths]
        with pytest.raises(ValueError) as raised:
            cluster_network(vectors, num_clusters, stream(0, 0, "tie-break"))
        assert str(raised.value) == message

    @pytest.mark.parametrize("num_clusters", [1, 2, 3, 4])
    def test_empty_fleet_is_infeasible_for_every_count(self, num_clusters):
        with pytest.raises(InfeasibleClusterCount,
                           match=f"^cannot form {num_clusters} clusters from 0 UAVs$"):
            cluster_network([], num_clusters, stream(0, 0, "tie-break"))

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
        masks = random_masks(rng, 12, 10)
        members, pool = initialize_clusters(masks, 4, stream(0, 0, "tie-break"))
        cluster_masks = [masks[m[0]] for m in members]
        while pool:
            before = list(cluster_masks)
            merge_iteration(members, cluster_masks, pool, masks)
            for old, new in zip(before, cluster_masks):
                assert old & ~new == 0  # no held packet is lost

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

    @pytest.mark.parametrize("num_packets", [1, 2, 3])
    def test_oracle_equivalence_where_distances_tie(self, num_packets):
        # With at most 3 packets every distance lies in 0..3, so most pairs
        # tie and the scan order alone decides the seeds and the picks.
        rng = np.random.default_rng(11 + num_packets)
        for num_uavs in range(2, 21):
            bits = [tuple(int(b) for b in rng.integers(0, 2, num_packets)) for _ in range(num_uavs)]
            vectors = [IndicatorVector(b) for b in bits]
            for n in feasible_counts(num_uavs):
                def tie_break():
                    return stream(12, num_uavs, "tie-break") if reads_tie_break(n) else None

                ours = cluster_network(vectors, n, tie_break())
                ref_members, ref_vectors = brute_force_cluster(bits, n, tie_break())
                assert [list(m) for m in ours.members] == ref_members, (num_uavs, n)
                assert [v.bits for v in ours.cluster_vectors] == ref_vectors, (num_uavs, n)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_oracle_equivalence_wide_fleets(self, data):
        # Up to 24 UAVs and 130 packets, so masks wider than 64 bits take part.
        num_uavs = data.draw(st.integers(2, 24), label="U")
        num_packets = data.draw(st.integers(1, 130), label="M")
        masks = data.draw(st.lists(st.integers(0, (1 << num_packets) - 1),
                                   min_size=num_uavs, max_size=num_uavs), label="masks")
        n = data.draw(st.sampled_from(feasible_counts(num_uavs)), label="N")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        vectors = [IndicatorVector.from_mask(mask, num_packets) for mask in masks]

        def tie_break():
            return stream(seed, 0, "tie-break") if reads_tie_break(n) else None

        ours = cluster_network(vectors, n, tie_break())
        ref_members, ref_vectors = brute_force_cluster([v.bits for v in vectors], n, tie_break())
        assert [list(m) for m in ours.members] == ref_members
        assert [v.bits for v in ours.cluster_vectors] == ref_vectors


class TestValidate:
    """``validate`` refuses assignments whose masks disagree with their members."""

    @staticmethod
    def fleet_and_assignment():
        vectors = sample_initial_receipts(9, 6, 0.5, np.random.default_rng(12))
        assignment = cluster_network(vectors, 3, stream(0, 0, "tie-break"))
        assignment.validate(vectors)
        return vectors, assignment

    def test_wrong_member_or_is_refused(self):
        vectors, assignment = self.fleet_and_assignment()
        masks = list(assignment.cluster_masks)
        assert masks[1] != 0
        masks[1] &= masks[1] - 1  # drop the cluster's lowest held packet
        broken = replace(assignment, cluster_masks=tuple(masks))
        with pytest.raises(AssertionError,
                           match="^stored cluster vector differs from member OR$"):
            broken.validate(vectors)

    def test_mask_wider_than_num_packets_is_refused(self):
        vectors, assignment = self.fleet_and_assignment()
        masks = list(assignment.cluster_masks)
        masks[2] |= 1 << assignment.num_packets
        broken = replace(assignment, cluster_masks=tuple(masks))
        with pytest.raises(AssertionError, match="^cluster mask does not fit 6 packets$"):
            broken.validate(vectors)

    def test_num_packets_other_than_the_fleet_vector_length_is_refused(self):
        # Every mask fits 5 packets and equals its members' OR, but the
        # fleet's vectors hold 4: full_cluster_count() would read 0, not 2.
        vectors = [IndicatorVector.ones(4)] * 4
        assignment = cluster_network(vectors, 2, None)
        assignment.validate(vectors)
        broken = replace(assignment, num_packets=5)
        with pytest.raises(AssertionError, match="^a fleet vector of length 4 differs "
                                                 "from num_packets 5$"):
            broken.validate(vectors)


class TestDistanceCount:
    """Each ``cluster_network`` call evaluates a closed-form number of distances."""

    @staticmethod
    def closed_form(num_uavs, num_clusters):
        # C(p, 2) per seed-pair extraction from a pool of p (an odd count
        # extracts one pair more than it keeps), then every open cluster
        # against every pool UAV per merge pick; a pick closes one of each.
        if num_clusters == 1:
            return 0
        need = num_clusters + num_clusters % 2
        evals = sum(comb(num_uavs - 2 * i, 2) for i in range(need // 2))
        pool = num_uavs - num_clusters
        while pool:
            picks = min(num_clusters, pool)
            evals += sum((num_clusters - j) * (pool - j) for j in range(picks))
            pool -= picks
        return evals

    def test_every_feasible_count_up_to_thirty_uavs(self, monkeypatch):
        calls = 0
        original = clustering.hamming_distance

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(clustering, "hamming_distance", counted)
        rng = np.random.default_rng(9)
        for num_uavs in range(2, 31):
            vectors = sample_initial_receipts(num_uavs, 10, 0.6, rng)
            for n in feasible_counts(num_uavs):
                calls = 0
                cluster_network(vectors, n, stream(10, num_uavs, "tie-break"))
                assert calls == self.closed_form(num_uavs, n), (num_uavs, n)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 130).flatmap(lambda m: st.tuples(st.just(m), st.lists(
        st.one_of(st.just((1 << m) - 1), st.integers(0, (1 << m) - 1)),
        min_size=1, max_size=12))))
    @example((100, [(1 << 100) - 1, 5, (1 << 99) | 3]))
    def test_count_matches_the_vectors_built_on_read(self, fleet):
        num_packets, masks = fleet
        vectors = [IndicatorVector.from_mask(m, num_packets) for m in masks]
        for n in feasible_counts(len(vectors)):
            assignment = cluster_network(vectors, n, stream(0, n, "tie-break"))
            built = assignment.cluster_vectors
            assert [v.mask for v in built] == list(assignment.cluster_masks)
            assert all(v.length == num_packets for v in built)
            assert assignment.full_cluster_count() == sum(v.is_full() for v in built)
