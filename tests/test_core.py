"""Indicator-vector algebra, config validation, and stream determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavex import core
from uavex.core import (
    IndicatorVector,
    ScenarioConfig,
    Scheme,
    StreamBlock,
    mix_seed_words,
    packet_label,
    packet_mask,
    stream,
)

from reference import or_bits


def iv(*bits):
    return IndicatorVector(tuple(bits))


def missing(v):
    """The packets a vector lacks: the held packets of the full vector, less its own."""
    return IndicatorVector.ones(len(v)).held_packets() - v.held_packets()


def bit_vectors(length):
    return st.tuples(*[st.integers(0, 1)] * length).map(IndicatorVector)


def bit_tuples(length):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length).map(tuple)


# Pairs of equal-length bit tuples; lengths 1..80 span the 64-bit boundary.
bit_tuple_pairs = st.integers(1, 80).flatmap(lambda n: st.tuples(bit_tuples(n), bit_tuples(n)))


def mask_of(bits):
    return sum(b << m for m, b in enumerate(bits))


class TestIndicatorVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IndicatorVector(())

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            IndicatorVector((0, 2, 1))

    def test_from_packets_roundtrip(self):
        v = IndicatorVector.from_mask(packet_mask({0, 3}), 6)
        assert v == iv(1, 0, 0, 1, 0, 0)
        assert v.held_packets() == {0, 3}

    def test_from_packets_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IndicatorVector.from_mask(packet_mask({6}), 6)

    def test_popcount_and_full(self):
        assert iv(1, 0, 1).popcount() == 2
        assert IndicatorVector.ones(4).is_full()
        assert not IndicatorVector.from_mask(0, 4).is_full()


class TestOrUpdate:
    def test_worked_example(self):
        # A cluster holding {w1, w4} absorbing a member holding {w2, w5}.
        merged = iv(1, 0, 0, 1, 0, 0) | iv(0, 1, 0, 0, 1, 0)
        assert merged == iv(1, 1, 0, 1, 1, 0)

    def test_identity_with_zeros(self):
        v = iv(1, 0, 1, 1, 0, 0)
        assert v | IndicatorVector.from_mask(0, 6) == v

    def test_idempotent(self):
        v = iv(1, 0, 1, 1, 0, 0)
        assert v | v == v

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            iv(1, 0) | iv(1, 0, 0)

    @given(bit_vectors(8), bit_vectors(8))
    def test_commutative(self, a, b):
        assert a | b == b | a

    @given(bit_vectors(8), bit_vectors(8), bit_vectors(8))
    def test_associative(self, a, b, c):
        assert (a | b) | c == a | (b | c)

    @given(bit_vectors(8), bit_vectors(8))
    def test_result_dominates_inputs(self, a, b):
        merged = a | b
        assert all(m >= x for m, x in zip(merged.bits, a.bits))
        assert all(m >= y for m, y in zip(merged.bits, b.bits))

    @given(bit_vectors(8), bit_vectors(8))
    def test_or_never_grows_missing(self, a, b):
        assert missing(a | b) <= missing(a)


class TestMissingSet:
    def test_complement(self):
        assert missing(iv(1, 1, 0, 1, 1, 0)) == {2, 5}

    def test_all_ones_and_zeros(self):
        assert missing(IndicatorVector.ones(5)) == set()
        assert missing(IndicatorVector.from_mask(0, 5)) == set(range(5))

    @given(bit_vectors(10))
    def test_partition_of_positions(self, v):
        assert len(missing(v)) + v.popcount() == len(v)


class TestMaskRepresentation:
    """The int bitmask behind IndicatorVector against the tuple oracles."""

    @given(bit_tuple_pairs)
    def test_bits_roundtrip(self, pair):
        bits, _ = pair
        assert IndicatorVector(bits).bits == bits

    @given(bit_tuple_pairs)
    def test_or_matches_reference(self, pair):
        a, b = pair
        assert (IndicatorVector(a) | IndicatorVector(b)).bits == or_bits(a, b)

    @given(bit_tuple_pairs)
    def test_tuple_and_mask_built_vectors_agree(self, pair):
        bits, _ = pair
        from_tuple = IndicatorVector(bits)
        from_mask = IndicatorVector.from_mask(mask_of(bits), len(bits))
        assert from_tuple == from_mask
        assert hash(from_tuple) == hash(from_mask)
        assert from_mask.bits == bits
        assert from_tuple.mask == mask_of(bits)

    @given(bit_tuple_pairs)
    def test_set_views_partition_positions(self, pair):
        bits, _ = pair
        v = IndicatorVector(bits)
        assert v.held_packets() == {m for m, b in enumerate(bits) if b}
        assert missing(v) == {m for m, b in enumerate(bits) if not b}
        assert v.popcount() == sum(bits)
        assert v.is_full() == all(bits)

    @given(st.integers(1, 80), st.integers(0, 1 << 90))
    def test_out_of_range_masks_rejected(self, length, offset):
        with pytest.raises(ValueError):
            IndicatorVector.from_mask((1 << length) + offset, length)
        with pytest.raises(ValueError):
            IndicatorVector.from_mask(-1 - offset, length)

    def test_zero_length_mask_rejected(self):
        with pytest.raises(ValueError):
            IndicatorVector.from_mask(0, 0)

    @pytest.mark.parametrize("masks, length, bad", [
        ([3, -2, 5], 4, -2),  # a negative mask
        ([3, 16, 5], 4, 16),  # a mask too wide
        ([0, 0], 0, 0),  # no position at all
    ])
    def test_batch_refuses_what_from_mask_refuses(self, masks, length, bad):
        with pytest.raises(ValueError) as single:
            IndicatorVector.from_mask(bad, length)
        with pytest.raises(ValueError) as batch:
            IndicatorVector._from_masks(masks, length)
        assert str(batch.value) == str(single.value)

    def test_batch_builds_what_from_mask_builds(self):
        masks = [0, 5, 15, 8]
        assert IndicatorVector._from_masks(masks, 4) == [IndicatorVector.from_mask(m, 4)
                                                         for m in masks]
        assert IndicatorVector._from_masks([], 0) == []


def test_packet_label_is_one_indexed():
    assert packet_label(0) == "w1"
    assert packet_label(5) == "w6"


class TestScenarioConfig:
    def test_accepts_scheme_string(self):
        cfg = ScenarioConfig(4, 6, 0.5, 2, scheme="baseline_csma")
        assert cfg.scheme is Scheme.BASELINE_CSMA

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_uavs": 0},
            {"num_packets": 0},
            {"delivery_rate": 1.5},
            {"delivery_rate": -0.1},
            {"num_clusters": 0},
            {"num_clusters": 7},
            {"runs": 0},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = dict(num_uavs=6, num_packets=4, delivery_rate=0.5, num_clusters=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ScenarioConfig(**base)

    @pytest.mark.parametrize("runs", [2.5, True, "3"])
    def test_runs_must_be_a_positive_int(self, runs):
        with pytest.raises(ValueError, match=f"runs must be a positive integer, got {runs!r}"):
            ScenarioConfig(6, 4, 0.5, 2, runs=runs)

    @pytest.mark.parametrize("name", ["num_uavs", "num_packets", "num_clusters", "seed"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
    def test_counts_and_seed_must_be_ints(self, name, value):
        # Before, 6.5 UAVs or seed=1.5 failed later inside numpy, and 2.0 clusters ran.
        base = dict(num_uavs=6, num_packets=4, delivery_rate=0.5, num_clusters=2)
        base[name] = value
        with pytest.raises(ValueError, match=rf"^{name} must be a [a-z-]+ integer, got {value!r}$"):
            ScenarioConfig(**base)

    @pytest.mark.parametrize("rate", ["0.5", None, True, False])
    def test_delivery_rate_must_be_a_real_number(self, rate):
        # Before, "0.5" raised a TypeError naming no setting and True ran as a rate of 1.
        with pytest.raises(ValueError, match=rf"^delivery_rate must be a real number, got {rate!r}$"):
            ScenarioConfig(6, 4, rate, 2)

    @pytest.mark.parametrize("rate", [0, 1, 0.5, np.float64(0.25)])
    def test_delivery_rate_accepts_any_real_number_in_range(self, rate):
        assert ScenarioConfig(6, 4, rate, 2).delivery_rate == rate


class TestStreams:
    def test_same_triple_same_stream(self):
        a = stream(99, 3, "backoff").integers(0, 1_000_000, 32)
        b = stream(99, 3, "backoff").integers(0, 1_000_000, 32)
        assert np.array_equal(a, b)

    def test_distinct_runs_differ(self):
        a = stream(99, 3, "backoff").integers(0, 1_000_000, 32)
        b = stream(99, 4, "backoff").integers(0, 1_000_000, 32)
        assert not np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = stream(99, 3, "backoff").integers(0, 1_000_000, 32)
        b = stream(99, 3, "tie-break").integers(0, 1_000_000, 32)
        assert not np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stream(-1, 0, "x")


REAL_LABELS = ["bs-delivery", "tie-break", *(f"backoff/{i}" for i in range(12))]


def numpy_seed_words(seed, run_index, label):
    entropy = (seed, run_index, core._label_entropy(label))
    return np.random.SeedSequence(entropy=entropy).generate_state(4, np.uint64)


def assert_block_replays_numpy(block, seed, run_indices, labels):
    for k in run_indices:
        for label in labels:
            assert np.array_equal(block.seed_words(seed, k, label),
                                  numpy_seed_words(seed, k, label)), (seed, k, label)
            fast, alone = stream(seed, k, label, block), stream(seed, k, label)
            assert fast.bit_generator.state == alone.bit_generator.state
            assert np.array_equal(fast.bit_generator.random_raw(3),
                                  alone.bit_generator.random_raw(3))


class TestStreamBlock:
    """A block's seed words and streams equal numpy's SeedSequence pair by pair."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32 + 2), st.integers(0, 2**70)),
        start=st.one_of(st.integers(0, 2**40), st.integers(2**32 - 6, 2**32 + 1)),
        length=st.integers(1, 8),
        labels=st.lists(st.one_of(st.sampled_from(REAL_LABELS), st.text(max_size=12)),
                        min_size=1, max_size=4, unique=True),
    )
    def test_matches_seed_sequence(self, seed, start, length, labels):
        run_indices = range(start, start + length)
        block = StreamBlock(seed, run_indices, labels)
        assert_block_replays_numpy(block, seed, run_indices, labels)

    def test_range_across_two_to_the_32(self):
        # Run indices below 2**32 are mixed in the block, the rest by numpy.
        run_indices = range(2**32 - 3, 2**32 + 3)
        for seed in (0, 914, 2**32 - 1):
            block = StreamBlock(seed, run_indices, REAL_LABELS[:4])
            assert_block_replays_numpy(block, seed, run_indices, REAL_LABELS[:4])

    @pytest.mark.parametrize("seed", [0, 5, 2**32 + 1, 2**64 - 1])
    def test_short_label_entropy_pads_exactly(self, seed, monkeypatch):
        # Label entropy of one zero word, one word and two words, against
        # seeds of one and two words and run indices of one and two words.
        monkeypatch.setattr(core, "_label_entropy", int)
        labels = ["0", "7", str(2**32 - 1), str(2**32), str(2**64 - 1)]
        run_indices = range(2**32 - 2, 2**32 + 2)
        block = StreamBlock(seed, run_indices, labels)
        assert_block_replays_numpy(block, seed, run_indices, labels)

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_word_mix_matches_seed_sequence(self, words):
        entropy = np.zeros((1, 4), dtype=np.uint32)
        entropy[0, :len(words)] = words
        expected = np.random.SeedSequence(entropy=words).generate_state(4, np.uint64)
        assert np.array_equal(mix_seed_words(entropy)[0], expected)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**70), start=st.integers(1, 2**40), length=st.integers(1, 8))
    def test_refuses_streams_outside_the_block(self, seed, start, length):
        block = StreamBlock(seed, range(start, start + length), ["bs-delivery", "backoff/0"])
        for k in (start - 1, start + length):
            with pytest.raises(ValueError, match="outside the block"):
                stream(seed, k, "bs-delivery", block)
        with pytest.raises(ValueError, match="outside the block"):
            stream(seed, start, "backoff/1", block)
        with pytest.raises(ValueError, match="outside the block"):
            stream(seed + 1, start, "bs-delivery", block)

    def test_refuses_negative_or_strided_indices(self):
        for seed, run_indices in [(-1, range(3)), (0, range(-1, 3)), (0, range(0, 6, 2))]:
            with pytest.raises(ValueError):
                StreamBlock(seed, run_indices, ["bs-delivery"])
