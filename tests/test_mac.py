"""Subwindow geometry, draw ranges, priority ordering, and frame timing."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from uavex import protocol
from uavex.core import stream
from uavex.mac import (
    BLOCK_WORDS,
    Pcg64Draws,
    TimingConfig,
    draw_backoff,
    draw_baseline_backoff,
    draw_bounds,
    frame_duration,
    subwindow_bounds,
)

from reference import counting_fetches, integers, numpy_position, scripted_draws, source_position

WINDOW = TimingConfig().cw_total_us  # 9207


def source(seed, run_index, label):
    """A ``Pcg64Draws`` over a just-derived stream, as a scenario run hands the engine."""
    return Pcg64Draws(stream(seed, run_index, label).bit_generator)


def subwindow_for_count(num_packets, count, window=WINDOW):
    """The subwindow k whose range ``draw_bounds`` gives a stake of ``count``."""
    entry = dict(enumerate(draw_bounds(num_packets, window))).get(count)
    if entry is None:
        raise ValueError(f"no draw range for a stake of {count}")
    low, high = entry
    (k,) = [k for k in range(1, num_packets + 1)
            if subwindow_bounds(num_packets, k, window) == (low - 1, high - 1)]
    return k


class TestSubwindowForCount:
    """A stake of m of M packets draws in subwindow M - m + 1, read back from the table."""

    def test_four_of_six_missing(self):
        assert subwindow_for_count(6, 4) == 3

    def test_endpoints(self):
        assert subwindow_for_count(6, 6) == 1
        assert subwindow_for_count(6, 1) == 6

    def test_strictly_decreasing_in_count(self):
        ks = [subwindow_for_count(10, m) for m in range(1, 11)]
        assert ks == sorted(ks, reverse=True)
        assert len(set(ks)) == 10

    @pytest.mark.parametrize("count", [0, 7, -1])
    def test_rejects_out_of_range(self, count):
        with pytest.raises(ValueError):
            subwindow_for_count(6, count)


class TestTimingConfig:
    def test_defaults_span_the_sensing_range(self):
        t = TimingConfig()
        assert t.difs_us == 34
        assert t.difs_us + t.cw_total_us == 9241
        assert t.preamble_us == 20
        assert t.payload_us_per_packet == 2000

    @pytest.mark.parametrize("field", ["difs_us", "cw_total_us", "preamble_us",
                                       "payload_us_per_packet"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError):
            TimingConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["difs_us", "cw_total_us", "preamble_us",
                                       "payload_us_per_packet"])
    def test_rejects_booleans(self, field):
        with pytest.raises(ValueError, match=field):
            TimingConfig(**{field: True})

    def test_window_is_at_most_2_32(self):
        # Every backoff draw reads one 32-bit half-word, so no span may pass 2**32.
        assert TimingConfig(cw_total_us=1 << 32).cw_total_us == 1 << 32
        for window in ((1 << 32) + 1, 1 << 63, 1 << 70):
            with pytest.raises(ValueError) as error:
                TimingConfig(cw_total_us=window)
            assert str(error.value) == f"cw_total_us must be at most 2**32, got {window}"


class TestSubwindowBounds:
    def test_first_subwindow(self):
        assert subwindow_bounds(6, 1, 9207) == (0, 1534)

    def test_last_subwindow(self):
        assert subwindow_bounds(6, 6, 9207) == (7672, 9207)

    def test_single_subwindow_is_whole_window(self):
        assert subwindow_bounds(1, 1, 9207) == (0, 9207)

    def test_tiling_exact(self):
        # Integer ranges (lo, hi] for k = 1..M tile (0, T] with no overlap.
        for num_packets in range(1, 33):
            for window in (num_packets, 101, 1024, 9207, 10_000):
                if window < num_packets:
                    continue
                covered = []
                previous_hi = 0
                for k in range(1, num_packets + 1):
                    lo, hi = subwindow_bounds(num_packets, k, window)
                    assert lo == previous_hi
                    assert hi > lo
                    covered.extend(range(lo + 1, hi + 1))
                    previous_hi = hi
                assert covered == list(range(1, window + 1))

    def test_rejects_bad_subwindow(self):
        with pytest.raises(ValueError):
            subwindow_bounds(6, 0, 9207)
        with pytest.raises(ValueError):
            subwindow_bounds(6, 7, 9207)


RANGES = draw_bounds(6, WINDOW)  # [low, high) per stake m, at entry m


class TestDrawBackoff:
    def test_draw_within_subwindow(self):
        rng = source(0, 0, "backoff")
        lo, hi = subwindow_bounds(6, 1, WINDOW)  # six of six relevant: subwindow 1
        for _ in range(500):
            draw = draw_backoff(*RANGES[6], rng)
            assert lo < draw <= hi == 1534

    def test_strict_priority_many_pairs(self):
        rng, draws = np.random.default_rng(9), source(9, 0, "backoff")
        for _ in range(10_000):
            m = int(rng.integers(2, 17))
            low_count, high_count = sorted(rng.choice(np.arange(1, m + 1), 2, replace=False))
            bounds = draw_bounds(m, WINDOW)
            eager = draw_backoff(*bounds[high_count], draws)
            lazy = draw_backoff(*bounds[low_count], draws)
            assert eager < lazy

    def test_replay_determinism(self):
        a = draw_backoff(*RANGES[3], source(2, 1, "backoff"))
        b = draw_backoff(*RANGES[3], source(2, 1, "backoff"))
        assert a == b

    def test_uniform_within_subwindow(self):
        rng = source(12, 0, "chi")
        lo, hi = subwindow_bounds(6, 1, WINDOW)
        draws = np.array(
            [draw_backoff(*RANGES[6], rng) for _ in range(100_000)]
        )
        counts = np.bincount(draws - (lo + 1), minlength=hi - lo)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_window_too_small(self):
        # With a 7 us window over 10 subwindows, subwindow 1 holds no integer.
        with pytest.raises(ValueError, match="subwindow 1 of window 7 us is empty"):
            draw_bounds(10, 7)

    @pytest.mark.parametrize("count", [0, 7, -1])
    def test_rejects_stake_out_of_range(self, count):
        # Keyed by stake, the table has a draw range for 1..M only: an empty
        # stake draws nothing, and no other count has a range.
        assert dict(enumerate(RANGES)).get(count) is None

    @pytest.mark.parametrize("span", [2, 1 << 32])
    def test_matches_generator_integers_at_span(self, span):
        # The narrowest and the widest span a draw takes (2**32 a bare
        # half-word). A fresh source and one that starts on a pending
        # half-word are each checked against a twin.
        ours, theirs = stream(6, 0, "backoff"), stream(6, 0, "backoff")
        fresh = Pcg64Draws(ours.bit_generator)
        pending, twin = stream(6, 1, "backoff"), stream(6, 1, "backoff")
        warmed = Pcg64Draws(pending.bit_generator)
        assert integers(warmed, 0, 7) == twin.integers(0, 7)
        for low in (1, 1535, (1 << 40) + 1):
            for rng, reference in ((fresh, theirs), (warmed, twin)):
                values = [draw_backoff(low, low + span, rng) for _ in range(50)]
                assert values == [int(reference.integers(low, low + span)) for _ in range(50)]
        assert source_position(fresh, ours.bit_generator) == numpy_position(theirs)
        assert source_position(warmed, pending.bit_generator) == numpy_position(twin)

    def test_a_span_of_one_reads_a_half(self):
        # Below the spans a draw takes (2 to 2**32), and unchecked: the value
        # is still low, but the step reads a half-word where numpy reads none.
        draws, halves_read = scripted_draws([7])
        assert draw_backoff(5, 6, draws) == 5
        assert halves_read() == 1


WIDE = [(1 << 31) + 1, (1 << 32) + 1]  # a rejection-heavy span, and one past 32 bits


class TestDrawBounds:
    """The per-(M, W) table of draw ranges, built from ``subwindow_bounds``."""

    @pytest.mark.parametrize("num_packets", range(1, 17))
    def test_entry_m_is_subwindow_m_from_the_top_shifted_by_one(self, num_packets):
        for window in (2 * num_packets, 2 * num_packets + 1, 9207, *WIDE):
            bounds = draw_bounds(num_packets, window)
            assert len(bounds) == num_packets + 1 and bounds[0] is None
            for m in range(1, num_packets + 1):
                lo, hi = subwindow_bounds(num_packets, num_packets - m + 1, window)
                assert bounds[m] == (lo + 1, hi + 1)

    @settings(max_examples=200, deadline=None)
    @given(num_packets=st.integers(1, 300), data=st.data())
    def test_every_span_a_draw_takes_lies_in_2_to_2_32(self, num_packets, data):
        # The draw functions check no span. An exchange accepts windows from
        # 2M (its own floor) to 2**32 (TimingConfig's ceiling), and every
        # range of such a window, like the whole window of a plain CSMA draw,
        # spans 2 to 2**32.
        floor = 2 * num_packets
        window = data.draw(st.one_of(st.integers(floor, floor + 8), st.integers(floor, 1 << 32),
                                     st.integers((1 << 32) - 8, 1 << 32)), label="window")
        assert TimingConfig(cw_total_us=window).cw_total_us == window
        spans = [high - low for low, high in draw_bounds(num_packets, window)[1:]]
        assert all(2 <= span <= 1 << 32 for span in [*spans, window])

    @pytest.mark.parametrize("num_packets", [2, 6, 10, 40])
    def test_window_below_m_is_refused(self, num_packets):
        for window in range(1, num_packets):
            message = (f"subwindow 1 of window {window} us is empty; "
                       f"need window_us >= num_packets ({num_packets})")
            with pytest.raises(ValueError) as error:
                draw_bounds(num_packets, window)
            assert str(error.value) == message

    def test_each_pair_gets_its_own_table(self):
        # Cached on (M, W): the same pair shares one table, and another window gets its own.
        assert draw_bounds(6, 24) is draw_bounds(6, 24)
        assert draw_bounds(6, 25) != draw_bounds(6, 24)


class TestDrawRanges:
    def test_every_stake_matches_subwindow_bounds(self):
        # Each draw spans subwindow M - m + 1 shifted by one: a half of 1
        # draws its low end, and the largest half its high end less one.
        lowest, _ = scripted_draws([], repeat=1)
        highest, _ = scripted_draws([], repeat=(1 << 32) - 1)
        drawn, expected = [], []
        for m in range(1, 41):
            for window in [*range(m, 4 * m + 61), 1023, 9207]:
                bounds = draw_bounds(m, window)
                for stake in range(1, m + 1):
                    lo, hi = subwindow_bounds(m, m - stake + 1, window)
                    assert draw_backoff(*bounds[stake], lowest) == lo + 1
                    drawn.append((lo + 1, draw_backoff(*bounds[stake], highest) + 1))
                    expected.append((lo + 1, hi + 1))
        assert drawn == expected

    def test_empty_subwindows_are_refused_before_any_draw(self):
        # A window below M leaves subwindow 1 empty, and the table refuses it
        # whole, so no stake of that window has a range to draw in.
        for m in range(2, 41):
            for window in range(1, m):
                assert subwindow_bounds(m, 1, window)[1] == 0
                with pytest.raises(ValueError, match=f"subwindow 1 of window {window} us"):
                    draw_bounds(m, window)

    def test_interleaved_draws_match_a_twin_generator(self):
        # Switching (M, W) between draws must not reuse another pair's table.
        pairs = [(6, 9207), (10, 9207), (6, 24), (10, 20), (32, 1023), (1, 9207)]
        rng = source(5, 0, "backoff")
        twin = stream(5, 0, "backoff")
        picks = np.random.default_rng(1)
        for _ in range(3000):
            m, window = pairs[int(picks.integers(len(pairs)))]
            stake = int(picks.integers(1, m + 1))
            lo, hi = subwindow_bounds(m, m - stake + 1, window)
            drawn = draw_backoff(*draw_bounds(m, window)[stake], rng)
            assert drawn == int(twin.integers(lo + 1, hi + 1))


class TestDrawBaseline:
    def test_is_the_one_bounded_step(self):
        # Plain CSMA draws over [1, W + 1) through draw_backoff itself, so a
        # second copy of the inlined step cannot come back unnoticed.
        assert draw_baseline_backoff is draw_backoff
        assert protocol.draw_baseline_backoff is protocol.draw_backoff

    def test_full_range(self):
        rng = source(3, 0, "backoff")
        values = [draw_baseline_backoff(1, WINDOW + 1, rng) for _ in range(2000)]
        assert min(values) >= 1
        assert max(values) <= WINDOW
        # Not confined to one priority subwindow: all six of M=6 are hit.
        highs = [subwindow_bounds(6, k, WINDOW)[1] for k in range(1, 7)]
        assert {next(k for k, hi in enumerate(highs) if v <= hi) for v in values} == set(range(6))

    def test_window_of_one_is_forced(self):
        assert draw_baseline_backoff(1, 2, source(0, 0, "x")) == 1

    def test_replay_determinism(self):
        a = draw_baseline_backoff(1, WINDOW + 1, source(4, 7, "backoff"))
        b = draw_baseline_backoff(1, WINDOW + 1, source(4, 7, "backoff"))
        assert a == b


INT64_MIN = -(1 << 63)
INT64_END = 1 << 63  # one past the largest int64


def _refuses_without_a_read(draws, bit_generator, draw):
    """``draw()`` raises the span refusal, leaving the position and block of ``draws`` as is."""
    before = source_position(draws, bit_generator), list(draws.halves)
    with pytest.raises(ValueError, match=r"^span \d+ is above 2\*\*32, "):
        draw()
    assert (source_position(draws, bit_generator), draws.halves) == before


@st.composite
def valid_bounds(draw, span):
    """(low, high) of the given span, placed anywhere numpy's int64 draw accepts it."""
    span = draw(span)
    low = draw(st.integers(INT64_MIN, INT64_END - span))
    return low, low + span


def near(value, radius):
    return st.integers(max(1, value - radius), value + radius)


# Spans of every branch of numpy's 32-bit bounded draw: 1 (no word), small,
# near 2**31 (its rejection loop runs often just above), up to 2**32 and
# exactly 2**32 (a bare half-word), anywhere in int64 and at both of its
# ends; plus pairs numpy refuses.
BOUNDS = st.one_of(
    valid_bounds(st.integers(1, 5000)),
    valid_bounds(st.sampled_from([1, 2, (1 << 31) + 1, (1 << 32) - 1, 1 << 32])),
    valid_bounds(near(1 << 31, 1 << 20)),
    valid_bounds(st.integers((1 << 32) - (1 << 20), 1 << 32)),
    st.sampled_from([(INT64_MIN, INT64_MIN + (1 << 32)), (INT64_END - (1 << 32), INT64_END)]),
    st.integers(-5, 5).map(lambda d: (7, 7 - abs(d))),  # low >= high
    st.integers(1, 1 << 40).map(lambda d: (INT64_MIN - d, 0)),  # low out of range
    st.integers(1, 1 << 40).map(lambda d: (0, INT64_END + d)),  # high out of range
)


def _outcome(draw, low, high):
    """``draw(low, high)`` as an int, or the message of the ``ValueError`` it raises."""
    try:
        return int(draw(low, high))
    except ValueError as exc:
        return str(exc)


# Spans above 2**32, which numpy draws from whole raw words, up to the whole
# int64 range (2**64, a bare raw word).
WIDE_BOUNDS = valid_bounds(st.one_of(
    st.sampled_from([(1 << 32) + 1, 1 << 40, 1 << 63, 1 << 64]),
    st.integers((1 << 32) + 1, 1 << 64),
))


class TestPcg64Draws:
    """The reference step ``integers`` on a ``Pcg64Draws``, against numpy's on a twin generator."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warmup=st.integers(0, 3),
           pairs=st.lists(BOUNDS, min_size=1, max_size=12))
    def test_matches_generator_integers(self, seed, warmup, pairs):
        # An odd warmup leaves a half-word pending; an even one above zero
        # leaves the stale ``uinteger`` numpy keeps after using it.
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        source = Pcg64Draws(ours.bit_generator)
        for _ in range(warmup):
            assert integers(source, 0, 7) == theirs.integers(0, 7)
        ours_draw = partial(integers, source)
        assert [_outcome(ours_draw, *p) for p in pairs] == [_outcome(theirs.integers, *p)
                                                            for p in pairs]
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), stale=st.integers(1, 2**32 - 1),
           pairs=st.lists(BOUNDS, max_size=12))
    def test_a_stale_uinteger_changes_no_draw(self, seed, stale, pairs):
        # numpy reads ``uinteger`` only while ``has_uint32`` is set, which is
        # why a stream position leaves it out when no half-word is pending.
        stale_rng, clean = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng, uinteger in ((stale_rng, stale), (clean, 0)):
            rng.bit_generator.state = {**rng.bit_generator.state,
                                       "has_uint32": 0, "uinteger": uinteger}
        assert ([_outcome(stale_rng.integers, *p) for p in pairs]
                == [_outcome(clean.integers, *p) for p in pairs])
        assert numpy_position(stale_rng) == numpy_position(clean)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warmup=st.integers(0, 2 * BLOCK_WORDS + 1),
           wide=WIDE_BOUNDS, pairs=st.lists(BOUNDS, max_size=8))
    def test_refuses_spans_above_2_32(self, seed, warmup, wide, pairs):
        # Any warmup: an odd one leaves a half-word pending, and one of 64
        # leaves the block empty, where a read would fetch the next block.
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        source = Pcg64Draws(ours.bit_generator)
        for _ in range(warmup):
            assert integers(source, 0, 7) == theirs.integers(0, 7)
        _refuses_without_a_read(source, ours.bit_generator, lambda: integers(source, *wide))
        # The refused call leaves every later draw as the twin makes it.
        ours_draw = partial(integers, source)
        assert [_outcome(ours_draw, *p) for p in pairs] == [_outcome(theirs.integers, *p)
                                                            for p in pairs]
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)

    def test_rejection_path_runs(self):
        # 2**32 mod (2**31 + 1) rejects nearly half the words, each retry
        # taking one more half-word.
        ours, theirs = stream(9, 0, "backoff"), stream(9, 0, "backoff")
        counted = counting_fetches(ours.bit_generator)
        source = Pcg64Draws(counted)
        span = (1 << 31) + 1
        values = [integers(source, 0, span) for _ in range(400)]
        assert values == [int(theirs.integers(0, span)) for _ in range(400)]
        # 200 words serve 400 draws without rejection.
        assert sum(counted.fetched) - len(source.halves) // 2 > 300
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)

    def test_span_of_one_consumes_nothing(self):
        rng = stream(2, 0, "backoff")
        before = numpy_position(rng)
        source = Pcg64Draws(rng.bit_generator)
        assert integers(source, 5, 6) == 5
        assert source_position(source, rng.bit_generator) == before


# (num_packets, stake, window) of draw_backoff calls; a stake of 0 stands for
# a draw_baseline_backoff call over the window. Every span lies in 2 to 2**32,
# the spans a draw takes, and together they cover every branch of the inlined
# 32-bit step: the narrowest spans, rejection-heavy spans just above 2**31,
# and spans of exactly 2**32 (a bare half-word), some at lows above 2**32.
_M = st.integers(1, 12)
DRAW_CALLS = st.one_of(
    st.tuples(_M, st.just(0), st.integers(2, 40)),
    st.tuples(_M, st.just(0), near(1 << 31, 4)),
    st.tuples(_M, st.just(0), st.sampled_from([(1 << 32) - 1, 1 << 32])),
    _M.flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m), st.integers(2 * m, 3 * m))),
    _M.flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m), st.sampled_from(
        [m * ((1 << 31) + 1), m << 32]))),
)


def _draw(source, m, stake, window):
    # The range of a priority draw is subwindow_bounds' own (TestDrawBounds
    # pins the table to it).
    if stake:
        lo, hi = subwindow_bounds(m, m - stake + 1, window)
        return draw_backoff(lo + 1, hi + 1, source)
    return draw_baseline_backoff(1, window + 1, source)


def _numpy_draw(rng, m, stake, window):
    """The same call's range drawn by numpy's ``integers`` on ``rng``."""
    lo, hi = subwindow_bounds(m, m - stake + 1, window) if stake else (0, window)
    return int(rng.integers(lo + 1, hi + 1))


class TestInlineDraws:
    """The draw functions on a ``Pcg64Draws`` against numpy's draws of their ranges on a twin."""

    # 2**32 mod (2**31 + 1) rejects nearly half the half-words, under both names.
    @example(seed=9, warmup=1, calls=[(1, 0, (1 << 31) + 1)] * 200 + [(1, 1, (1 << 31) + 1)] * 200)
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warmup=st.integers(0, 3),
           calls=st.lists(DRAW_CALLS, min_size=1, max_size=16))
    def test_matches_generator_draws(self, seed, warmup, calls):
        # An odd warmup leaves a half-word pending for the first draw; an even
        # one above zero leaves a stale ``uinteger``.
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        source = Pcg64Draws(ours.bit_generator)
        for _ in range(warmup):
            assert integers(source, 0, 7) == theirs.integers(0, 7)
        assert ([_draw(source, *call) for call in calls]
                == [_numpy_draw(theirs, *call) for call in calls])
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)


# Each step is a draw (any stake, or a rejection-heavy span just above 2**31),
# then, at times, a draw over a span of exactly 2**32 (a bare half-word) or
# of 2, the narrowest.
_STEP = st.tuples(
    st.one_of(
        _M.flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m), st.integers(2 * m, 3 * m))),
        st.tuples(st.just(1), st.sampled_from([0, 1]), near(1 << 31, 4)),
        st.tuples(_M, st.just(0), st.sampled_from([2, 24, 9207])),
    ),
    st.sampled_from([None, (1, 0, 1 << 32), (1, 0, 2)]),
)


class TestBlockBoundaries:
    """Draw sequences reading several blocks of raw words, against a twin ``Generator``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pattern=st.lists(_STEP, min_size=1, max_size=24))
    def test_matches_generator_across_blocks(self, seed, pattern):
        # A pattern repeated to more than 6 blocks' worth of steps (a long
        # generated list costs seconds); rejections move where blocks end.
        steps = pattern * (6 * BLOCK_WORDS // len(pattern) + 1)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        counted = counting_fetches(ours.bit_generator)
        source = Pcg64Draws(counted)
        calls = [call for step in steps for call in step if call is not None]
        assert ([_draw(source, *call) for call in calls]
                == [_numpy_draw(theirs, *call) for call in calls])
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)
        # Every step reads at least a half-word, so more than 3 blocks were read.
        assert sum(counted.fetched) - len(source.halves) // 2 > 3 * BLOCK_WORDS


class TestFrameDuration:
    def test_reply_of_four(self):
        assert frame_duration(4, TimingConfig()) == 8020

    def test_reply_of_one(self):
        assert frame_duration(1, TimingConfig()) == 2020

    def test_request_is_preamble_only(self):
        assert frame_duration(0, TimingConfig()) == 20

    @pytest.mark.parametrize("count", [-1, -4])
    def test_negative_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"cannot carry {count} data packets"):
            frame_duration(count, TimingConfig())

