"""Subwindow geometry, draw ranges, priority ordering, and frame timing."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from uavex.core import stream
from uavex.mac import (
    Pcg64Draws,
    TimingConfig,
    draw_backoff,
    draw_baseline_backoff,
    frame_duration,
    subwindow_bounds,
    subwindow_for_count,
)

from reference import numpy_position, source_position

WINDOW = TimingConfig().cw_total_us  # 9207


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


class TestSubwindowForCount:
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


class TestDrawBackoff:
    def test_draw_within_subwindow(self):
        rng = stream(0, 0, "backoff")
        lo, hi = subwindow_bounds(6, 1, WINDOW)  # six of six relevant: subwindow 1
        for _ in range(500):
            draw = draw_backoff(6, 6, WINDOW, rng)
            assert lo < draw <= hi == 1534

    def test_strict_priority_many_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            m = int(rng.integers(2, 17))
            low_count, high_count = sorted(rng.choice(np.arange(1, m + 1), 2, replace=False))
            eager = draw_backoff(m, int(high_count), WINDOW, rng)
            lazy = draw_backoff(m, int(low_count), WINDOW, rng)
            assert eager < lazy

    def test_replay_determinism(self):
        a = draw_backoff(6, 3, WINDOW, stream(2, 1, "backoff"))
        b = draw_backoff(6, 3, WINDOW, stream(2, 1, "backoff"))
        assert a == b

    def test_uniform_within_subwindow(self):
        rng = stream(12, 0, "chi")
        lo, hi = subwindow_bounds(6, 1, WINDOW)
        draws = np.array(
            [draw_backoff(6, 6, WINDOW, rng) for _ in range(100_000)]
        )
        counts = np.bincount(draws - (lo + 1), minlength=hi - lo)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_window_too_small(self):
        # With a 7 us window over 10 subwindows, subwindow 1 holds no integer.
        with pytest.raises(ValueError):
            draw_backoff(10, 10, 7, stream(0, 0, "backoff"))

    @pytest.mark.parametrize("count", [0, 7, -1])
    def test_rejects_stake_out_of_range(self, count):
        with pytest.raises(ValueError, match="relevant_count"):
            draw_backoff(6, count, WINDOW, stream(0, 0, "backoff"))


class _RecordingDraws:
    """Records the bounds of each ``integers(low, high)`` call and returns ``low``."""

    def __init__(self):
        self.bounds = []

    def integers(self, low, high):
        self.bounds.append((low, high))
        return low


class TestDrawRanges:
    def test_every_stake_matches_subwindow_bounds(self):
        # One integers() call per draw, over subwindow M - m + 1 shifted by one.
        source, expected = _RecordingDraws(), []
        for m in range(1, 41):
            for window in [*range(m, 4 * m + 61), 1023, 9207]:
                for stake in range(1, m + 1):
                    lo, hi = subwindow_bounds(m, m - stake + 1, window)
                    assert draw_backoff(m, stake, window, source) == lo + 1
                    expected.append((lo + 1, hi + 1))
        assert source.bounds == expected

    def test_empty_subwindows_are_refused_before_any_draw(self):
        source = _RecordingDraws()
        for m in range(2, 41):
            for window in range(1, m):
                for stake in range(1, m + 1):
                    k = m - stake + 1
                    lo, hi = subwindow_bounds(m, k, window)
                    if lo < hi:
                        assert draw_backoff(m, stake, window, source) == lo + 1
                        assert source.bounds.pop() == (lo + 1, hi + 1)
                        continue
                    message = (f"subwindow {k} of window {window} us is empty; "
                               f"need window_us >= num_packets ({m})")
                    with pytest.raises(ValueError) as error:
                        draw_backoff(m, stake, window, source)
                    assert str(error.value) == message
                    assert source.bounds == []

    def test_interleaved_draws_match_a_twin_generator(self):
        # Switching (M, W) between draws must not reuse another pair's table.
        pairs = [(6, 9207), (10, 9207), (6, 24), (10, 20), (32, 1023), (1, 9207)]
        rng = stream(5, 0, "backoff")
        twin = stream(5, 0, "backoff")
        picks = np.random.default_rng(1)
        for _ in range(3000):
            m, window = pairs[int(picks.integers(len(pairs)))]
            stake = int(picks.integers(1, m + 1))
            lo, hi = subwindow_bounds(m, m - stake + 1, window)
            assert draw_backoff(m, stake, window, rng) == int(twin.integers(lo + 1, hi + 1))


class TestDrawBaseline:
    def test_full_range(self):
        rng = stream(3, 0, "backoff")
        values = [draw_baseline_backoff(WINDOW, rng) for _ in range(2000)]
        assert min(values) >= 1
        assert max(values) <= WINDOW
        # Not confined to one priority subwindow: all six of M=6 are hit.
        highs = [subwindow_bounds(6, k, WINDOW)[1] for k in range(1, 7)]
        assert {next(k for k, hi in enumerate(highs) if v <= hi) for v in values} == set(range(6))

    def test_window_of_one_is_forced(self):
        assert draw_baseline_backoff(1, stream(0, 0, "x")) == 1

    def test_replay_determinism(self):
        a = draw_baseline_backoff(WINDOW, stream(4, 7, "backoff"))
        b = draw_baseline_backoff(WINDOW, stream(4, 7, "backoff"))
        assert a == b


INT64_MIN = -(1 << 63)
INT64_END = 1 << 63  # one past the largest int64


@st.composite
def valid_bounds(draw, span):
    """(low, high) of the given span, placed anywhere numpy's int64 draw accepts it."""
    span = draw(span)
    low = draw(st.integers(INT64_MIN, INT64_END - span))
    return low, low + span


def near(value, radius):
    return st.integers(max(1, value - radius), value + radius)


# Spans of every branch of numpy's bounded draw: 1 (no word), small and
# near 2**32 (32-bit Lemire; above 2**31 its rejection loop runs often),
# exactly 2**32 (a bare 32-bit word), near 2**63 (64-bit Lemire) and the
# whole int64 range, 2**64 (a bare raw word); plus pairs numpy refuses.
BOUNDS = st.one_of(
    valid_bounds(st.integers(1, 5000)),
    valid_bounds(st.sampled_from([1, 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 64])),
    valid_bounds(near(1 << 32, 1 << 20)),
    valid_bounds(near(1 << 63, 1 << 20)),
    st.sampled_from([(INT64_MIN, INT64_END - 1), (INT64_MIN, INT64_END), (0, INT64_END)]),
    st.integers(-5, 5).map(lambda d: (7, 7 - abs(d))),  # low >= high
    st.integers(1, 1 << 40).map(lambda d: (INT64_MIN - d, 0)),  # low out of range
    st.integers(1, 1 << 40).map(lambda d: (0, INT64_END + d)),  # high out of range
)


def _outcome(source, low, high):
    try:
        return int(source.integers(low, high))
    except ValueError as exc:
        return str(exc)


class TestPcg64Draws:
    """The raw-word draw source against ``Generator.integers`` on a twin generator."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warmup=st.integers(0, 3),
           pairs=st.lists(BOUNDS, min_size=1, max_size=12))
    def test_matches_generator_integers(self, seed, warmup, pairs):
        # An odd warmup leaves a half-word pending; an even one above zero
        # leaves the stale ``uinteger`` numpy keeps after using it.
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        source = Pcg64Draws(ours.bit_generator)
        for _ in range(warmup):
            assert source.integers(0, 7) == theirs.integers(0, 7)
        assert [_outcome(source, *p) for p in pairs] == [_outcome(theirs, *p) for p in pairs]
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)

    def test_rejection_path_runs(self):
        # 2**32 mod (2**31 + 1) rejects nearly half the words, each retry
        # taking one more half-word.
        ours, theirs = stream(9, 0, "backoff"), stream(9, 0, "backoff")
        source = Pcg64Draws(ours.bit_generator)
        raw, words = source._raw, []
        source._raw = lambda: words.append(1) or raw()
        span = (1 << 31) + 1
        values = [source.integers(0, span) for _ in range(400)]
        assert values == [int(theirs.integers(0, span)) for _ in range(400)]
        assert len(words) > 300  # 200 words serve 400 draws without rejection
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)

    def test_span_of_one_consumes_nothing(self):
        rng = stream(2, 0, "backoff")
        before = numpy_position(rng)
        source = Pcg64Draws(rng.bit_generator)
        assert source.integers(5, 6) == 5
        assert source_position(source, rng.bit_generator) == before


# (num_packets, stake, window) of draw_backoff calls; a stake of 0 stands for
# a draw_baseline_backoff call over the window. Together they cover every
# branch of the inlined 32-bit step and the calls it must leave to
# Pcg64Draws.integers: spans of 1 (W == M), rejection-heavy spans just above
# 2**31, spans of exactly 2**32, wider spans, windows numpy refuses
# (2**63 and up; with M = 2**32 the last subwindow spans under 2**32 but
# still ends past int64) and empty subwindows (W < M).
_M = st.integers(1, 12)
DRAW_CALLS = st.one_of(
    st.tuples(_M, st.just(0), st.integers(1, 40)),
    st.tuples(_M, st.just(0), near(1 << 31, 4)),
    st.tuples(_M, st.just(0), st.sampled_from([1 << 32, (1 << 32) + 1, 1 << 40])),
    st.tuples(_M, st.just(0), st.sampled_from([(1 << 63) - 1, 1 << 63, 1 << 70])),
    _M.flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m), st.integers(1, 3 * m))),
    _M.flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m), st.sampled_from(
        [m, m * ((1 << 31) + 1), m << 32, (m << 32) + m - 1, (m << 32) + m, m << 40,
         (1 << 63) - 1, 1 << 63, 1 << 70]))),
    st.tuples(st.just(1 << 32), st.sampled_from([1, 2, 1 << 32]),
              st.sampled_from([(1 << 63) - 1, 1 << 63, (1 << 63) + (1 << 33)])),
)


def _draw_outcome(source, m, stake, window):
    try:
        if stake:
            return draw_backoff(m, stake, window, source)
        return draw_baseline_backoff(window, source)
    except ValueError as exc:
        return str(exc)


class TestInlineDraws:
    """The draw functions on a ``Pcg64Draws`` against the same calls on a twin ``Generator``."""

    # 2**32 mod (2**31 + 1) rejects nearly half the half-words, in both functions.
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
            assert source.integers(0, 7) == theirs.integers(0, 7)
        assert ([_draw_outcome(source, *call) for call in calls]
                == [_draw_outcome(theirs, *call) for call in calls])
        assert source_position(source, ours.bit_generator) == numpy_position(theirs)


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

