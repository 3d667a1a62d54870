"""Engine behaviour: receipts sampling, the four-UAV golden trace, invariants."""

import collections
import contextlib
import hashlib
import io
import itertools
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavex import core, protocol, simulator
from uavex.clustering import cluster_network, reads_tie_break
from uavex.core import IndicatorVector, ScenarioConfig, Scheme, packet_mask, stream
from uavex.experiments import (
    SweepSpec,
    cli_main,
    full_set_rate_samples,
    sweep_full_set_rate,
)
from uavex.mac import (
    Pcg64Draws,
    TimingConfig,
    frame_duration,
    subwindow_bounds,
)
from uavex.protocol import trace_line
from uavex.simulator import (
    RunResult,
    _air_times,
    _run_exchange,
    clusters_for_scheme,
    run_cluster_exchange,
    run_scenario,
    sample_initial_receipts,
)

from reference import (
    counting_fetches,
    numpy_position,
    per_point_full_set_rate,
    reference_exchange,
    replay_trace,
    source_position,
)

TIMING = TimingConfig()

# Fleet of the worked walkthrough: UAV 0 {w1,w2,w4}, UAV 1 {w2..w6},
# UAV 2 {w3,w5}, UAV 3 {w1,w2,w3,w4,w6}.
FIG_HOLDINGS = {
    0: IndicatorVector((1, 1, 0, 1, 0, 0)),
    1: IndicatorVector((0, 1, 1, 1, 1, 1)),
    2: IndicatorVector((0, 0, 1, 0, 1, 0)),
    3: IndicatorVector((1, 1, 1, 1, 0, 1)),
}

# Byte-exact trace at seed 42, frozen after manual verification of every
# timestamp against the subwindow bounds and frame durations.
GOLDEN_TRACE = """\
t=    3933us cluster=0 uav=2 request [w1,w2,w4,w6]
t=   16585us cluster=0 uav=3 reply [w1,w2,w4,w6] peer=2
t=   16585us cluster=0 uav=1 done
t=   16585us cluster=0 uav=2 done
t=   23196us cluster=0 uav=0 request [w3,w5]
t=   33623us cluster=0 uav=1 reply [w3,w5] peer=0
t=   33623us cluster=0 uav=0 done
t=   33623us cluster=0 uav=3 done"""


def run_fig1(seed=42, scheme=Scheme.MECHANISM_ONLY):
    trace = []
    result = run_cluster_exchange(
        list(FIG_HOLDINGS), FIG_HOLDINGS, TIMING, scheme,
        stream(seed, 0, "backoff/0"), trace=trace,
    )
    return trace, result


class TestSampleInitialReceipts:
    def test_masks_match_the_single_draw_beyond_64_packets(self):
        # Packing must not pass through a fixed-width integer: 80 packets
        # spill over 64 bits.
        receipts = sample_initial_receipts(5, 80, 0.5, stream(1, 0, "bs-delivery"))
        hits = stream(1, 0, "bs-delivery").random((5, 80)) < 0.5
        assert [v.bits for v in receipts] == [tuple(int(b) for b in row) for row in hits]

    def test_certain_delivery(self):
        receipts = sample_initial_receipts(5, 6, 1.0, stream(0, 0, "bs-delivery"))
        assert all(v.is_full() for v in receipts)

    def test_no_delivery(self):
        receipts = sample_initial_receipts(5, 6, 0.0, stream(0, 0, "bs-delivery"))
        assert all(v.popcount() == 0 for v in receipts)

    def test_grand_mean_matches_rate(self):
        total = 0
        for k in range(10_000):
            receipts = sample_initial_receipts(10, 6, 0.7, stream(1, k, "bs-delivery"))
            total += sum(v.popcount() for v in receipts)
        grand_mean = total / (10_000 * 10 * 6)
        assert abs(grand_mean - 0.7) < 0.01

    def test_deterministic(self):
        a = sample_initial_receipts(4, 8, 0.5, stream(2, 9, "bs-delivery"))
        b = sample_initial_receipts(4, 8, 0.5, stream(2, 9, "bs-delivery"))
        assert a == b

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            sample_initial_receipts(2, 2, 1.5, stream(0, 0, "bs-delivery"))

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_a_mask_wider_than_the_fleet_packets_is_refused(self, row, monkeypatch):
        # Three packets pack into one byte; a stray bit above them, in any
        # one UAV's row, must still be caught by the fleet's single check.
        packbits = np.packbits

        def stray_bit(*args, **kwargs):
            packed = packbits(*args, **kwargs).copy()
            packed[row, 0] |= 0b1000_0000
            return packed

        monkeypatch.setattr(np, "packbits", stray_bit)
        with pytest.raises(ValueError, match=r"does not fit 3 positions"):
            sample_initial_receipts(5, 3, 0.5, stream(0, 0, "bs-delivery"))


class TestWalkthroughTrace:
    def test_exactly_two_exchanges_and_full_completion(self):
        trace, result = run_fig1()
        assert result.exchange_count == 2
        assert result.completed
        assert result.unobtainable == frozenset()

    def test_golden_trace_bytes(self):
        trace, _ = run_fig1(seed=42)
        assert "\n".join(trace_line(r) for r in trace) == GOLDEN_TRACE

    @pytest.mark.parametrize("seed", range(12))
    def test_narrative_holds_for_any_seed(self, seed):
        # The priority structure fixes the story; only draw values vary.
        trace, result = run_fig1(seed=seed)
        assert result.exchange_count == 2
        assert result.completed
        requests = [r for r in trace if r.event == "request"]
        replies = [r for r in trace if r.event == "reply"]
        assert [r.uav for r in requests] == [2, 0]
        assert requests[0].packets == (0, 1, 3, 5)
        assert requests[1].packets == (2, 4)
        assert replies[0].uav == 3 and replies[0].packets == (0, 1, 3, 5)
        assert replies[1].uav in (1, 2) and replies[1].packets == (2, 4)
        # UAVs 1 and 2 complete on the first reply, before the second request.
        done_times = {r.uav: r.time_us for r in trace if r.event == "done"}
        assert done_times[1] == done_times[2] == replies[0].time_us
        assert done_times[0] == done_times[3] == replies[1].time_us

    def test_delay_is_last_completion_time(self):
        trace, result = run_fig1()
        assert result.delay_us == max(r.time_us for r in trace if r.event == "done")


class TestClusterExchangeEdges:
    def test_everyone_full_is_a_no_op(self):
        holdings = {u: IndicatorVector.ones(4) for u in range(3)}
        result = run_cluster_exchange(
            range(3), holdings, TIMING, Scheme.MECHANISM_ONLY, stream(0, 0, "backoff/0")
        )
        assert result.exchange_count == 0
        assert result.delay_us == 0
        assert result.completed

    def test_union_gap_times_out_as_unobtainable(self):
        holdings = {
            0: IndicatorVector((1, 1, 0)),
            1: IndicatorVector((1, 1, 0)),
        }
        trace = []
        result = run_cluster_exchange(
            range(2), holdings, TIMING, Scheme.MECHANISM_ONLY,
            stream(0, 0, "backoff/0"), trace=trace,
        )
        assert not result.completed
        assert result.unobtainable == {2}
        assert result.exchange_count == 0
        assert any(r.event == "unobtainable" for r in trace)
        # The give-up happens after DIFS + request + DIFS + full window.
        assert result.delay_us > TIMING.cw_total_us

    @pytest.mark.parametrize("members, bits, lengths", [
        ([0, 0, 1], ((1, 0, 1, 0), (0, 1, 0, 1)), "[4, 4, 4]"),  # a phantom second UAV 0
        ([0, 1], ((1, 0, 1), (0, 1, 0, 1)), "[3, 4]"),
        ([1, 0], ((1, 0, 1, 1), (0, 1, 0)), "[4, 3]"),
    ])
    def test_repeated_ids_and_unequal_lengths_are_refused(self, members, bits, lengths):
        holdings = [IndicatorVector(b) for b in bits]
        with pytest.raises(ValueError) as raised:
            run_cluster_exchange(members, holdings, TIMING, Scheme.MECHANISM_ONLY,
                                 stream(0, 0, "backoff/0"))
        assert str(raised.value) == (
            f"cluster members {sorted(members)} must be distinct and hold vectors of one "
            f"length, got lengths {lengths}"
        )

    def test_lone_uav_with_gap(self):
        holdings = {0: IndicatorVector((1, 0))}
        result = run_cluster_exchange(
            [0], holdings, TIMING, Scheme.MECHANISM_ONLY, stream(0, 0, "backoff/0")
        )
        assert not result.completed
        assert result.unobtainable == {1}

    def test_partial_supplier_then_timeout(self):
        # Packet 3 exists nowhere; packet 2 only at UAV 1. UAV 0 first gets
        # w3 from its mate, then gives up on w4 alone.
        holdings = {
            0: IndicatorVector((1, 1, 0, 0)),
            1: IndicatorVector((1, 1, 1, 0)),
        }
        trace = []
        result = run_cluster_exchange(
            range(2), holdings, TIMING, Scheme.MECHANISM_ONLY,
            stream(3, 0, "backoff/0"), trace=trace,
        )
        assert result.exchange_count == 1
        assert not result.completed
        assert result.unobtainable == {3}
        replies = [r for r in trace if r.event == "reply"]
        assert replies[0].packets == (2,)

    def test_determinism_byte_for_byte(self):
        rng_holdings = sample_initial_receipts(6, 8, 0.6, stream(4, 0, "bs-delivery"))
        holdings = dict(enumerate(rng_holdings))
        first_trace, second_trace = [], []
        first = run_cluster_exchange(
            range(6), holdings, TIMING, Scheme.PROPOSED,
            stream(4, 0, "backoff/0"), trace=first_trace,
        )
        second = run_cluster_exchange(
            range(6), holdings, TIMING, Scheme.PROPOSED,
            stream(4, 0, "backoff/0"), trace=second_trace,
        )
        assert first == second
        assert first_trace == second_trace


AIR_TIMINGS = [
    TIMING,
    TimingConfig(preamble_us=21),
    TimingConfig(payload_us_per_packet=1999),
    TimingConfig(difs_us=1, cw_total_us=80, preamble_us=3, payload_us_per_packet=7),
]


def frame_air_times(num_packets, timing):
    return [frame_duration(k, timing) for k in range(num_packets + 1)]


class TestAirTimeTable:
    """``_air_times`` is built once per (M, preamble, payload) and equals ``frame_duration``."""

    @staticmethod
    def table(num_packets, timing):
        return _air_times(num_packets, timing.preamble_us, timing.payload_us_per_packet)

    @pytest.mark.parametrize("timing", AIR_TIMINGS)
    def test_table_equals_frame_duration(self, timing):
        for num_packets in range(1, 41):
            table = self.table(num_packets, timing)
            assert list(table) == frame_air_times(num_packets, timing)
            assert table[0] == timing.preamble_us  # a request carries no data

    @pytest.mark.parametrize("field, value", [("preamble_us", 23), ("payload_us_per_packet", 2003)])
    def test_timings_differing_in_one_air_time_get_their_own_tables(self, field, value):
        # The default timing's table is built first, so a table cached by M
        # alone would be handed to the other timing.
        other = replace(TIMING, **{field: value})
        for num_packets in (1, 6, 10, 40):
            first, second = self.table(num_packets, TIMING), self.table(num_packets, other)
            assert first != second
            assert list(second) == frame_air_times(num_packets, other)

    @pytest.mark.parametrize("scheme", [Scheme.PROPOSED, Scheme.MECHANISM_ONLY])
    def test_delay_moves_by_exactly_the_air_time_of_the_frames(self, scheme):
        # Draws do not depend on air times, so both timings replay one
        # exchange; every frame (a request, a reply, or a collision of equal
        # stakes, hence of equal sizes) lasts the other timing's air time.
        base = replace(TIMING, cw_total_us=24)
        other = replace(base, preamble_us=29, payload_us_per_packet=1987)
        request_collisions = reply_collisions = 0
        for seed in range(30):
            holdings = dict(enumerate(sample_initial_receipts(
                8, 6, 0.6, stream(seed, 0, "bs-delivery"))))
            runs = []
            for timing in (base, other):
                trace = []
                result = run_cluster_exchange(range(8), holdings, timing, scheme,
                                              stream(seed, 0, "backoff/0"), trace=trace)
                runs.append((result, trace))
            (first, first_trace), (second, second_trace) = runs
            assert [replace(r, time_us=0) for r in first_trace] == \
                [replace(r, time_us=0) for r in second_trace]
            expected, open_request = 0, False
            for record in first_trace:
                event = record.event
                if event == "request" or (event == "collision" and not open_request):
                    expected += other.preamble_us - base.preamble_us
                    request_collisions += event == "collision"
                elif event in ("reply", "collision"):
                    k = len(record.packets)
                    expected += frame_duration(k, other) - frame_duration(k, base)
                    reply_collisions += event == "collision"
                # A request stays open through reply collisions, until a reply or timeout.
                open_request = event == "request" or (open_request and event == "collision")
            assert second.delay_us - first.delay_us == expected
        assert request_collisions > 0 and reply_collisions > 0


class TestProtocolInvariantsViaReplay:
    @pytest.mark.parametrize("scheme", [Scheme.MECHANISM_ONLY, Scheme.BASELINE_CSMA])
    def test_random_clusters(self, scheme):
        rng = np.random.default_rng(11)
        for trial in range(60):
            num_uavs = int(rng.integers(1, 9))
            num_packets = int(rng.integers(1, 9))
            receipts = sample_initial_receipts(
                num_uavs, num_packets, float(rng.uniform(0.2, 0.95)), rng
            )
            holdings = dict(enumerate(receipts))
            members = list(range(num_uavs))
            initial_missing = sum(num_packets - v.popcount() for v in receipts)
            trace = []
            result, held = _run_exchange(
                members, holdings, TIMING, scheme, stream(12, trial, "backoff/0"), trace=trace
            )
            full = (1 << num_packets) - 1
            unobtainable = packet_mask(result.unobtainable)
            for u, mask in zip(members, held):
                assert mask & ~full == 0
                assert mask & unobtainable == 0  # nobody holds a packet given up on
                assert holdings[u].mask & ~mask == 0
            assert result.completed == (held.count(full) == num_uavs)
            assert result.exchange_count <= initial_missing
            times = [r.time_us for r in trace]
            assert times == sorted(times)
            final, remaining = replay_trace(members, holdings, trace)
            # The engine's outcome matches the independent replay.
            assert [packet_mask(final[u]) for u in members] == held
            union = 0
            for v in receipts:
                union |= v.mask
            # Closed form: the unobtainable packets are those no member held.
            assert packet_mask(result.unobtainable) == full & ~union
            if result.completed:
                assert remaining == 0


class TestRunScenario:
    def test_reported_values_are_cluster_maxima(self):
        config = ScenarioConfig(10, 6, 0.7, 3, scheme=Scheme.PROPOSED, seed=21)
        result = run_scenario(config, 0)
        assert len(result.cluster_results) == 3
        assert result.reported_exchanges == max(
            c.exchange_count for c in result.cluster_results
        )
        assert result.reported_delay_us == max(c.delay_us for c in result.cluster_results)
        assert result.all_completed == all(c.completed for c in result.cluster_results)

    def test_mechanism_only_equals_proposed_with_one_cluster(self):
        base = dict(num_uavs=8, num_packets=6, delivery_rate=0.6, seed=31)
        proposed = run_scenario(
            ScenarioConfig(num_clusters=1, scheme=Scheme.PROPOSED, **base), 4
        )
        mechanism = run_scenario(
            ScenarioConfig(num_clusters=1, scheme=Scheme.MECHANISM_ONLY, **base), 4
        )
        assert proposed == mechanism

    def test_replay_is_identical(self):
        config = ScenarioConfig(12, 8, 0.6, 4, scheme=Scheme.PROPOSED, seed=77)
        assert run_scenario(config, 5) == run_scenario(config, 5)

    def test_certain_delivery_means_no_exchanges(self):
        for scheme in Scheme:
            config = ScenarioConfig(6, 5, 1.0, 2, scheme=scheme, seed=1)
            result = run_scenario(config, 0)
            assert result.reported_exchanges == 0
            assert result.reported_delay_us == 0
            assert result.all_completed

    def test_cluster_count_respected_per_scheme(self):
        config = ScenarioConfig(9, 5, 0.7, 3, scheme=Scheme.BASELINE_CSMA, seed=2)
        result = run_scenario(config, 0)
        assert len(result.cluster_results) == 1  # baseline ignores clustering

    def test_full_cluster_fraction(self):
        results = RunResult(tuple(
            run_scenario(ScenarioConfig(10, 6, 0.7, 3, seed=5), k).cluster_results[0]
            for k in range(3)
        ))
        assert 0.0 <= results.full_cluster_fraction <= 1.0

    def test_a_run_without_clusters_is_refused(self):
        # Its fraction of full clusters would divide by zero.
        with pytest.raises(ValueError, match="at least one cluster"):
            RunResult(())


def _feasible_cluster_count(num_uavs, draw):
    return draw(st.sampled_from([n for n in range(1, num_uavs + 1) if _feasible(num_uavs, n)]))


def _feasible(num_uavs, num_clusters):
    # An odd count above 1 needs one spare seed UAV.
    return num_clusters == 1 or num_clusters % 2 == 0 or num_clusters < num_uavs


small_timings = st.builds(
    TimingConfig,
    difs_us=st.integers(1, 40),
    preamble_us=st.integers(1, 25),
    payload_us_per_packet=st.integers(1, 50),
)


@st.composite
def small_scenarios(draw):
    num_uavs = draw(st.integers(1, 8))
    num_packets = draw(st.integers(1, 8))
    config = ScenarioConfig(
        num_uavs,
        num_packets,
        draw(st.floats(0.0, 1.0)),
        _feasible_cluster_count(num_uavs, draw),
        scheme=draw(st.sampled_from(list(Scheme))),
        seed=draw(st.integers(0, 50)),
    )
    window = draw(st.integers(1, 4 * num_packets))
    return config, replace(draw(small_timings), cw_total_us=window)


class TestContentionWindowGuard:
    def test_minimum_window_is_two_us_per_subwindow(self):
        holdings = {0: IndicatorVector((1, 0, 0)), 1: IndicatorVector((0, 1, 1))}
        with pytest.raises(ValueError, match="at least 6"):
            run_cluster_exchange([0, 1], holdings, TimingConfig(cw_total_us=5),
                                 Scheme.MECHANISM_ONLY, stream(0, 0, "backoff/0"))
        result = run_cluster_exchange([0, 1], holdings, TimingConfig(cw_total_us=6),
                                      Scheme.MECHANISM_ONLY, stream(0, 0, "backoff/0"))
        assert result.completed

    @settings(max_examples=150, deadline=None)
    @given(small_scenarios())
    def test_accepted_inputs_terminate_or_are_rejected(self, case):
        config, timing = case
        if timing.cw_total_us < 2 * config.num_packets:
            with pytest.raises(ValueError):
                run_scenario(config, 0, timing=timing)
            return
        receipts = sample_initial_receipts(
            config.num_uavs, config.num_packets, config.delivery_rate,
            stream(config.seed, 0, "bs-delivery"),
        )
        initial_missing = sum(config.num_packets - v.popcount() for v in receipts)
        result = run_scenario(config, 0, timing=timing)
        assert sum(r.exchange_count for r in result.cluster_results) <= initial_missing

    @settings(max_examples=100, deadline=None)
    @given(
        num_uavs=st.integers(1, 8),
        num_packets=st.integers(1, 8),
        rho=st.floats(0.0, 1.0),
        extra_clusters=st.integers(0, 8),
        window=st.integers(1, 32),
        timing=small_timings,
        seed=st.integers(0, 50),
    )
    def test_cli_exits_zero_one_or_two(
        self, num_uavs, num_packets, rho, extra_clusters, window, timing, seed
    ):
        # Cluster counts run one past the fleet, so every exit path is drawn.
        num_clusters = min(extra_clusters, num_uavs) + 1
        argv = [
            "compare", "--uavs", str(num_uavs), "--packets", str(num_packets),
            "--rho", repr(rho), "--clusters", str(num_clusters), "--runs", "1",
            "--seed", str(seed), "--cw-total-us", str(window),
            "--difs-us", str(timing.difs_us), "--preamble-us", str(timing.preamble_us),
            "--payload-us", str(timing.payload_us_per_packet),
        ]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli_main(argv)
        assert code in (0, 1, 2), err.getvalue()
        if num_clusters <= num_uavs and _feasible(num_uavs, num_clusters):
            assert code == (1 if window < 2 * num_packets else 0), err.getvalue()


class _RepeatingDraws:
    """A faulty draw source: every draw is the low end of its bounds."""

    def __init__(self):
        self.calls = 0

    def integers(self, low, high):
        self.calls += 1
        return low


def _streak_survival(g, w, rounds):
    """Exact chance that ``rounds`` more rounds all collide, at worst over g tied draws on 1..w.

    The colliders redraw uniformly on 1..w; the other draws are held.
    """
    values = range(1, w + 1)
    tied = [c for c in itertools.combinations_with_replacement(values, g) if c[0] == c[1]]
    index = {c: i for i, c in enumerate(tied)}
    steps = []
    for config in tied:
        k = config.count(config[0])
        after = collections.Counter(tuple(sorted(config[k:] + fresh))
                                    for fresh in itertools.product(values, repeat=k))
        steps.append([(index[c], count / w**k) for c, count in after.items() if c[0] == c[1]])
    alive = [1.0] * len(tied)
    for _ in range(rounds):
        alive = [sum(p * alive[j] for j, p in step) for step in steps]
    return max(alive)


class TestCollisionStreakCap:
    """The engine's bound on consecutive collision rounds (``simulator._exchange``)."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_repeating_draw_source_raises_at_the_cap(self, scheme):
        # Two UAVs want all three packets, so they draw equal backoffs forever.
        holdings = [IndicatorVector.from_mask(0, 3), IndicatorVector.from_mask(0, 3),
                    IndicatorVector.ones(3)]
        source = _RepeatingDraws()
        with pytest.raises(RuntimeError, match="collision rounds in a row"):
            run_cluster_exchange(range(3), holdings, TIMING, scheme, source)
        cap = ((3).bit_length() + 1) * (60 + (2 * 3 * 4).bit_length())
        # The two first draws, then two redraws per collision round below the cap.
        assert source.calls == 2 + 2 * cap

    def test_the_narrowest_windows_never_raise(self):
        # W = 2M leaves 2 values per subwindow: the longest correct streaks.
        for config in (ScenarioConfig(10, 6, 0.7, 3), ScenarioConfig(20, 10, 0.6, 6),
                       ScenarioConfig(40, 4, 0.3, 4)):
            timing = TimingConfig(cw_total_us=2 * config.num_packets)
            collisions = 0
            for scheme in Scheme:
                for k in range(100):
                    result = run_scenario(replace(config, scheme=scheme), k, timing=timing)
                    collisions += sum(r.collision_count for r in result.cluster_results)
            assert collisions > 1000

    def test_the_cap_rests_on_blocks_survived_with_under_half_chance(self):
        # At w = 2, k colliders put Binomial(k, 1/2) on the lower value: one ends the
        # streak, j >= 2 collide again, none ties all g members on the upper value.
        # chain[k, j] is the chance of j; alive[k, g] is the chance that k colliders
        # among g members collide in every one of the rounds so far.
        size = 256
        chain = np.array([[math.comb(k, j) / 2**k for j in range(size)] for k in range(size)])
        alive = np.ones((size, size))
        survived = {}
        for rounds in range(1, size.bit_length() + 1):
            alive = chain[:, 2:] @ alive[2:] + np.outer(chain[:, 0], np.diag(alive))
            survived[rounds] = {g: alive[2:g + 1, g].max() for g in range(2, size)}
        worst = max(survived[g.bit_length() + 1][g] for g in range(2, size))
        assert 0.33 < worst < 0.34
        # The chain is the exact law at w = 2, and wider subwindows survive less.
        for g in range(2, 5):
            rounds = g.bit_length() + 1
            assert _streak_survival(g, 2, rounds) == pytest.approx(survived[rounds][g])
            for w in range(3, 7):
                assert _streak_survival(g, w, rounds) < survived[rounds][g]


def _first_round_closed_form(k, w):
    """Exact P(collision), E[min] and Var[min] of k uniform integer draws on 1..w.

    P(min >= v) = ((w - v + 1) / w)^k; the minimum v collides unless exactly
    one draw takes it and the other k - 1 lie above it.
    """
    p_collide = Fraction(0)
    mean = Fraction(0)
    second_moment = Fraction(0)
    for v in range(1, w + 1):
        at_least, above = w - v + 1, w - v
        p_collide += Fraction(at_least**k - above**k - k * above ** (k - 1), w**k)
        mean += Fraction(at_least, w) ** k
        second_moment += v * v * Fraction(at_least**k - above**k, w**k)
    return p_collide, mean, second_moment - mean * mean


class TestContentionRoundClosedForm:
    """The engine's first round against exact sums, over 4,000 fixed seeds.

    k UAVs hold the same packets, so their request draws share one window
    (lo, lo + w]. The first trace record is then a collision at DIFS + lo +
    min, or a request at DIFS + lo + min + preamble. Tolerance: 4 SE.
    """

    SEEDS = range(4000)

    @pytest.mark.parametrize("scheme, held, k, window", [
        (Scheme.BASELINE_CSMA, (0, 0), 3, 12),           # (0, 12]
        (Scheme.MECHANISM_ONLY, (1, 0, 0, 0), 4, 30),    # subwindow 2: (7, 15]
        (Scheme.PROPOSED, (1, 1, 0, 0, 0, 0), 2, 40),    # subwindow 3: (13, 20]
    ])
    def test_first_round(self, scheme, held, k, window):
        num_packets = len(held)
        if scheme.uses_priority_backoff:
            # A stake of M - h lost packets (h held) draws in subwindow h + 1.
            lo, hi = subwindow_bounds(num_packets, sum(held) + 1, window)
        else:
            lo, hi = 0, window
        w = hi - lo
        timing = TimingConfig(cw_total_us=window)
        holdings = {u: IndicatorVector(held) for u in range(k)}
        collisions = 0
        total = 0
        for seed in self.SEEDS:
            trace = []
            run_cluster_exchange(range(k), holdings, timing, scheme,
                                 stream(seed, 0, "backoff/0"), trace=trace)
            first = trace[0]
            assert first.event in ("collision", "request")
            start = first.time_us - (timing.preamble_us if first.event == "request" else 0)
            shortest = start - timing.difs_us - lo
            assert 1 <= shortest <= w
            collisions += first.event == "collision"
            total += shortest
        n = len(self.SEEDS)
        p_collide, mean, variance = _first_round_closed_form(k, w)
        p = float(p_collide)
        assert abs(collisions / n - p) <= 4 * math.sqrt(p * (1 - p) / n), (collisions, p)
        assert abs(total / n - float(mean)) <= 4 * math.sqrt(float(variance) / n), (
            total / n, float(mean)
        )

    def test_closed_form_small_cases(self):
        # Two draws on {1, 2}: a tie half the time; min is 1 unless both are 2.
        assert _first_round_closed_form(2, 2) == (Fraction(1, 2), Fraction(5, 4), Fraction(3, 16))
        # One draw never collides.
        assert _first_round_closed_form(1, 5)[0] == 0


# Hypothesis favours the first choice; plain CSMA is the only scheme whose
# reply colliders can carry different packet counts, so it goes first.
CONTENTION_FIRST = (Scheme.BASELINE_CSMA, Scheme.MECHANISM_ONLY, Scheme.PROPOSED)


@st.composite
def exchange_inputs(draw):
    """One cluster: up to 10 UAVs with arbitrary ids, up to 10 packets, a window from 2M."""
    num_packets = draw(st.integers(1, 10))
    size = draw(st.integers(1, 10))
    members = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size, unique=True))
    masks = draw(st.lists(st.integers(0, (1 << num_packets) - 1),
                          min_size=len(members), max_size=len(members)))
    low = 2 * num_packets
    window = draw(st.one_of(st.sampled_from([low, 24, 9207]), st.integers(low, low + 6),
                            st.integers(low, 9207)))
    timing = draw(st.one_of(st.just(TIMING), small_timings))
    holdings = {u: IndicatorVector.from_mask(m, num_packets) for u, m in zip(members, masks)}
    return (members, holdings, replace(timing, cw_total_us=window),
            draw(st.sampled_from(CONTENTION_FIRST)), draw(st.integers(0, 2**32)),
            draw(st.integers(0, 5)))


class _ScriptedDraws:
    """Hands out the given backoffs in order, each for the draw bounds ``(low, high)``."""

    def __init__(self, values, bounds):
        self.values = list(values)
        self.bounds = bounds

    def integers(self, low, high):
        assert (low, high) == self.bounds
        return self.values.pop(0)


class TestReferenceExchange:
    """The engine against ``tests/reference.py``'s straight-line exchange."""

    @staticmethod
    def check(members, holdings, timing, scheme, seed, cluster_id=0):
        """Equal results, equal trace text and equal stream end positions.

        The engine draws through ``Pcg64Draws``, as every scenario run does;
        the reference draws with numpy's own ``integers``.
        """
        engine_rng, reference_rng = (stream(seed, 0, "backoff/0") for _ in range(2))
        source = Pcg64Draws(engine_rng.bit_generator)
        trace = []
        result = run_cluster_exchange(members, holdings, timing, scheme, source,
                                      trace=trace, cluster_id=cluster_id)
        expected, lines = reference_exchange(members, holdings, timing, scheme, reference_rng,
                                             cluster_id=cluster_id)
        assert (result.exchange_count, result.delay_us, result.completed,
                result.collision_count, result.unobtainable) == expected
        assert [trace_line(r) for r in trace] == lines
        assert source_position(source, engine_rng.bit_generator) == numpy_position(reference_rng)
        return trace

    @settings(max_examples=300, deadline=None)
    @given(exchange_inputs())
    def test_engine_equals_the_reference(self, case):
        self.check(*case)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("window", [12, 24])
    def test_contended_exchange_equals_the_reference(self, scheme, window):
        # Tight windows make requests and replies collide in every scheme, down
        # to the narrowest legal window (W = 2M = 12). Plain CSMA repliers with
        # different packet counts collide too, the one case where (frame end,
        # uav) order is not uav order.
        timing = replace(TIMING, cw_total_us=window)
        for seed in range(100):
            receipts = sample_initial_receipts(10, 6, 0.5, stream(seed, 0, "bs-delivery"))
            self.check(range(10), dict(enumerate(receipts)), timing, scheme, seed)

    def test_exchange_whose_draws_cross_word_blocks(self):
        # Plain CSMA over 20 UAVs makes about 150 draws, so its source reads
        # past its first block of raw words.
        receipts = sample_initial_receipts(20, 10, 0.6, stream(0, 0, "bs-delivery"))
        holdings = dict(enumerate(receipts))
        counted = counting_fetches(stream(0, 0, "backoff/0").bit_generator)
        run_cluster_exchange(range(20), holdings, TIMING, Scheme.BASELINE_CSMA, Pcg64Draws(counted))
        assert len(counted.fetched) >= 2
        self.check(range(20), holdings, TIMING, Scheme.BASELINE_CSMA, 0)

    def test_timeout_heavy_exchanges_equal_the_reference(self):
        # Four UAVs at rho = 0.3 often leave a packet with no holder, so many
        # requests time out, in every scheme and in tight windows.
        timeouts = 0
        for scheme in Scheme:
            for window in (12, 24):
                timing = replace(TIMING, cw_total_us=window)
                for seed in range(100):
                    receipts = sample_initial_receipts(4, 6, 0.3, stream(seed, 0, "bs-delivery"))
                    trace = self.check(range(4), dict(enumerate(receipts)), timing, scheme, seed)
                    timeouts += sum(r.event == "unobtainable" for r in trace)
        assert timeouts >= 1000

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("window, holder", [(2, 0), (3, 1), (24, 0), (61, 1)])
    def test_single_packet_mean_delay_is_exact(self, scheme, window, holder):
        # Both draws are uniform on [1, T], so the mean delay over all T^2
        # pairs is 2 DIFS + 2 preamble + payload + (T + 1).
        timing = replace(TIMING, cw_total_us=window)
        holdings = {holder: IndicatorVector((1,)), 1 - holder: IndicatorVector((0,))}
        totals = [Fraction(0), Fraction(0)]
        for first in range(1, window + 1):
            for second in range(1, window + 1):
                engine_src, reference_src = (
                    _ScriptedDraws((first, second), (1, window + 1)) for _ in range(2)
                )
                result = run_cluster_exchange([0, 1], holdings, timing, scheme, engine_src)
                expected, _ = reference_exchange([0, 1], holdings, timing, scheme,
                                                 reference_src)
                assert engine_src.values == reference_src.values == []
                totals[0] += result.delay_us
                totals[1] += expected[1]
        exact = (2 * timing.difs_us + 2 * timing.preamble_us + timing.payload_us_per_packet
                 + window + 1)
        assert [total / window**2 for total in totals] == [exact, exact]


class _CountingRng:
    """Forwards ``integers`` to a generator and counts the calls: one per backoff draw."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self.rng.integers(*args, **kwargs)


def backoff_consumption(config, run_index, timing=TIMING):
    """Draw counts per cluster and a digest of each ``backoff/<cluster>`` state after the exchange.

    The goldens catch changed draw values; this also catches an extra or a
    missing trailing draw, which leaves every printed figure unchanged.
    """
    seed = config.seed
    receipts = sample_initial_receipts(
        config.num_uavs, config.num_packets, config.delivery_rate,
        stream(seed, run_index, "bs-delivery"),
    )
    assignment = cluster_network(
        receipts, clusters_for_scheme(config), stream(seed, run_index, "tie-break")
    )
    draws = []
    digest = hashlib.sha256()
    for cluster_id, group in enumerate(assignment.members):
        rng = stream(seed, run_index, f"backoff/{cluster_id}")
        counted = _CountingRng(rng)
        run_cluster_exchange(group, {u: receipts[u] for u in group}, timing,
                             config.scheme, counted)
        draws.append(counted.draws)
        digest.update(repr((counted.draws, rng.bit_generator.state)).encode())
    return tuple(draws), digest.hexdigest()[:16]


def _ref10(scheme):
    return ScenarioConfig(10, 6, 0.7, 3, scheme=Scheme(scheme), seed=0)


# The inputs of the golden traces: (scheme, run index, cw_total_us).
GOLDEN_TRACE_INPUTS = {
    ("proposed", 0, 9207): ((9, 10, 7), "5df03f14b2a7ca3c"),
    ("mechanism_only", 0, 9207): ((30,), "dff2dd6bfbabeb7e"),
    ("baseline_csma", 0, 9207): ((50,), "38eda309d20272c2"),
    ("mechanism_only", 0, 24): ((40,), "c2da13e4857c0d60"),
    ("baseline_csma", 17, 24): ((67,), "cb3d95a83a0d7691"),
    ("proposed", 106, 9207): ((10, 20, 11), "0db76026c182b76f"),
}

# REF20 (U=20/M=10/rho=0.6/N=6) seed 0, runs 0..19: total draws of each run
# and one digest over every run's per-cluster counts and states.
REF20_RUNS = {
    "proposed": ([72, 81, 73, 85, 75, 80, 75, 75, 68, 83,
                  69, 80, 68, 72, 76, 83, 73, 70, 80, 78], "008394aeba31cdcb"),
    "mechanism_only": ([90, 94, 73, 115, 74, 94, 89, 90, 88, 96,
                        73, 95, 71, 105, 91, 75, 65, 99, 73, 71], "f4886b03f453141d"),
    "baseline_csma": ([125, 148, 129, 171, 176, 182, 130, 143, 199, 154,
                       172, 134, 135, 119, 133, 154, 186, 149, 184, 175], "0276c4735b05b4af"),
}


class TestBackoffStreamConsumption:
    """Draw counts and end states of the backoff streams, pinned for fixed inputs."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_TRACE_INPUTS))
    def test_golden_trace_inputs(self, key):
        scheme, run_index, window = key
        timing = replace(TIMING, cw_total_us=window)
        assert backoff_consumption(_ref10(scheme), run_index, timing) == GOLDEN_TRACE_INPUTS[key]

    @pytest.mark.parametrize("scheme", sorted(REF20_RUNS))
    def test_ref20_runs(self, scheme):
        config = ScenarioConfig(20, 10, 0.6, 6, scheme=Scheme(scheme), seed=0)
        per_run = [backoff_consumption(config, k) for k in range(20)]
        digest = hashlib.sha256(repr(per_run).encode()).hexdigest()[:16]
        assert ([sum(draws) for draws, _ in per_run], digest) == REF20_RUNS[scheme]


def _exchanges_on_both_paths(config, run_index, timing=TIMING):
    """Each cluster's exchange through ``Pcg64Draws`` and on the bare ``Generator``.

    Both paths draw from their own copy of the ``backoff/<cluster>`` stream:
    the source through the engine's inlined raw-word step, the generator
    through numpy's own ``integers``. Returns (fast, slow) lists of the
    result, the trace lines and the end position of the stream.
    """
    seed = config.seed
    receipts = sample_initial_receipts(
        config.num_uavs, config.num_packets, config.delivery_rate,
        stream(seed, run_index, "bs-delivery"),
    )
    assignment = cluster_network(
        receipts, clusters_for_scheme(config), stream(seed, run_index, "tie-break")
    )
    paths = ([], [])
    for cluster_id, group in enumerate(assignment.members):
        ours, theirs = (stream(seed, run_index, f"backoff/{cluster_id}") for _ in range(2))
        source = Pcg64Draws(ours.bit_generator)
        for outcomes, rng in zip(paths, (source, theirs)):
            trace = []
            result = run_cluster_exchange(group, {u: receipts[u] for u in group}, timing,
                                          config.scheme, rng, trace=trace)
            end = (numpy_position(theirs) if rng is theirs
                   else source_position(source, ours.bit_generator))
            outcomes.append((result, [trace_line(r) for r in trace], end))
    return paths


class TestFastDrawPath:
    """The engine's raw-word draws replay numpy's on every input the consumption pins cover."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_TRACE_INPUTS))
    def test_golden_trace_inputs(self, key):
        scheme, run_index, window = key
        fast, slow = _exchanges_on_both_paths(
            _ref10(scheme), run_index, replace(TIMING, cw_total_us=window)
        )
        assert fast == slow

    @pytest.mark.parametrize("scheme", sorted(REF20_RUNS))
    def test_ref20_runs(self, scheme):
        config = ScenarioConfig(20, 10, 0.6, 6, scheme=Scheme(scheme), seed=0)
        for k in range(20):
            fast, slow = _exchanges_on_both_paths(config, k)
            assert fast == slow, k

    @pytest.mark.parametrize("window", [(1 << 31) + 1, 1 << 32])
    @pytest.mark.parametrize("scheme", sorted(REF20_RUNS))
    def test_wide_windows(self, scheme, window):
        # Plain CSMA at 2**31 + 1 rejects about half its 32-bit words, and at
        # 2**32, the widest window, draws bare half-words; the subwindows of
        # both take the 32-bit path with thresholds far above zero.
        timing = replace(TIMING, cw_total_us=window)
        for k in range(10):
            fast, slow = _exchanges_on_both_paths(_ref10(scheme), k, timing)
            assert fast == slow, k


# U=10/M=6/rho=0.7/N=3 in a 24 us window (perfbench's compare-contended), seed 0,
# runs 0..19: total draws of each run, and collision rounds over the 20 runs.
CONTENDED_RUNS = {
    "proposed": ([32, 26, 33, 26, 40, 35, 26, 31, 30, 28,
                  24, 34, 21, 37, 41, 39, 28, 26, 32, 35], 45),
    "mechanism_only": ([40, 44, 36, 43, 53, 47, 45, 42, 48, 43,
                        44, 32, 37, 60, 57, 52, 48, 47, 52, 50], 78),
    "baseline_csma": ([55, 54, 51, 66, 66, 50, 43, 51, 54, 53,
                       50, 51, 51, 48, 55, 58, 39, 67, 49, 57], 30),
}


class TestDrawCallsPerRun:
    @staticmethod
    def draw_calls(config, timing, monkeypatch):
        """Per-run draw totals and collision rounds over runs 0..19, and the draw sources seen.

        Each run must make one ``stake_draws`` call per channel event, the
        first draws of each cluster included.
        """
        # perfbench counts draws at these globals, so each draw must still be one call.
        sources = set()
        calls = []
        for name in ("draw_backoff", "draw_baseline_backoff"):
            original = getattr(protocol, name)

            def counted(*args, _original=original):
                calls.append(1)
                sources.add(type(args[-1]))
                return _original(*args)

            monkeypatch.setattr(protocol, name, counted)
        # perfbench counts protocol calls at the simulator's protocol imports.
        events = []
        stake_draws = simulator.stake_draws

        def counted_event(*args):
            events.append(1)
            return stake_draws(*args)

        monkeypatch.setattr(simulator, "stake_draws", counted_event)
        totals, collisions = [], 0
        for k in range(20):
            before, events_before, trace = len(calls), len(events), []
            result = run_scenario(config, k, timing=timing, trace=trace)
            totals.append(len(calls) - before)
            channel_events = sum(r.event in ("request", "reply", "collision") for r in trace)
            assert len(events) - events_before == len(result.cluster_results) + channel_events
            collisions += sum(r.event == "collision" for r in trace)
        return totals, collisions, sources

    @pytest.mark.parametrize("scheme", sorted(REF20_RUNS))
    def test_ref20_draw_calls_through_protocol_globals(self, scheme, monkeypatch):
        config = ScenarioConfig(20, 10, 0.6, 6, scheme=Scheme(scheme), seed=0)
        totals, _, sources = self.draw_calls(config, TIMING, monkeypatch)
        assert totals == REF20_RUNS[scheme][0]
        assert sources == {Pcg64Draws}

    @pytest.mark.parametrize("scheme", sorted(CONTENDED_RUNS))
    def test_contended_draw_calls_through_protocol_globals(self, scheme, monkeypatch):
        # 4 us subwindows: collision redraws write into the contending draws in place.
        timing = replace(TIMING, cw_total_us=24)
        totals, collisions, sources = self.draw_calls(_ref10(scheme), timing, monkeypatch)
        assert (totals, collisions) == CONTENDED_RUNS[scheme]
        assert sources == {Pcg64Draws}


class TestGivenReceipts:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_the_run_own_receipts_give_the_same_run(self, scheme):
        config = ScenarioConfig(10, 6, 0.7, 3, scheme=scheme, seed=4)
        for k in range(5):
            receipts = sample_initial_receipts(10, 6, 0.7, stream(4, k, "bs-delivery"))
            assert run_scenario(config, k, receipts=receipts) == run_scenario(config, k)


class _StateCounter:
    """A PCG64 stand-in that counts reads and writes of ``state``."""

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self.random_raw = bit_generator.random_raw
        self.reads = self.writes = 0

    @property
    def state(self):
        self.reads += 1
        return self._bit_generator.state

    @state.setter
    def state(self, value):
        self.writes += 1
        self._bit_generator.state = value


class TestBackoffSourceOwnership:
    """Backoff streams are drawn without touching their state; a ``Generator`` as numpy draws."""

    @pytest.mark.parametrize("label", ["backoff/0", "backoff/5", "tie-break"])
    def test_a_just_derived_stream_holds_no_half_word(self, label):
        state = stream(7, 3, label).bit_generator.state
        assert (state["has_uint32"], state["uinteger"]) == (0, 0)

    def test_source_reads_no_state_and_draws_as_a_just_derived_generator(self):
        counted = _StateCounter(stream(7, 3, "backoff/0").bit_generator)
        source = Pcg64Draws(counted)
        twin = stream(7, 3, "backoff/0")
        assert source.halves == [] and numpy_position(twin)[1:] == (0, 0)
        # A span of 1024 divides 2**32, so no draw is rejected: a stray pending
        # half-word would show in the very first value.
        bounds = [(0, 1024), (1, 1536), (1, 9208), (3069, 4604), (1, 25), (1, 2**32 + 1)] * 8
        assert [source.integers(*b) for b in bounds] == [twin.integers(*b) for b in bounds]
        # A span above 2**32 is refused, and reads no half-word.
        with pytest.raises(ValueError, match=r"above 2\*\*32"):
            source.integers(1, 2**40)
        assert (counted.reads, counted.writes) == (0, 0)
        assert source_position(source, counted) == numpy_position(twin)

    def test_a_plain_generator_ends_where_a_source_twin_does(self):
        rng = stream(1, 0, "backoff/0")
        bit_generator = stream(1, 0, "backoff/0").bit_generator
        twin = Pcg64Draws(bit_generator)
        run_cluster_exchange(list(FIG_HOLDINGS), FIG_HOLDINGS, TIMING, Scheme.MECHANISM_ONLY, rng)
        run_cluster_exchange(list(FIG_HOLDINGS), FIG_HOLDINGS, TIMING, Scheme.MECHANISM_ONLY, twin)
        assert len(twin.halves) % 2 == 1  # the exchange ends on a pending half-word
        assert numpy_position(rng) == source_position(twin, bit_generator)

    def test_engine_never_touches_the_state_of_a_source_it_was_handed(self):
        counted = _StateCounter(stream(1, 0, "backoff/0").bit_generator)
        source = Pcg64Draws(counted)
        run_cluster_exchange(list(FIG_HOLDINGS), FIG_HOLDINGS, TIMING, Scheme.MECHANISM_ONLY,
                             source)
        assert len(source.halves) % 2 == 1
        assert (counted.reads, counted.writes) == (0, 0)

    def test_run_scenario_reads_and_writes_no_backoff_state(self, monkeypatch):
        config = ScenarioConfig(10, 6, 0.7, 3, seed=0)
        expected = run_scenario(config, 0)
        counters = []
        original = core.stream

        def counted_stream(seed, run_index, label, block=None):
            rng = original(seed, run_index, label, block=block)
            if not label.startswith("backoff/"):
                return rng
            counters.append(_StateCounter(rng.bit_generator))
            return SimpleNamespace(bit_generator=counters[-1])

        monkeypatch.setattr(core, "stream", counted_stream)
        assert run_scenario(config, 0) == expected
        assert len(counters) == 3
        assert all((c.reads, c.writes) == (0, 0) for c in counters)


class TestTieBreakStream:
    @staticmethod
    def _labels(monkeypatch, fn, *args):
        labels = []
        original = core.stream

        def recorded(seed, run_index, label, block=None):
            labels.append(label)
            return original(seed, run_index, label, block=block)

        monkeypatch.setattr(core, "stream", recorded)
        fn(*args)
        return labels

    @pytest.mark.parametrize("scheme, clusters, derived", [
        (Scheme.PROPOSED, 3, True),
        (Scheme.PROPOSED, 5, True),
        (Scheme.PROPOSED, 2, False),
        (Scheme.PROPOSED, 1, False),
        (Scheme.MECHANISM_ONLY, 3, False),
        (Scheme.BASELINE_CSMA, 5, False),
    ])
    def test_run_scenario_derives_it_only_for_odd_clustering(
        self, scheme, clusters, derived, monkeypatch
    ):
        config = ScenarioConfig(10, 6, 0.7, clusters, scheme=scheme, seed=0)
        labels = self._labels(monkeypatch, run_scenario, config, 0)
        assert ("tie-break" in labels) == derived
        assert labels[0] == "bs-delivery"

    @pytest.mark.parametrize("clusters", range(1, 10))
    def test_full_set_rate_samples_derive_it_only_when_read(self, clusters, monkeypatch):
        config = ScenarioConfig(10, 6, 0.7, clusters, seed=0)
        labels = self._labels(monkeypatch, full_set_rate_samples, config, 3)
        assert labels.count("tie-break") == (3 if reads_tie_break(clusters) else 0)
        assert labels.count("bs-delivery") == 3

    def test_full_set_rate_sweep_derives_it_for_each_count_that_reads_it(self, monkeypatch):
        # N = 3, 5, 7 and 9 read it; each derives the run's stream afresh.
        spec = SweepSpec(ScenarioConfig(20, 10, 0.6, 1, seed=5), "num_clusters",
                         tuple(range(1, 10)), runs=4)
        expected = per_point_full_set_rate(spec)
        labels = self._labels(monkeypatch, sweep_full_set_rate, spec)
        assert labels == ["bs-delivery", *["tie-break"] * 4] * 4
        assert sweep_full_set_rate(spec) == expected

    def test_full_set_rate_sweep_reads_and_writes_no_tie_break_state(self, monkeypatch):
        spec = SweepSpec(ScenarioConfig(20, 10, 0.6, 1, seed=5), "num_clusters",
                         tuple(range(1, 10)), runs=4)
        expected = per_point_full_set_rate(spec)
        counters = []
        original = core.stream

        def counted_stream(seed, run_index, label, block=None):
            rng = original(seed, run_index, label, block=block)
            if label != "tie-break":
                return rng
            counters.append(_StateCounter(rng.bit_generator))
            return SimpleNamespace(integers=rng.integers, bit_generator=counters[-1])

        monkeypatch.setattr(core, "stream", counted_stream)
        assert sweep_full_set_rate(spec) == expected
        assert counters
        assert all((c.reads, c.writes) == (0, 0) for c in counters)

    def test_full_set_rate_sweep_without_odd_counts_derives_none(self, monkeypatch):
        spec = SweepSpec(ScenarioConfig(20, 10, 0.6, 1, seed=5), "num_clusters",
                         (1, 2, 4, 6), runs=3)
        assert "tie-break" not in self._labels(monkeypatch, sweep_full_set_rate, spec)

    @pytest.mark.parametrize("clusters", range(1, 10))
    def test_rule_matches_what_clustering_consumes(self, clusters):
        receipts = sample_initial_receipts(10, 6, 0.7, stream(3, 0, "bs-delivery"))
        counted = _CountingRng(stream(3, 0, "tie-break"))
        cluster_network(receipts, clusters, counted)
        assert (counted.draws > 0) == reads_tie_break(clusters)

    def test_odd_count_without_a_stream_is_refused(self):
        receipts = sample_initial_receipts(10, 6, 0.7, stream(3, 0, "bs-delivery"))
        with pytest.raises(ValueError, match="tie-break"):
            cluster_network(receipts, 3, None)
        assert cluster_network(receipts, 4, None) == cluster_network(
            receipts, 4, stream(3, 0, "tie-break")
        )
