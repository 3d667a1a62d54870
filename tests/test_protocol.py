"""The stake-draw rule, built around the four-UAV walkthrough, and the frames the UAVs send.

A cluster's state is a list per quantity, indexed by position in the sorted
member list; the walkthrough fleet's positions are its uav ids. Frames exist
only as trace records, so the frame rules are checked on the traces of random
exchanges. Who redraws after a reply or a collision is checked on the
``stake_draws`` calls the exchange loop makes, recorded with the stake of each
priority draw.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from uavex import protocol, simulator
from uavex.core import IndicatorVector, Scheme, packet_mask, stream
from uavex.mac import (
    Pcg64Draws, TimingConfig, draw_backoff, draw_baseline_backoff, draw_bounds, frame_duration,
    subwindow_bounds,
)
from uavex.protocol import TraceRecord, stake_draws, trace_line
from uavex.simulator import run_cluster_exchange, sample_initial_receipts

from reference import source_position

TIMING = TimingConfig()
WINDOW = TIMING.cw_total_us
M = 6
FULL = (1 << M) - 1
BOUNDS = draw_bounds(M, WINDOW)


def mask(*packets):
    return packet_mask(packets)


def rng(seed=0):
    """A ``Pcg64Draws`` over a just-derived stream, as a scenario run hands the engine."""
    return Pcg64Draws(stream(seed, 0, "backoff/0").bit_generator)


# The walkthrough fleet: UAV 0 holds {w1,w2,w4}, UAV 1 {w2..w6},
# UAV 2 {w3,w5}, UAV 3 {w1,w2,w3,w4,w6} (0-based ids below).
def walkthrough_held():
    return [mask(0, 1, 3), mask(1, 2, 3, 4, 5), mask(2, 4), mask(0, 1, 2, 3, 5)]


def drawn(held, uavs, flip, keep, bounds=BOUNDS, source=None):
    """The draws ``stake_draws`` writes at ``uavs``, in their order, into a fresh list."""
    draws = [0] * len(held)
    stake_draws(held, uavs, flip, keep, bounds, WINDOW, source or rng(), draws)
    return [draws[i] for i in uavs]


def draw_requests(held, priority=True, source=None):
    return drawn(held, range(len(held)), FULL, FULL, BOUNDS if priority else None, source)


def reply_draws(held, asked):
    return drawn(held, range(len(held)), 0, asked)


def in_subwindow(draw, subwindow, num_packets=M, window=WINDOW):
    lo, hi = subwindow_bounds(num_packets, subwindow, window)
    return lo < draw <= hi


def run(holdings, scheme=Scheme.MECHANISM_ONLY, seed=0, timing=TIMING):
    trace = []
    result = run_cluster_exchange(list(holdings), holdings, timing, scheme,
                                  stream(seed, 0, "backoff/0"), trace=trace)
    return result, trace


@pytest.fixture
def draw_calls(monkeypatch):
    """The exchange loop's ``stake_draws`` calls, recorded as they are made.

    Each call keeps its positions (``uavs``), the holdings it saw (``held``),
    the ``(num_packets, stake)`` of each priority draw it made (``stakes``,
    found from the draw range in its bounds table) and the draws it wrote at
    its positions, in their order (``draws``).
    """
    calls = []
    staked, draw = protocol.stake_draws, protocol.draw_backoff

    def recorded_stake_draws(held, uavs, flip, keep, bounds, window, source, draws):
        call = SimpleNamespace(uavs=list(uavs), held=list(held), bounds=bounds, stakes=[])
        calls.append(call)
        staked(held, uavs, flip, keep, bounds, window, source, draws)
        call.draws = [draws[i] for i in uavs]

    def recorded_draw(low, high, source):
        bounds = calls[-1].bounds
        calls[-1].stakes.append((len(bounds) - 1, bounds.index((low, high))))
        return draw(low, high, source)

    monkeypatch.setattr(simulator, "stake_draws", recorded_stake_draws)
    monkeypatch.setattr(protocol, "draw_backoff", recorded_draw)
    return calls


def walkthrough(seed=42, timing=TIMING):
    """The walkthrough fleet's exchange under the mechanism-only scheme.

    ``GOLDEN_TRACE`` in ``test_simulator.py`` is its trace at seed 42: UAV 2
    asks for {w1,w2,w4,w6} and UAV 3 supplies all four; then UAV 0 asks for
    {w3,w5} and UAV 1 supplies both.
    """
    holdings = {u: IndicatorVector.from_mask(m, M) for u, m in enumerate(walkthrough_held())}
    return run(holdings, seed=seed, timing=timing)


@functools.lru_cache(maxsize=None)
def random_exchanges():
    """Initial holdings and traces of 90 random clusters, 30 per scheme, some contended."""
    rng = np.random.default_rng(7)
    cases = []
    for trial in range(90):
        num_uavs, num_packets = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        receipts = sample_initial_receipts(num_uavs, num_packets, float(rng.uniform(0.2, 0.9)), rng)
        holdings = dict(enumerate(receipts))
        window = 2 * num_packets + trial % 5 if trial % 2 else WINDOW
        trace = []
        run_cluster_exchange(list(holdings), holdings,
                             TimingConfig(cw_total_us=window), list(Scheme)[trial % 3],
                             stream(trial, 2, "backoff/0"), trace=trace)
        cases.append((holdings, trace))
    return cases


def frames():
    return [r for _, trace in random_exchanges() for r in trace if r.event != "done"]


class TestFrame:
    def test_request_requires_packets(self):
        assert all(record.packets for record in frames())

    def test_reply_requires_target(self):
        for _, trace in random_exchanges():
            open_request_by = None
            for record in trace:
                if record.event == "request":
                    open_request_by = record.uav
                elif record.event == "reply":
                    assert record.peer == open_request_by is not None

    def test_request_cannot_reply(self):
        assert all(r.peer is None for r in frames() if r.event != "reply")

    def test_fields(self):
        holdings = {u: IndicatorVector.from_mask(m, M) for u, m in enumerate(walkthrough_held())}
        _, trace = run(holdings, seed=42)
        reply = next(r for r in trace if r.event == "reply")
        assert (reply.uav, reply.event, reply.packets, reply.peer) == (3, "reply", (0, 1, 3, 5), 2)


class TestDecideRequest:
    def test_neediest_uav_gets_subwindow_three(self):
        (draw,) = draw_requests([walkthrough_held()[2]])  # missing 4 of 6
        assert in_subwindow(draw, 3)

    def test_full_uav_declines(self):
        assert draw_requests([FULL]) == [0]

    def test_all_missing_unobtainable_means_done(self):
        result, trace = run({0: IndicatorVector.from_mask(mask(0, 1, 3), M)})
        assert [(r.event, r.packets) for r in trace] == [
            ("request", (2, 4, 5)), ("unobtainable", (2, 4, 5)), ("done", ())
        ]
        assert result.unobtainable == {2, 4, 5}
        assert not result.completed

    def test_baseline_draw_has_no_subwindow(self):
        draws = []
        for seed in range(40):
            draws += draw_requests([walkthrough_held()[2]], False, rng(seed))
        assert all(1 <= d <= WINDOW for d in draws)
        # A priority draw for four missing would stay in subwindow 3.
        assert not all(in_subwindow(d, 3) for d in draws)


class TestDecideReply:
    def test_best_supplier_always_wins(self):
        held = walkthrough_held()
        draws = reply_draws(held, FULL & ~held[2])
        assert [d > 0 for d in draws] == [True, True, False, True]
        best, partial = draws[3], draws[0]
        assert in_subwindow(best, 3)  # supplies all four requested packets
        assert in_subwindow(partial, 4)  # supplies three
        assert best < partial

    def test_holder_of_nothing_requested_declines(self):
        assert reply_draws([mask(0, 1)], mask(5)) == [0]

    def test_own_request_declines(self):
        held = walkthrough_held()
        assert reply_draws(held, FULL & ~held[2])[2] == 0

    def test_equal_supply_shares_a_subwindow(self):
        draws = reply_draws([FULL, FULL], mask(2, 4))
        assert all(in_subwindow(d, 5) for d in draws) and len(draws) == 2


def replay_frames(holdings, trace):
    """Check every request against what its sender lacks and every reply against what it holds.

    A UAV whose request timed out never requests again.
    """
    have = {u: v.mask for u, v in holdings.items()}
    every = (1 << len(next(iter(holdings.values())))) - 1
    timed_out = set()
    asked = None
    for record in trace:
        packets = packet_mask(record.packets)
        if record.event == "request":
            assert record.uav not in timed_out
            assert packets == every & ~have[record.uav]
            asked = packets
        elif record.event == "reply":
            assert packets == asked & have[record.uav]
            for u in have:
                have[u] |= packets
        elif record.event == "unobtainable":
            timed_out.add(record.uav)


class TestBuildFrames:
    def test_request_lists_wanted(self):
        for holdings, trace in random_exchanges():
            replay_frames(holdings, trace)

    def test_reply_carries_exact_intersection(self):
        holdings = {u: IndicatorVector.from_mask(m, M) for u, m in enumerate(walkthrough_held())}
        for seed in range(10):
            _, trace = run(holdings, seed=seed)
            replay_frames(holdings, trace)

    def test_full_set_uav_answers_whole_request(self):
        # UAV 1 misses only w1, and UAV 2 is full after the first reply.
        holdings = {u: IndicatorVector.from_mask(m, M) for u, m in enumerate(walkthrough_held())}
        for seed in range(10):
            _, trace = run(holdings, seed=seed)
            requests = [r for r in trace if r.event == "request"]
            replies = [r for r in trace if r.event == "reply"]
            assert replies[1].packets == requests[1].packets == (2, 4)

    def test_single_packet_supplier(self):
        holdings = {0: IndicatorVector((1, 1, 0, 0)), 1: IndicatorVector((1, 1, 1, 0))}
        _, trace = run(holdings, seed=3)
        request, reply = [r for r in trace if r.event in ("request", "reply")][:2]
        assert (request.packets, reply.packets) == ((2, 3), (2,))

    def test_no_supply_is_an_error(self):
        # Only holders of some requested packet draw a reply.
        draws = reply_draws([mask(0), mask(5), mask(4, 5), 0], mask(5))
        assert [d > 0 for d in draws] == [False, True, True, False]


class TestStakeDrawsInPlace:
    """``stake_draws`` writes only its listed positions, in order; an empty stake draws nothing."""

    @staticmethod
    def sources():
        """A ``Pcg64Draws`` over the test stream, its generator, and a twin source."""
        ours = stream(0, 0, "backoff/0")
        return Pcg64Draws(ours.bit_generator), ours.bit_generator, rng()

    @pytest.mark.parametrize("bounds", [BOUNDS, None], ids=["priority", "csma"])
    def test_only_listed_positions_are_written(self, bounds):
        draws = [-1, -2, -3, -4]
        assert stake_draws(walkthrough_held(), [3, 1], FULL, FULL, bounds, WINDOW, rng(),
                           draws) is None
        assert (draws[0], draws[2]) == (-1, -3)
        assert draws[1] > 0 and draws[3] > 0

    @pytest.mark.parametrize("bounds", [BOUNDS, None], ids=["priority", "csma"])
    def test_empty_stake_writes_zero_and_draws_nothing(self, bounds):
        # UAV 0 holds none of {w1,w2}, and the full UAV 1 lacks nothing.
        source, bit_generator, _ = self.sources()
        before = source_position(source, bit_generator)
        held = [mask(2, 4), FULL]
        draws = [7, 7]
        stake_draws(held, [0], 0, mask(0, 1), bounds, WINDOW, source, draws)
        stake_draws(held, [1], FULL, FULL, bounds, WINDOW, source, draws)
        assert draws == [0, 0]
        assert source_position(source, bit_generator) == before

    @pytest.mark.parametrize("bounds", [BOUNDS, None], ids=["priority", "csma"])
    def test_draws_follow_the_listed_order(self, bounds):
        # UAV 3 lacks one packet, UAV 0 three and UAV 2 four; the full UAV 1,
        # listed between them, takes no draw.
        held = walkthrough_held()
        held[1] = FULL
        source, _, twin = self.sources()
        draws = [0] * 4
        stake_draws(held, [3, 1, 0, 2], FULL, FULL, bounds, WINDOW, source, draws)

        def twin_draw(stake):
            if bounds is None:
                return draw_baseline_backoff(1, WINDOW + 1, twin)
            return draw_backoff(*bounds[stake], twin)

        expected = [twin_draw(1), twin_draw(3), twin_draw(4)]  # positions 3, 0 and 2
        assert draws == [expected[1], 0, expected[2], expected[0]]
        assert source.halves == twin.halves


class TestOneCallPerChannelEvent:
    def test_walkthrough_calls(self, draw_calls):
        # First draws, then UAV 2's request, UAV 3's reply, UAV 0's request
        # and UAV 1's reply: one call per event, each sized by its stakes.
        _, trace = walkthrough()
        assert [r.event for r in trace if r.event != "done"] == [
            "request", "reply", "request", "reply"]
        assert [(c.uavs, c.stakes) for c in draw_calls] == [
            ([0, 1, 2, 3], [(M, 3), (M, 1), (M, 4), (M, 1)]),  # what each lacks
            ([0, 1, 2, 3], [(M, 3), (M, 3), (M, 4)]),  # what each holds of {w1,w2,w4,w6}
            ([0, 1, 2], [(M, 2)]),
            ([0, 1, 2, 3], [(M, 2), (M, 2), (M, 1)]),  # what each holds of {w3,w5}
            ([3, 0], []),
        ]
        assert [[d > 0 for d in c.draws] for c in draw_calls] == [
            [True] * 4, [True, True, False, True], [True, False, False],
            [False, True, True, True], [False, False],
        ]


class TestAbsorbReply:
    """After a clean reply, who redraws a request draw, in what order and for what stake."""

    def test_partial_absorption_redraws(self, draw_calls):
        walkthrough()
        reply = draw_calls[2]
        assert reply.held[0] == FULL & ~mask(2, 4)  # UAV 0 took in w6 of the reply
        assert reply.uavs[0] == 0 and reply.stakes[0] == (M, 2)
        assert in_subwindow(reply.draws[0], 5)  # redrawn for two missing

    def test_disjoint_reply_keeps_draw(self, draw_calls):
        # UAV 1 asks for {w1,w2,w4}; UAV 2 supplies {w1,w2}, which UAV 0
        # already holds, so only the requester redraws. UAV 0's first draw
        # then sends its request, whole.
        holdings = {0: IndicatorVector((1, 1, 0, 0)), 1: IndicatorVector((0, 0, 1, 0)),
                    2: IndicatorVector((1, 1, 1, 0))}
        _, trace = run(holdings)
        request, reply, second = [r for r in trace if r.event in ("request", "reply")][:3]
        assert (request.uav, reply.uav, reply.packets, second.uav) == (1, 2, (0, 1), 0)
        assert (draw_calls[2].uavs, draw_calls[2].stakes) == ([1], [(4, 1)])
        assert second.time_us == (reply.time_us + TIMING.difs_us + draw_calls[0].draws[0]
                                  + frame_duration(0, TIMING))

    def test_covering_reply_finishes(self, draw_calls):
        walkthrough()
        reply = draw_calls[2]
        assert reply.held[1] == FULL  # UAV 1 took in w1
        assert reply.uavs[1] == 1 and reply.draws[1] == 0
        assert reply.stakes == [(M, 2)]  # UAV 0's draw only: a full UAV draws nothing

    @pytest.mark.parametrize("seed", range(5))
    def test_holdings_never_shrink(self, draw_calls, seed):
        walkthrough(seed)
        for before, after in zip(draw_calls, draw_calls[1:]):
            assert all(b & ~a == 0 for a, b in zip(after.held, before.held))
        assert draw_calls[-1].held == [FULL, FULL, FULL, FULL]

    def test_requester_draws_again_only_while_wanting(self, draw_calls):
        walkthrough()  # UAV 2 gets all four packets it asked for
        assert draw_calls[2].uavs[-1] == 2 and draw_calls[2].draws[-1] == 0
        del draw_calls[:]
        # UAV 0 asks for {w3,w4} and gets w3 alone, so it draws again, last,
        # for the one packet it still lacks.
        holdings = {0: IndicatorVector((1, 1, 0, 0)), 1: IndicatorVector((1, 1, 1, 0))}
        _, trace = run(holdings, seed=3)
        assert [(r.event, r.uav) for r in trace[:2]] == [("request", 0), ("reply", 1)]
        reply = draw_calls[2]
        assert (reply.uavs, reply.stakes) == ([0], [(4, 1)])
        assert in_subwindow(reply.draws[0], 4, num_packets=4)


CONTENDED = TimingConfig(cw_total_us=8)


def contended_replies():
    """A plain CSMA trace: UAV 0 holds nothing of 4 packets, UAVs 1, 2 and 3 hold 3, 2 and 1.

    At seed 11 in an 8 us window, UAVs 1 and 2 collide replying to UAV 0's
    first request.
    """
    holdings = {0: IndicatorVector.from_mask(0, 4), 1: IndicatorVector.from_mask(0b111, 4),
                2: IndicatorVector.from_mask(0b11, 4), 3: IndicatorVector.from_mask(0b1, 4)}
    return run(holdings, Scheme.BASELINE_CSMA, seed=11, timing=CONTENDED)[1]


class TestCancelReply:
    def test_competing_reply_cancels(self):
        # A clean reply closes the transaction: no request gets a second reply.
        for _, trace in random_exchanges():
            events = [r.event for r in trace if r.event in ("request", "reply")]
            assert "reply,reply" not in ",".join(events)

    def test_unrelated_request_does_not_cancel(self, draw_calls):
        # UAVs 1 and 2 collide replying to UAV 0; only they redraw, and UAV
        # 3's pending reply draw then wins the next round, unchanged.
        trace = contended_replies()
        request, collision, reply = trace[:3]
        assert (request.uav, collision.event, reply.event, reply.uav) == (
            0, "collision", "reply", 3)
        assert sorted(draw_calls[2].uavs) == [1, 2]
        end = collision.time_us + frame_duration(3, CONTENDED)  # UAV 1's three-packet frame
        assert reply.time_us == (end + CONTENDED.difs_us + draw_calls[1].draws[3]
                                 + frame_duration(1, CONTENDED))

    def test_own_transmission_is_no_op(self, draw_calls):
        walkthrough()  # UAV 3 sends the first reply
        assert 3 not in draw_calls[2].uavs
        assert draw_calls[3].held[3] == walkthrough_held()[3]


class TestRedrawColliders:
    def test_redraws_in_order_within_current_subwindows(self):
        held = walkthrough_held()
        asked = FULL & ~held[2]  # {0, 1, 3, 5}
        twin = rng()
        assert drawn(held, [3, 0], 0, asked) == [
            draw_backoff(*BOUNDS[4], twin), draw_backoff(*BOUNDS[3], twin)]
        requests = drawn(held, [1, 0], FULL, FULL)
        assert in_subwindow(requests[0], 6)  # UAV 1 misses one
        assert in_subwindow(requests[1], 4)  # UAV 0 misses three

    def test_colliders_redraw_in_frame_end_order(self, draw_calls):
        # UAV 2's two-packet reply ends before UAV 1's three-packet one.
        contended_replies()
        assert draw_calls[2].uavs == [2, 1]

    def test_equal_frames_redraw_in_position_order_for_their_stake(self, draw_calls):
        # In a 12 us window UAVs 1 and 2 collide four times replying to UAV 0's {w3,w5}.
        _, trace = walkthrough(seed=1, timing=TimingConfig(cw_total_us=12))
        assert [r.event for r in trace].count("collision") == 4
        redraws = draw_calls[4:8]
        assert [(c.uavs, c.stakes) for c in redraws] == [([1, 2], [(M, 2), (M, 2)])] * 4
        assert all(in_subwindow(d, 5, window=12) for c in redraws for d in c.draws)


class TestMarkUnobtainable:
    def test_own_silent_request_gives_up(self):
        # Both UAVs miss w6, which neither holds: each asks for it once, hears
        # no reply, and is done without holding it.
        full_but_w6 = IndicatorVector.from_mask(mask(0, 1, 2, 3, 4), M)
        for seed in range(10):
            result, trace = run({0: full_but_w6, 1: full_but_w6}, seed=seed)
            for uav in (0, 1):
                own = [(r.event, r.packets) for r in trace
                       if r.uav == uav and r.event in ("request", "unobtainable", "done")]
                assert own == [("request", (5,)), ("unobtainable", (5,)), ("done", ())]
            assert result.unobtainable == {5}
            assert not result.completed

    def test_only_still_missing_ids_are_marked(self):
        # Packet 3 exists nowhere; packet 2 only at UAV 1. UAV 0 first gets
        # w3 from its mate, then gives up on w4 alone.
        holdings = {0: IndicatorVector((1, 1, 0, 0)), 1: IndicatorVector((1, 1, 1, 0))}
        result, trace = run(holdings, seed=3)
        own = [(r.event, r.packets) for r in trace if r.uav == 0 and r.event != "done"]
        assert own[0] == ("request", (2, 3))
        assert own[-1] == ("unobtainable", (3,))
        assert result.unobtainable == {3}


class TestPhaseAndBackoffFields:
    def test_backoff_positive_in_backoff_phases(self):
        held = walkthrough_held()
        assert all(0 < d <= WINDOW for d in draw_requests(held))
        draws = reply_draws(held, FULL & ~held[2])
        assert [0 < d <= WINDOW for d in draws] == [True, True, False, True]

    def test_idle_without_draws(self, draw_calls):
        # Once the first reply lands, UAVs 1 and 2 want nothing and hold no draw.
        walkthrough()
        requests = list(draw_calls[0].draws)
        requests[2] = 0  # UAV 2's draw sent its request
        for i, draw in zip(draw_calls[2].uavs, draw_calls[2].draws):
            requests[i] = draw
        assert [d > 0 for d in requests] == [True, False, False, True]
        assert [FULL & ~m == 0 for m in draw_calls[3].held] == [False, True, True, False]


def test_trace_line_format_is_stable():
    record = TraceRecord(9462, 2, "request", (0, 1, 3, 5), None, 0)
    assert trace_line(record) == "t=    9462us cluster=0 uav=2 request [w1,w2,w4,w6]"
    reply = TraceRecord(18020, 3, "reply", (0, 1, 3, 5), 2, 1)
    assert trace_line(reply) == "t=   18020us cluster=1 uav=3 reply [w1,w2,w4,w6] peer=2"
