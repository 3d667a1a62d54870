"""The per-event protocol rules, built around the four-UAV walkthrough, and the frames they send.

A cluster's state is a list per quantity, indexed by position in the sorted
member list; the walkthrough fleet's positions are its uav ids. Frames exist
only as trace records, so the frame rules are checked on the traces of random
exchanges.
"""

import functools

import numpy as np
import pytest

from uavex.core import IndicatorVector, Scheme, packet_mask, stream
from uavex.mac import TimingConfig, draw_backoff, subwindow_bounds
from uavex.protocol import (
    TraceRecord,
    absorb_reply,
    first_draws,
    open_request,
    redraw_colliders,
    trace_line,
)
from uavex.simulator import run_cluster_exchange, sample_initial_receipts

TIMING = TimingConfig()
WINDOW = TIMING.cw_total_us
M = 6
FULL = (1 << M) - 1


def mask(*packets):
    return packet_mask(packets)


def rng():
    return stream(0, 0, "backoff/0")


# The walkthrough fleet: UAV 0 holds {w1,w2,w4}, UAV 1 {w2..w6},
# UAV 2 {w3,w5}, UAV 3 {w1,w2,w3,w4,w6} (0-based ids below).
def walkthrough_held():
    return [mask(0, 1, 3), mask(1, 2, 3, 4, 5), mask(2, 4), mask(0, 1, 2, 3, 5)]


def draw_requests(held, priority=True, source=None):
    return first_draws(held, FULL, M, WINDOW, priority, source or rng())


def reply_draws(held, asked):
    return open_request(held, asked, M, WINDOW, True, rng())


def in_subwindow(draw, subwindow, num_packets=M):
    lo, hi = subwindow_bounds(num_packets, subwindow, WINDOW)
    return lo < draw <= hi


def run(holdings, scheme=Scheme.MECHANISM_ONLY, seed=0):
    trace = []
    result = run_cluster_exchange(list(holdings), holdings, TIMING, scheme,
                                  stream(seed, 0, "backoff/0"), trace=trace)
    return result, trace


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
            draws += draw_requests([walkthrough_held()[2]], False, stream(seed, 0, "backoff/0"))
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


def after_request(requester=2):
    """The walkthrough fleet with first draws, once ``requester`` has sent its request."""
    held = walkthrough_held()
    requests = draw_requests(held)
    requests[requester] = 0
    return held, requests


def absorb(held, requests, *packets, requester=2):
    absorb_reply(held, requests, requester, mask(*packets), FULL, M, WINDOW, True, rng())


class TestAbsorbReply:
    def test_partial_absorption_redraws(self):
        held, requests = after_request()
        assert in_subwindow(requests[0], 4)  # UAV 0 misses {w3,w5,w6}
        absorb(held, requests, 0, 1, 3, 5)
        assert held[0] == FULL & ~mask(2, 4)
        assert in_subwindow(requests[0], 5)  # redrawn for two missing

    def test_disjoint_reply_keeps_draw(self):
        held, requests = after_request()
        original = requests[0]
        absorb(held, requests, 0, 1)
        assert requests[0] == original

    def test_covering_reply_finishes(self):
        held, requests = after_request()
        absorb(held, requests, 2, 4, 5)
        assert held[0] == FULL
        assert requests[0] == 0

    def test_holdings_never_shrink(self):
        held, requests = after_request()
        before = list(held)
        absorb(held, requests, 0, 2)
        assert all(b & ~a == 0 for a, b in zip(held, before))

    def test_reply_naming_a_packet_beyond_the_scenario_is_refused(self):
        held, requests = after_request()
        before = (list(held), list(requests))
        for packets in ((6,), (2, 6), (0, 9)):
            with pytest.raises(ValueError, match="does not fit 6 packets"):
                absorb(held, requests, *packets)
            assert (held, requests) == before

    def test_requester_draws_again_only_while_wanting(self):
        held, requests = after_request()  # requester 2 misses {0, 1, 3, 5}
        absorb(held, requests, 0, 1)
        assert in_subwindow(requests[2], 5)  # two still missing
        requests[2] = 0  # it requests again
        absorb(held, requests, 3, 5)
        assert requests[2] == 0


class TestCancelReply:
    def test_competing_reply_cancels(self):
        # A clean reply closes the transaction: no request gets a second reply.
        for _, trace in random_exchanges():
            events = [r.event for r in trace if r.event in ("request", "reply")]
            assert "reply,reply" not in ",".join(events)

    def test_unrelated_request_does_not_cancel(self):
        # A collision redraws the colliders' draws and leaves the others pending.
        held = walkthrough_held()
        requests = draw_requests(held)
        before = list(requests)
        redraw_colliders(requests, [1], [FULL & ~held[1]], M, WINDOW, True, rng())
        assert [requests[i] == before[i] for i in range(4)] == [True, False, True, True]

    def test_own_transmission_is_no_op(self):
        held, requests = after_request()
        before = held[3], requests[3]
        absorb(held, requests, 0, 1, 3, 5)  # UAV 3's own reply
        assert (held[3], requests[3]) == before


class TestRedrawColliders:
    def test_redraws_in_order_within_current_subwindows(self):
        held = walkthrough_held()
        asked = FULL & ~held[2]  # {0, 1, 3, 5}
        draws, twin = [0] * 4, rng()
        redraw_colliders(draws, [3, 0], [asked & held[3], asked & held[0]], M, WINDOW, True,
                         rng())
        assert draws[3] == draw_backoff(M, 4, WINDOW, twin)
        assert draws[0] == draw_backoff(M, 3, WINDOW, twin)
        requests = [0] * 4
        redraw_colliders(requests, [1, 0], [FULL & ~held[1], FULL & ~held[0]], M, WINDOW, True,
                         rng())
        assert in_subwindow(requests[1], 6)  # missing one
        assert in_subwindow(requests[0], 4)  # missing three


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

    def test_idle_without_draws(self):
        # Once the first reply lands, UAVs 1 and 2 want nothing and hold no draw.
        held, requests = after_request()
        absorb(held, requests, 0, 1, 3, 5, requester=2)
        assert [d > 0 for d in requests] == [True, False, False, True]
        assert [FULL & ~m == 0 for m in held] == [False, True, True, False]


def test_trace_line_format_is_stable():
    record = TraceRecord(9462, 2, "request", (0, 1, 3, 5), None, 0)
    assert trace_line(record) == "t=    9462us cluster=0 uav=2 request [w1,w2,w4,w6]"
    reply = TraceRecord(18020, 3, "reply", (0, 1, 3, 5), 2, 1)
    assert trace_line(reply) == "t=   18020us cluster=1 uav=3 reply [w1,w2,w4,w6] peer=2"
