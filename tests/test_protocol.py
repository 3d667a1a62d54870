"""State-machine decisions built around the four-UAV walkthrough."""

import pytest

from uavex.core import IndicatorVector, Scheme, packet_mask, stream
from uavex.mac import BackoffDraw, FrameKind, TimingConfig, subwindow_bounds
from uavex.protocol import (
    Frame,
    TraceRecord,
    UavProtocolState,
    absorb_reply,
    build_reply,
    build_request,
    cancel_reply_if_answered,
    decide_reply,
    decide_request,
    mark_unobtainable,
    trace_line,
)

TIMING = TimingConfig()


def held(*packets, length=6):
    return IndicatorVector.from_packets(packets, length)


def rng():
    return stream(0, 0, "backoff/0")


# The walkthrough fleet: UAV 0 holds {w1,w2,w4}, UAV 1 {w2..w6},
# UAV 2 {w3,w5}, UAV 3 {w1,w2,w3,w4,w6} (0-based ids below).
def walkthrough_states():
    return [
        UavProtocolState(0, held(0, 1, 3)),
        UavProtocolState(1, held(1, 2, 3, 4, 5)),
        UavProtocolState(2, held(2, 4)),
        UavProtocolState(3, held(0, 1, 2, 3, 5)),
    ]


class TestFrame:
    def test_request_requires_packets(self):
        with pytest.raises(ValueError):
            Frame(FrameKind.REQUEST, 0, packet_mask(()))

    def test_reply_requires_target(self):
        with pytest.raises(ValueError):
            Frame(FrameKind.REPLY, 0, packet_mask({1}))

    def test_request_cannot_reply(self):
        with pytest.raises(ValueError):
            Frame(FrameKind.REQUEST, 0, packet_mask({1}), in_reply_to=2)


class TestDecideRequest:
    def test_neediest_uav_gets_subwindow_three(self):
        state = walkthrough_states()[2]  # missing 4 of 6
        draw = decide_request(state, TIMING, Scheme.PROPOSED, rng())
        assert draw.subwindow == 3
        lo, hi = subwindow_bounds(6, 3, TIMING.cw_total_us)
        assert lo < draw.duration_us <= hi

    def test_full_uav_declines(self):
        state = UavProtocolState(0, IndicatorVector.ones(6))
        assert decide_request(state, TIMING, Scheme.PROPOSED, rng()) is None

    def test_all_missing_unobtainable_means_done(self):
        state = UavProtocolState(0, held(0, 1, 3))
        state.unobtainable_mask = packet_mask({2, 4, 5})
        assert decide_request(state, TIMING, Scheme.PROPOSED, rng()) is None
        assert state.is_done
        assert state.phase == "done"

    def test_baseline_draw_has_no_subwindow(self):
        state = walkthrough_states()[2]
        draw = decide_request(state, TIMING, Scheme.BASELINE_CSMA, rng())
        assert draw.subwindow is None
        assert 1 <= draw.duration_us <= TIMING.cw_total_us


class TestDecideReply:
    def request_from_neediest(self):
        return build_request(walkthrough_states()[2])

    def test_best_supplier_always_wins(self):
        request = self.request_from_neediest()
        states = walkthrough_states()
        best = decide_reply(states[3], request, TIMING, Scheme.PROPOSED, rng())
        partial = decide_reply(states[0], request, TIMING, Scheme.PROPOSED, rng())
        assert best.subwindow == 3  # supplies all four requested packets
        assert partial.subwindow == 4  # supplies three
        assert best.duration_us < partial.duration_us

    def test_holder_of_nothing_requested_declines(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({5}))
        state = UavProtocolState(0, held(0, 1))
        assert decide_reply(state, request, TIMING, Scheme.PROPOSED, rng()) is None

    def test_own_request_declines(self):
        state = walkthrough_states()[2]
        request = build_request(state)
        assert decide_reply(state, request, TIMING, Scheme.PROPOSED, rng()) is None

    def test_equal_supply_shares_a_subwindow(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({2, 4}))
        full_a = UavProtocolState(0, IndicatorVector.ones(6))
        full_b = UavProtocolState(1, IndicatorVector.ones(6))
        draw_a = decide_reply(full_a, request, TIMING, Scheme.PROPOSED, rng())
        draw_b = decide_reply(full_b, request, TIMING, Scheme.PROPOSED, rng())
        assert draw_a.subwindow == draw_b.subwindow == 5


class TestBuildFrames:
    def test_request_lists_wanted(self):
        state = walkthrough_states()[2]
        request = build_request(state)
        assert request.packet_ids == {0, 1, 3, 5}

    def test_reply_carries_exact_intersection(self):
        states = walkthrough_states()
        request = build_request(states[2])
        reply = build_reply(states[3], request)
        assert reply.packet_ids == {0, 1, 3, 5}
        assert reply.in_reply_to == 2

    def test_full_set_uav_answers_whole_request(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({2, 4}))
        state = UavProtocolState(0, IndicatorVector.ones(6))
        assert build_reply(state, request).packet_ids == {2, 4}

    def test_single_packet_supplier(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({2, 4}))
        state = UavProtocolState(0, held(2))
        assert build_reply(state, request).packet_ids == {2}

    def test_no_supply_is_an_error(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({5}))
        state = UavProtocolState(0, held(0))
        with pytest.raises(ValueError):
            build_reply(state, request)


class TestAbsorbReply:
    def reply(self, *packets):
        return Frame(FrameKind.REPLY, 3, packet_mask(packets), in_reply_to=2)

    def test_partial_absorption_redraws(self):
        state = walkthrough_states()[0]  # missing {w3,w5,w6} = ids {2,4,5}
        state.request_draw = decide_request(state, TIMING, Scheme.PROPOSED, rng())
        assert state.request_draw.subwindow == 4  # three missing
        absorb_reply(state, self.reply(0, 1, 3, 5), TIMING, Scheme.PROPOSED, rng())
        assert state.missing == {2, 4}
        assert state.request_draw.subwindow == 5  # redrawn for two missing

    def test_disjoint_reply_keeps_draw(self):
        state = walkthrough_states()[0]
        state.request_draw = decide_request(state, TIMING, Scheme.PROPOSED, rng())
        original = state.request_draw
        absorb_reply(state, self.reply(0, 1), TIMING, Scheme.PROPOSED, rng())
        assert state.request_draw is original

    def test_covering_reply_finishes(self):
        state = walkthrough_states()[0]
        state.request_draw = decide_request(state, TIMING, Scheme.PROPOSED, rng())
        absorb_reply(state, self.reply(2, 4, 5), TIMING, Scheme.PROPOSED, rng())
        assert state.is_done
        assert state.request_draw is None

    def test_holdings_never_shrink(self):
        state = walkthrough_states()[1]
        before = state.holdings
        absorb_reply(state, self.reply(0, 2), TIMING, Scheme.PROPOSED, rng())
        assert all(a >= b for a, b in zip(state.holdings.bits, before.bits))

    def test_received_packets_leave_unobtainable(self):
        state = walkthrough_states()[0]
        state.unobtainable_mask = packet_mask({2})
        absorb_reply(state, self.reply(2), TIMING, Scheme.PROPOSED, rng())
        assert state.unobtainable == set()
        assert 2 in state.holdings.held_packets()


class TestCancelReply:
    def arm_replier(self):
        states = walkthrough_states()
        request = build_request(states[2])
        state = states[0]
        state.reply_draw = decide_reply(state, request, TIMING, Scheme.PROPOSED, rng())
        state.active_request = request
        return state

    def test_competing_reply_cancels(self):
        state = self.arm_replier()
        competing = Frame(FrameKind.REPLY, 3, packet_mask({0, 1}), in_reply_to=2)
        cancel_reply_if_answered(state, competing)
        assert state.reply_draw is None
        assert state.active_request is None

    def test_unrelated_request_does_not_cancel(self):
        state = self.arm_replier()
        unrelated = Frame(FrameKind.REQUEST, 1, packet_mask({0}))
        cancel_reply_if_answered(state, unrelated)
        assert state.reply_draw is not None

    def test_own_transmission_is_no_op(self):
        state = self.arm_replier()
        own = Frame(FrameKind.REPLY, state.uav_id, packet_mask({0}), in_reply_to=2)
        cancel_reply_if_answered(state, own)
        assert state.reply_draw is not None


class TestMarkUnobtainable:
    def test_own_silent_request_gives_up(self):
        state = UavProtocolState(0, held(0, 1, 2, 3, 4))  # missing {5}
        request = build_request(state)
        mark_unobtainable(state, request)
        assert state.unobtainable == {5}
        assert state.is_done
        assert not state.holdings.is_full()

    def test_only_still_missing_ids_are_marked(self):
        state = UavProtocolState(0, held(0, 1, 2, 3))
        request = build_request(state)  # {4, 5}
        state.holdings = state.holdings.with_packets({4})
        mark_unobtainable(state, request)
        assert state.unobtainable == {5}


class TestPhaseAndBackoffFields:
    def test_backoff_positive_in_backoff_phases(self):
        state = walkthrough_states()[2]
        state.request_draw = decide_request(state, TIMING, Scheme.PROPOSED, rng())
        assert state.phase == "request_backoff"
        assert state.pending_backoff > 0
        request = Frame(FrameKind.REQUEST, 9, packet_mask({2}))
        state.reply_draw = BackoffDraw(10, 6, state.uav_id)
        state.active_request = request
        assert state.phase == "reply_backoff"
        assert state.pending_backoff == 10

    def test_idle_without_draws(self):
        state = walkthrough_states()[2]
        assert state.phase == "idle"
        assert state.pending_backoff == 0


def test_trace_line_format_is_stable():
    record = TraceRecord(9462, 2, "request", (0, 1, 3, 5), None, 0)
    assert trace_line(record) == "t=    9462us cluster=0 uav=2 request [w1,w2,w4,w6]"
    reply = TraceRecord(18020, 3, "reply", (0, 1, 3, 5), 2, 1)
    assert trace_line(reply) == "t=   18020us cluster=1 uav=3 reply [w1,w2,w4,w6] peer=2"
