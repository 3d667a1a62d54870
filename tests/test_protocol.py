"""State-machine decisions built around the four-UAV walkthrough."""

from dataclasses import astuple

import pytest

from uavex.core import IndicatorVector, Scheme, packet_mask, stream
from uavex.mac import FrameKind, TimingConfig, draw_backoff, subwindow_bounds
from uavex.protocol import (
    Frame,
    TraceRecord,
    UavProtocolState,
    absorb_reply,
    build_reply,
    build_request,
    draw_requests,
    mark_unobtainable,
    open_transaction,
    redraw_colliders,
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
        with pytest.raises(ValueError, match="^frames must name at least one packet$"):
            Frame(FrameKind.REQUEST, 0, packet_mask(()))

    def test_reply_requires_target(self):
        with pytest.raises(ValueError, match="^reply frames must name the requester$"):
            Frame(FrameKind.REPLY, 0, packet_mask({1}))

    def test_request_cannot_reply(self):
        with pytest.raises(ValueError, match="^request frames answer nobody$"):
            Frame(FrameKind.REQUEST, 0, packet_mask({1}), in_reply_to=2)

    def test_fields(self):
        reply = Frame(FrameKind.REPLY, 3, packet_mask({0, 2}), 1)
        assert (reply.kind, reply.sender, reply.mask, reply.in_reply_to) == (
            FrameKind.REPLY, 3, 0b101, 1
        )
        assert Frame(FrameKind.REQUEST, 0, 1).in_reply_to is None


def in_subwindow(draw, subwindow, num_packets=6):
    lo, hi = subwindow_bounds(num_packets, subwindow, TIMING.cw_total_us)
    return lo < draw <= hi


class TestDecideRequest:
    def test_neediest_uav_gets_subwindow_three(self):
        state = walkthrough_states()[2]  # missing 4 of 6
        draw_requests([state], TIMING, Scheme.PROPOSED, rng())
        assert in_subwindow(state.request_draw, 3)

    def test_full_uav_declines(self):
        state = UavProtocolState(0, IndicatorVector.ones(6))
        draw_requests([state], TIMING, Scheme.PROPOSED, rng())
        assert state.request_draw is None

    def test_all_missing_unobtainable_means_done(self):
        state = UavProtocolState(0, held(0, 1, 3))
        state.unobtainable_mask = packet_mask({2, 4, 5})
        draw_requests([state], TIMING, Scheme.PROPOSED, rng())
        assert state.request_draw is None
        assert state.is_done

    def test_baseline_draw_has_no_subwindow(self):
        draws = []
        for seed in range(40):
            state = walkthrough_states()[2]
            draw_requests([state], TIMING, Scheme.BASELINE_CSMA, stream(seed, 0, "backoff/0"))
            draws.append(state.request_draw)
        assert all(1 <= d <= TIMING.cw_total_us for d in draws)
        # A priority draw for four missing would stay in subwindow 3.
        assert not all(in_subwindow(d, 3) for d in draws)


class TestDecideReply:
    def request_from_neediest(self):
        return build_request(walkthrough_states()[2])

    def test_best_supplier_always_wins(self):
        request = self.request_from_neediest()
        states = walkthrough_states()
        repliers = open_transaction(states, request, TIMING, Scheme.PROPOSED, rng())
        assert [s.uav_id for s in repliers] == [0, 1, 3]
        best, partial = states[3].reply_draw, states[0].reply_draw
        assert in_subwindow(best, 3)  # supplies all four requested packets
        assert in_subwindow(partial, 4)  # supplies three
        assert best < partial

    def test_holder_of_nothing_requested_declines(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({5}))
        state = UavProtocolState(0, held(0, 1))
        assert open_transaction([state], request, TIMING, Scheme.PROPOSED, rng()) == []
        assert state.reply_draw is None

    def test_own_request_declines(self):
        state = walkthrough_states()[2]
        request = build_request(state)
        assert open_transaction([state], request, TIMING, Scheme.PROPOSED, rng()) == []
        assert state.reply_draw is None

    def test_equal_supply_shares_a_subwindow(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({2, 4}))
        full_a = UavProtocolState(0, IndicatorVector.ones(6))
        full_b = UavProtocolState(1, IndicatorVector.ones(6))
        open_transaction([full_a, full_b], request, TIMING, Scheme.PROPOSED, rng())
        assert in_subwindow(full_a.reply_draw, 5)
        assert in_subwindow(full_b.reply_draw, 5)


class TestBuildFrames:
    def test_request_lists_wanted(self):
        state = walkthrough_states()[2]
        request = build_request(state)
        assert request.mask == packet_mask({0, 1, 3, 5})

    def test_reply_carries_exact_intersection(self):
        states = walkthrough_states()
        request = build_request(states[2])
        reply = build_reply(states[3], request)
        assert reply.mask == packet_mask({0, 1, 3, 5})
        assert reply.in_reply_to == 2

    def test_full_set_uav_answers_whole_request(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({2, 4}))
        state = UavProtocolState(0, IndicatorVector.ones(6))
        assert build_reply(state, request).mask == packet_mask({2, 4})

    def test_single_packet_supplier(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({2, 4}))
        state = UavProtocolState(0, held(2))
        assert build_reply(state, request).mask == packet_mask({2})

    def test_no_supply_is_an_error(self):
        request = Frame(FrameKind.REQUEST, 9, packet_mask({5}))
        state = UavProtocolState(0, held(0))
        with pytest.raises(ValueError):
            build_reply(state, request)


def walkthrough_fleet():
    return {state.uav_id: state for state in walkthrough_states()}


class TestAbsorbReply:
    def reply(self, *packets):
        return Frame(FrameKind.REPLY, 3, packet_mask(packets), in_reply_to=2)

    def absorb(self, fleet, *packets):
        absorb_reply(fleet, self.reply(*packets), TIMING, Scheme.PROPOSED, rng())

    def test_partial_absorption_redraws(self):
        fleet = walkthrough_fleet()
        state = fleet[0]  # missing {w3,w5,w6} = ids {2,4,5}
        draw_requests([state], TIMING, Scheme.PROPOSED, rng())
        assert in_subwindow(state.request_draw, 4)  # three missing
        self.absorb(fleet, 0, 1, 3, 5)
        assert state.holdings.missing_packets() == {2, 4}
        assert in_subwindow(state.request_draw, 5)  # redrawn for two missing

    def test_disjoint_reply_keeps_draw(self):
        fleet = walkthrough_fleet()
        state = fleet[0]
        draw_requests([state], TIMING, Scheme.PROPOSED, rng())
        original = state.request_draw
        self.absorb(fleet, 0, 1)
        assert state.request_draw == original

    def test_covering_reply_finishes(self):
        fleet = walkthrough_fleet()
        state = fleet[0]
        draw_requests([state], TIMING, Scheme.PROPOSED, rng())
        self.absorb(fleet, 2, 4, 5)
        assert state.is_done
        assert state.request_draw is None

    def test_holdings_never_shrink(self):
        fleet = walkthrough_fleet()
        state = fleet[1]
        before = state.holdings
        self.absorb(fleet, 0, 2)
        assert all(a >= b for a, b in zip(state.holdings.bits, before.bits))

    def test_received_packets_leave_unobtainable(self):
        fleet = walkthrough_fleet()
        state = fleet[0]
        state.unobtainable_mask = packet_mask({2})
        self.absorb(fleet, 2)
        assert state.unobtainable_mask == 0
        assert 2 in state.holdings.held_packets()

    def test_reply_naming_a_packet_beyond_the_scenario_is_refused(self):
        fleet = walkthrough_fleet()
        draw_requests(fleet.values(), TIMING, Scheme.PROPOSED, rng())
        fleet[0].unobtainable_mask = packet_mask({2})
        before = {u: astuple(state) for u, state in fleet.items()}
        for packets in ((6,), (2, 6), (0, 9)):
            with pytest.raises(ValueError, match="does not fit 6 packets"):
                self.absorb(fleet, *packets)
            assert {u: astuple(state) for u, state in fleet.items()} == before

    def test_requester_draws_again_only_while_wanting(self):
        fleet = walkthrough_fleet()  # requester 2 misses {0, 1, 3, 5}
        self.absorb(fleet, 0, 1)
        assert in_subwindow(fleet[2].request_draw, 5)  # two still missing
        self.absorb(fleet, 3, 5)
        assert fleet[2].request_draw is None


class TestCancelReply:
    def arm_replier(self):
        fleet = walkthrough_fleet()
        request = build_request(fleet[2])
        open_transaction(fleet.values(), request, TIMING, Scheme.PROPOSED, rng())
        return fleet, fleet[0]

    def test_competing_reply_cancels(self):
        fleet, state = self.arm_replier()
        competing = Frame(FrameKind.REPLY, 3, packet_mask({0, 1}), in_reply_to=2)
        absorb_reply(fleet, competing, TIMING, Scheme.PROPOSED, rng())
        assert state.reply_draw is None
        assert fleet[1].reply_draw is None

    def test_unrelated_request_does_not_cancel(self):
        # Request colliders redraw their requests; pending replies stay.
        fleet, state = self.arm_replier()
        before = state.reply_draw
        redraw_colliders([fleet[1]], None, TIMING, Scheme.PROPOSED, rng())
        assert state.reply_draw == before

    def test_own_transmission_is_no_op(self):
        fleet, state = self.arm_replier()
        before = state.reply_draw
        own = Frame(FrameKind.REPLY, state.uav_id, packet_mask({0}), in_reply_to=2)
        absorb_reply(fleet, own, TIMING, Scheme.PROPOSED, rng())
        assert state.reply_draw == before


class TestRedrawColliders:
    def test_redraws_in_order_within_current_subwindows(self):
        fleet = walkthrough_fleet()
        request = build_request(fleet[2])  # {0, 1, 3, 5}
        twin = rng()
        redraw_colliders([fleet[3], fleet[0]], request, TIMING, Scheme.PROPOSED, rng())
        assert fleet[3].reply_draw == draw_backoff(6, 4, TIMING.cw_total_us, twin)
        assert fleet[0].reply_draw == draw_backoff(6, 3, TIMING.cw_total_us, twin)
        redraw_colliders([fleet[1], fleet[0]], None, TIMING, Scheme.PROPOSED, rng())
        assert in_subwindow(fleet[1].request_draw, 6)  # missing one
        assert in_subwindow(fleet[0].request_draw, 4)  # missing three


class TestMarkUnobtainable:
    def test_own_silent_request_gives_up(self):
        state = UavProtocolState(0, held(0, 1, 2, 3, 4))  # missing {5}
        request = build_request(state)
        mark_unobtainable(state, request)
        assert state.unobtainable_mask == packet_mask({5})
        assert state.is_done
        assert not state.holdings.is_full()

    def test_only_still_missing_ids_are_marked(self):
        state = UavProtocolState(0, held(0, 1, 2, 3))
        request = build_request(state)  # {4, 5}
        state.held |= packet_mask({4})
        mark_unobtainable(state, request)
        assert state.unobtainable_mask == packet_mask({5})


class TestPhaseAndBackoffFields:
    def test_backoff_positive_in_backoff_phases(self):
        state = walkthrough_states()[2]
        draw_requests([state], TIMING, Scheme.PROPOSED, rng())
        assert state.request_draw > 0
        assert state.reply_draw is None

    def test_idle_without_draws(self):
        state = walkthrough_states()[2]
        assert not state.is_done
        assert state.request_draw is None and state.reply_draw is None


def test_trace_line_format_is_stable():
    record = TraceRecord(9462, 2, "request", (0, 1, 3, 5), None, 0)
    assert trace_line(record) == "t=    9462us cluster=0 uav=2 request [w1,w2,w4,w6]"
    reply = TraceRecord(18020, 3, "reply", (0, 1, 3, 5), 2, 1)
    assert trace_line(reply) == "t=   18020us cluster=1 uav=3 reply [w1,w2,w4,w6] peer=2"
