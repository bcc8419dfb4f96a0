"""Unit tests for the failure-detection layer's value types.

The end-to-end takeover behaviour (elections, regeneration, exactness
under partitions) is covered by ``tests/integration/test_fault_tolerance``;
this module pins down the config validation, payload accounting, the
frame-selection rule the election relies on, and how the idle receive
handles heartbeats.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS
from repro.detect.stack import FailureDetectorConfig, TokenFrame
from repro.detect.stack.membership import (
    ELECT_BITS,
    HEARTBEAT_BITS,
    HEARTBEAT_KIND,
    ElectOk,
    Heartbeat,
    RegenRequest,
    best_frames,
)
from repro.detect.stack.gossip import ALIVE, JoinWelcome
from repro.detect.stack.join import StandbyMonitor
from repro.detect.stack.membersim import MembershipHost
from repro.simulation import Message, Receive
from repro.simulation.instrumentation import ActorMetrics


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = FailureDetectorConfig()
        assert cfg.heartbeat_interval < cfg.suspicion_after < cfg.grace

    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_interval": 0.0},
        {"heartbeat_interval": -1.0},
        {"suspicion_after": 1.0},  # < heartbeat_interval default of 4
        {"grace": 0.0},
        {"election_window": 0.0},
        {"max_idle_rounds": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            FailureDetectorConfig(**kwargs)


class TestPayloadAccounting:
    def test_heartbeat_bits_cover_slot_epoch_holding(self):
        assert HEARTBEAT_BITS == 2 * WORD_BITS + 1
        assert ELECT_BITS == 2 * WORD_BITS

    def test_elect_ok_counts_frames(self):
        empty = ElectOk(epoch=1, slot=0, frames=())
        assert empty.size_bits() == 2 * WORD_BITS
        frame = TokenFrame(hop=3, body=None, gid=0, epoch=1)
        one = ElectOk(epoch=1, slot=0, frames=(frame,))
        # An empty-bodied frame costs its (hop, gid, epoch) header.
        assert one.size_bits() == 2 * WORD_BITS + 3 * WORD_BITS

    def test_elect_ok_counts_token_body(self):
        class Body:
            def size_bits(self):
                return 17

        frame = TokenFrame(hop=1, body=Body(), gid=0, epoch=1)
        ok = ElectOk(epoch=1, slot=0, frames=(frame,))
        assert ok.size_bits() == 2 * WORD_BITS + 3 * WORD_BITS + 17

    def test_regen_request_counts_red_slots(self):
        frame = TokenFrame(hop=1, body=None, gid=0, epoch=2)
        req = RegenRequest(epoch=2, frames=(frame,), red_slots=(0, 2))
        assert req.size_bits() == WORD_BITS * 3 + 3 * WORD_BITS


class TestBestFrames:
    def test_keeps_greatest_epoch_hop_per_gid(self):
        frames = [
            TokenFrame(hop=5, body="a", gid=0, epoch=1),
            TokenFrame(hop=2, body="b", gid=0, epoch=2),  # higher epoch wins
            TokenFrame(hop=9, body="c", gid=1, epoch=1),
            TokenFrame(hop=7, body="d", gid=1, epoch=1),  # lower hop loses
        ]
        best = best_frames(frames)
        assert [(f.gid, f.epoch, f.hop) for f in best] == [
            (0, 2, 2), (1, 1, 9),
        ]
        assert best[0].body == "b"
        assert best[1].body == "c"

    def test_empty_input(self):
        assert best_frames([]) == ()

    def test_result_sorted_by_gid(self):
        frames = [
            TokenFrame(hop=1, body=None, gid=2, epoch=1),
            TokenFrame(hop=1, body=None, gid=0, epoch=1),
        ]
        assert [f.gid for f in best_frames(frames)] == [0, 2]


class TestHeartbeat:
    def test_holding_defaults_false(self):
        beat = Heartbeat(slot=1, epoch=3)
        assert not beat.holding
        assert Heartbeat(slot=1, epoch=3, holding=True).holding


class AbsorbingHost(MembershipHost):
    """A membership-only host whose idle receive absorbs inert beats."""

    _fd_absorbs_beats = True


def _host(cls, clock):
    host = cls(
        "member-0", 0, {1: "member-1", 2: "member-2"},
        FailureDetectorConfig(), duration=100.0,
    )
    host.attach(ActorMetrics("member-0"), lambda: clock[0])
    return host


def _beat(epoch, *, holding=False, corrupted=False, slot=2):
    return Message(
        seq=1, src=f"member-{slot}", dest="member-0", kind=HEARTBEAT_KIND,
        payload=Heartbeat(slot, epoch, holding), size_bits=HEARTBEAT_BITS,
        sent_at=0.0, delivered_at=0.0, corrupted=corrupted,
    )


def _finish(gen, value):
    """Send ``value`` into ``gen``; return what it returns (or None)."""
    try:
        gen.send(value)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator yielded instead of returning")


class TestIdleReceiveHeartbeats:
    def test_inert_beat_is_absorbed_in_place(self):
        clock = [5.0]
        host = _host(AbsorbingHost, clock)
        gen = host._fd_receive("idle")
        idle = next(gen)
        assert isinstance(idle, Receive) and idle.timeout is not None
        assert gen.send(_beat(0, holding=True)) is idle
        assert host._fd_last_heard[2] == 5.0
        assert host._token_activity == 5.0
        clock[0] = 6.0
        assert gen.send(_beat(0, corrupted=True, slot=1)) is idle
        assert host._fd_last_heard[1] == 0.0  # garbage proves nothing
        assert host._fd_idle_rounds == 0
        beats = gen.send(None)  # the timeout: one tick beats every peer
        assert [send.dest for send in beats] == ["member-1", "member-2"]
        assert _finish(gen, None) is None
        assert host._fd_idle_rounds == 1

    def test_blocking_fallback_absorbs_inert_beats_too(self):
        clock = [5.0]
        host = _host(AbsorbingHost, clock)
        host._fd_idle_rounds = host._fd.max_idle_rounds  # stopped ticking
        gen = host._fd_receive("idle")
        receive = next(gen)
        assert receive.timeout is None
        assert gen.send(_beat(0)) is receive
        assert host._fd_last_heard[2] == 5.0
        other = Message(
            seq=2, src="member-1", dest="member-0", kind="elect",
            payload=None, size_bits=0, sent_at=0.0, delivered_at=0.0,
        )
        assert _finish(gen, other) is other
        assert host._fd_idle_rounds == host._fd.max_idle_rounds

    def test_newer_epoch_returns_and_drops_stale_frames(self):
        clock = [5.0]
        host = _host(AbsorbingHost, clock)
        host._held.append(TokenFrame(hop=3, body=None, gid=0, epoch=0))
        gen = host._fd_receive("idle")
        next(gen)
        beat = _beat(2)
        assert _finish(gen, beat) is beat  # the run loop must react
        assert host._epoch == 0
        dispatch = host._dispatch_fd(beat)
        assert _finish(dispatch, None) == "handled"
        assert host._epoch == 2
        assert not host._held
        assert host._fd_last_heard[2] == 5.0

    def test_membership_harness_sees_every_beat(self):
        host = _host(MembershipHost, [5.0])
        gen = host._fd_receive("idle")
        next(gen)
        beat = _beat(0)
        assert _finish(gen, beat) is beat
        assert host._fd_last_heard[2] == 0.0  # handled by the caller


class TestPeerMap:
    def test_built_once_and_rebuilt_when_a_member_joins(self):
        host = _host(MembershipHost, [0.0])
        peers = host._fd_all_peers()
        assert peers == {1: "member-1", 2: "member-2"}
        assert host._fd_all_peers() is peers
        host._fd_add_peer(5, "member-5")
        assert host._fd_all_peers() == {
            1: "member-1", 2: "member-2", 5: "member-5",
        }
        beats = next(host._fd_tick())
        assert [send.dest for send in beats] == [
            "member-1", "member-2", "member-5",
        ]

    def test_standby_routes_to_every_welcomed_member(self):
        standby = StandbyMonitor(
            "mon-3", 3, "mon-0", 0,
            config=FailureDetectorConfig(membership="gossip"),
        )
        standby.attach(ActorMetrics("mon-3"), lambda: 1.0)
        assert standby._fd_all_peers() == {0: "mon-0"}
        standby._absorb_welcome(JoinWelcome(
            members=(
                (0, "mon-0", 0, ALIVE), (1, "mon-1", 0, ALIVE),
                (3, "mon-3", 0, ALIVE),
            ),
            epoch=2,
        ))
        assert standby._fd_all_peers() == {0: "mon-0", 1: "mon-1"}
        assert standby._epoch == 2
