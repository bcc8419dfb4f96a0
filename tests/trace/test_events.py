"""Unit tests for Event and ProcessTrace."""

import pytest

from repro.common import InvalidComputationError
from repro.trace import Event, EventKind, ProcessTrace


class TestEvent:
    def test_internal_constructor(self):
        e = Event.internal({"x": 1}, time=2.0)
        assert e.kind is EventKind.INTERNAL
        assert e.msg_id is None and e.peer is None
        assert dict(e.updates) == {"x": 1}
        assert e.time == 2.0

    def test_send_constructor(self):
        e = Event.send(5, dest=2)
        assert e.kind is EventKind.SEND
        assert e.msg_id == 5 and e.peer == 2

    def test_recv_constructor(self):
        e = Event.recv(5, src=1)
        assert e.kind is EventKind.RECV
        assert e.msg_id == 5 and e.peer == 1

    def test_internal_with_msg_id_rejected(self):
        with pytest.raises(InvalidComputationError):
            Event(EventKind.INTERNAL, msg_id=1)

    def test_send_without_msg_id_rejected(self):
        with pytest.raises(InvalidComputationError):
            Event(EventKind.SEND, msg_id=None, peer=1)

    def test_send_without_peer_rejected(self):
        with pytest.raises(InvalidComputationError):
            Event(EventKind.SEND, msg_id=1, peer=None)

    def test_negative_msg_id_rejected(self):
        with pytest.raises(InvalidComputationError):
            Event.send(-1, dest=0)

    def test_negative_peer_rejected(self):
        with pytest.raises(InvalidComputationError):
            Event.send(0, dest=-1)

    @pytest.mark.parametrize(
        "msg_id, peer",
        [(0.5, 1), (True, 1), (False, 1), ("0", 1), (0, 1.0), (0, True), (0, "1")],
    )
    @pytest.mark.parametrize("kind", [EventKind.SEND, EventKind.RECV])
    def test_non_int_msg_id_or_peer_rejected(self, kind, msg_id, peer):
        with pytest.raises(InvalidComputationError, match="must be an int"):
            Event(kind, msg_id=msg_id, peer=peer)

    @pytest.mark.parametrize("time", ["a", True, [1.0]])
    def test_non_numeric_time_rejected(self, time):
        with pytest.raises(InvalidComputationError, match="time must be"):
            Event.internal(time=time)

    @pytest.mark.parametrize("time", [None, 0, 3, 2.5])
    def test_numeric_time_accepted(self, time):
        assert Event.send(0, 1, time=time).time == time

    def test_empty_updates_shared(self):
        assert Event.internal().updates is Event.send(0, 1, {}).updates

    def test_updates_are_frozen(self):
        e = Event.internal({"x": 1})
        with pytest.raises(TypeError):
            e.updates["x"] = 2  # type: ignore[index]

    def test_updates_copied_defensively(self):
        src = {"x": 1}
        e = Event.internal(src)
        src["x"] = 99
        assert e.updates["x"] == 1

    def test_is_communication(self):
        assert Event.send(0, 1).kind.is_communication
        assert Event.recv(0, 1).kind.is_communication
        assert not Event.internal().kind.is_communication


class TestProcessTrace:
    def test_len_and_communication_count(self):
        t = ProcessTrace(
            (Event.internal(), Event.send(0, 1), Event.recv(1, 1)),
        )
        assert len(t) == 3
        assert t.communication_count == 2

    def test_initial_vars_frozen(self):
        t = ProcessTrace((), {"a": 1})
        with pytest.raises(TypeError):
            t.initial_vars["a"] = 2  # type: ignore[index]

    def test_nondecreasing_times_ok(self):
        ProcessTrace((Event.internal(time=1.0), Event.internal(time=1.0)))

    def test_decreasing_times_rejected(self):
        with pytest.raises(InvalidComputationError):
            ProcessTrace((Event.internal(time=2.0), Event.internal(time=1.0)))

    def test_mixed_timed_untimed_ok(self):
        ProcessTrace(
            (Event.internal(time=1.0), Event.internal(), Event.internal(time=3.0))
        )
