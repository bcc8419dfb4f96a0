"""The kernel's message fast path keeps the mailbox contract.

Mailboxes are per-kind queues stamped with a run-wide arrival counter,
and a delivery that a blocked receive accepts is handed over without
being buffered.  These tests pin what a receiving actor, the metrics
and an observer can see: the earliest-arrived match wins, crash loss
walks arrival order, and a hand-off counts exactly like a message
buffered and consumed at once.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimulationError
from repro.simulation import (
    Actor,
    CrashEvent,
    EventLog,
    FaultPlan,
    Kernel,
    Message,
    MessagePhase,
    Receive,
    Send,
    Sleep,
    kind_is,
)
from repro.simulation.effects import KindIs
from repro.simulation.network import ChannelModel


class PerKindLatency(ChannelModel):
    """Fixed latency per message kind (1.0 for unlisted kinds), non-FIFO."""

    def __init__(self, latencies):
        self.latencies = latencies

    def latency(self, src, dest, kind, rng):
        return self.latencies.get(kind, 1.0)

    def is_fifo(self, src, dest, kind):
        return False


class Sender(Actor):
    """Sends ``(kind, payload, size_bits)`` triples, one time unit apart."""

    def __init__(self, dest, sends, name="sender"):
        super().__init__(name)
        self.dest = dest
        self.sends = sends

    def run(self):
        for kind, payload, size_bits in self.sends:
            yield self.send(self.dest, payload, kind=kind, size_bits=size_bits)
            yield self.sleep(1.0)


class Script(Actor):
    """Yields a fixed list of effects and keeps each result."""

    def __init__(self, name, effects):
        super().__init__(name)
        self.effects = effects
        self.results = []

    def run(self):
        for effect in self.effects:
            result = yield effect
            self.results.append(result)


def payloads(results):
    return [None if msg is None else msg.payload for msg in results]


def run_receiver(sends, receives, channel=None, observers=None):
    """Deliver ``sends`` while the receiver sleeps, then run ``receives``."""
    kernel = Kernel(channel_model=channel, observers=observers)
    receiver = Script("rx", [Sleep(50.0), *receives])
    kernel.add_actor(receiver)
    kernel.add_actor(Sender("rx", sends))
    kernel.run()
    return kernel, payloads(receiver.results[1:])


class TestKindIs:
    def test_is_a_callable_frozenset(self):
        match = kind_is("a", "b")
        assert isinstance(match, KindIs)
        assert match == frozenset({"a", "b"})
        _, got = run_receiver([("a", 1, 0)], [Receive(match)])
        assert got == [1]

    def test_still_callable_on_a_message(self):
        match = kind_is("a")
        message = Message(1, "s", "d", "a", None, 0, 0.0, 1.0)
        assert match(message) is True
        assert kind_is("b")(message) is False


class TestEnvelope:
    def test_actors_may_keep_envelopes(self):
        # No observers and no work time: envelopes are still never
        # recycled, so kept messages keep their contents.
        kernel = Kernel()
        receiver = Script("rx", [Receive()] * 5)
        kernel.add_actor(receiver)
        kernel.add_actor(Sender("rx", [("m", i, 8) for i in range(5)]))
        kernel.run()
        assert payloads(receiver.results) == [0, 1, 2, 3, 4]
        assert len({id(msg) for msg in receiver.results}) == 5


class TestMailboxOrder:
    def test_multi_kind_receive_takes_earliest_arrival(self):
        # "a" is sent first but is slow; "b" overtakes it, so the
        # earliest arrival (not the earliest send) must win.
        channel = PerKindLatency({"a": 5.0, "b": 1.0})
        sends = [("a", "a0", 0), ("b", "b1", 0), ("c", "c2", 0), ("b", "b3", 0)]
        _, got = run_receiver(
            sends, [Receive(kind_is("a", "b"))] * 3, channel=channel
        )
        # arrivals: b1 at t=2, b3 at t=4, a0 at t=5 (c2 at t=3 not wanted)
        assert got == ["b1", "b3", "a0"]

    def test_multi_kind_receive_interleaves_kinds_by_arrival(self):
        sends = [("b", 0, 0), ("a", 1, 0), ("b", 2, 0), ("a", 3, 0)]
        _, got = run_receiver(sends, [Receive(kind_is("a", "b"))] * 4)
        assert got == [0, 1, 2, 3]

    def test_match_none_takes_earliest_head_of_all_kinds(self):
        sends = [("c", 0, 0), ("a", 1, 0), ("b", 2, 0), ("a", 3, 0)]
        _, got = run_receiver(sends, [Receive()] * 4)
        assert got == [0, 1, 2, 3]

    def test_single_kind_receive_skips_other_kinds(self):
        sends = [("c", 0, 0), ("a", 1, 0), ("c", 2, 0), ("a", 3, 0)]
        _, got = run_receiver(
            sends, [Receive(kind_is("a"))] * 2 + [Receive()] * 2
        )
        assert got == [1, 3, 0, 2]

    def test_custom_callable_scans_in_arrival_order(self):
        even = Receive(lambda msg: msg.payload % 2 == 0)
        sends = [("a", 1, 0), ("b", 2, 0), ("a", 3, 0), ("a", 4, 0), ("b", 6, 0)]
        _, got = run_receiver(sends, [even] * 3 + [Receive()] * 2)
        assert got == [2, 4, 6, 1, 3]

    def test_custom_callable_without_a_match_blocks(self):
        kernel = Kernel()
        receiver = Script("rx", [Sleep(50.0), Receive(lambda m: False, "never")])
        kernel.add_actor(receiver)
        kernel.add_actor(Sender("rx", [("a", 1, 8)]))
        result = kernel.run()
        assert result.deadlocked
        assert result.blocked == {"rx": "never"}
        assert kernel.metrics.of("rx").buffered_bits == 8


def reference_receives(arrivals, matchers, wake):
    """The one-list mailbox the kernel's per-kind queues must agree with.

    ``arrivals`` are ``(time, kind, payload)`` in arrival order; the
    receiver starts its receives at ``wake``.  Each receive takes the
    earliest buffered message it accepts, else waits for the first
    later arrival it accepts, buffering the ones it does not.
    """
    mailbox = [(k, p) for t, k, p in arrivals if t < wake]
    future = [(k, p) for t, k, p in arrivals if t >= wake]

    def accepts(match, kind, payload):
        return match is None or match(SimpleMessage(kind, payload))

    got = []
    for match in matchers:
        for i, (kind, payload) in enumerate(mailbox):
            if accepts(match, kind, payload):
                got.append(payload)
                del mailbox[i]
                break
        else:
            while future:
                kind, payload = future.pop(0)
                if accepts(match, kind, payload):
                    got.append(payload)
                    break
                mailbox.append((kind, payload))
            else:
                break  # the kernel's receiver blocks here for good
    return got


@dataclass(frozen=True)
class SimpleMessage:
    kind: str
    payload: int


def even_payload(msg):
    return msg.payload % 2 == 0


matchers = st.one_of(
    st.none(),
    st.just(even_payload),
    st.frozensets(st.sampled_from("abc"), min_size=1).map(lambda ks: kind_is(*ks)),
)


class TestAgainstOneListMailbox:
    @settings(max_examples=80, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from("abc"), max_size=12),
        receives=st.lists(matchers, max_size=14),
        wake=st.integers(min_value=0, max_value=13),
    )
    def test_same_messages_in_the_same_order(self, kinds, receives, wake):
        # One send per time unit, latency 1: message i arrives at i + 1.
        # Receives that start before the last arrival take the hand-off
        # path; the rest are served from the per-kind queues.
        kernel = Kernel()
        receiver = Script(
            "rx", [Sleep(wake + 0.5)] + [Receive(m) for m in receives]
        )
        kernel.add_actor(receiver)
        kernel.add_actor(Sender("rx", [(k, i, 8) for i, k in enumerate(kinds)]))
        kernel.run()
        arrivals = [(i + 1, k, i) for i, k in enumerate(kinds)]
        expected = reference_receives(arrivals, receives, wake + 0.5)
        assert payloads(receiver.results[1:]) == expected


class TestCrashLoss:
    def test_lost_to_crash_walks_arrival_order(self):
        log = EventLog()
        channel = PerKindLatency({"a": 5.0, "b": 1.0})
        sends = [
            ("a", "a0", 8), ("b", "b1", 8), ("c", "c2", 8), ("a", "a3", 8),
            ("b", "b4", 8),
        ]
        # arrivals: b1 t=2, c2 t=3, a0 t=5, b4 t=5 (sent later than a0),
        # a3 t=8; crash at t=10
        kernel = Kernel(
            channel_model=channel,
            observers=[log],
            faults=FaultPlan(crashes=(CrashEvent("rx", 10.0),)),
        )
        receiver = Script("rx", [Sleep(50.0), Receive()])
        kernel.add_actor(receiver)
        kernel.add_actor(Sender("rx", sends))
        result = kernel.run()
        lost = log.of_phase(MessagePhase.LOST)
        assert [e.message.payload for e in lost] == ["b1", "c2", "a0", "b4", "a3"]
        assert all(e.time == 10.0 for e in lost)
        assert result.faults.lost_to_crash == 5
        assert kernel.metrics.channel_faults()[("sender", "rx")].lost_to_crash == 5
        metrics = kernel.metrics.of("rx")
        assert metrics.buffered_bits == 0
        assert metrics.buffered_bits_high_water == 40
        assert receiver.results == []


class TestHandOff:
    @staticmethod
    def _run(handoff):
        """``rx`` holds an unread 32-bit "x", then takes a 64-bit "m".

        With ``handoff`` it is already blocked on "m" when "m" arrives
        (t=2); otherwise it sleeps past the arrival and then receives.
        """
        log = EventLog()
        kernel = Kernel(observers=[log])
        wake = 1.5 if handoff else 5.0
        receiver = Script("rx", [Sleep(wake), Receive(kind_is("m"))])
        kernel.add_actor(receiver)
        kernel.add_actor(Sender("rx", [("x", "x", 32), ("m", "m", 64)]))
        kernel.run()
        assert payloads(receiver.results[1:]) == ["m"]
        return kernel.metrics.of("rx"), log

    @pytest.mark.parametrize("handoff", [True, False])
    def test_space_gauge_counts_the_message(self, handoff):
        metrics, _ = self._run(handoff)
        assert metrics.buffered_bits_high_water == 96
        assert metrics.buffered_bits == 32
        assert metrics.messages_received == 1
        assert metrics.bits_received == 64
        assert metrics.received_by_kind == {"m": 1}

    def test_high_water_equal_on_both_paths(self):
        handed, _ = self._run(True)
        buffered, _ = self._run(False)
        assert handed.buffered_bits_high_water == buffered.buffered_bits_high_water

    def test_observers_see_delivered_then_consumed(self):
        _, log = self._run(True)
        [m] = log.sends("m")
        events = [e for e in log.events if e.message.seq == m.seq]
        assert [e.phase for e in events] == [
            MessagePhase.SENT,
            MessagePhase.DELIVERED,
            MessagePhase.CONSUMED,
        ]
        # consumed the instant it arrived: this was a hand-off
        assert [e.time for e in events] == [1.0, 2.0, 2.0]

    def test_buffered_path_consumes_later(self):
        _, log = self._run(False)
        [m] = log.sends("m")
        times = [e.time for e in log.events if e.message.seq == m.seq]
        assert times == [1.0, 2.0, 5.0]

    def test_timeout_receive_hands_off_before_expiry(self):
        kernel = Kernel()
        receiver = Script("rx", [Receive(timeout=5.0), Receive(timeout=5.0)])
        kernel.add_actor(receiver)
        kernel.add_actor(Sender("rx", [("a", 1, 0)]))
        kernel.run()
        assert payloads(receiver.results) == [1, None]
        assert kernel.time == 6.0


class TestEffectDispatch:
    def test_receive_subclass_accepted(self):
        @dataclass(frozen=True, slots=True)
        class TaggedReceive(Receive):
            pass

        _, got = run_receiver(
            [("a", 1, 0), ("b", 2, 0)],
            [TaggedReceive(kind_is("b")), TaggedReceive()],
        )
        assert got == [2, 1]

    def test_tuple_and_send_subclass_accepted(self):
        @dataclass(frozen=True, slots=True)
        class TaggedSend(Send):
            pass

        kernel = Kernel()
        receiver = Script("rx", [Receive()] * 3)
        kernel.add_actor(receiver)
        kernel.add_actor(
            Script(
                "tx",
                [
                    (Send("rx", 1), TaggedSend("rx", 2)),
                    TaggedSend("rx", 3),
                ],
            )
        )
        kernel.run()
        assert payloads(receiver.results) == [1, 2, 3]

    def test_non_send_in_list_rejected_with_the_same_error(self):
        kernel = Kernel()
        kernel.add_actor(Script("bad", [[Send("bad", 1), Sleep(1.0)]]))
        with pytest.raises(SimulationError) as info:
            kernel.run()
        assert str(info.value) == (
            "actor bad yielded a sequence containing Sleep; "
            "only Send lists are allowed"
        )

    def test_unsupported_effect_error_unchanged(self):
        kernel = Kernel()
        kernel.add_actor(Script("bad", [42]))
        with pytest.raises(SimulationError) as info:
            kernel.run()
        assert str(info.value) == "actor bad yielded unsupported effect int"
