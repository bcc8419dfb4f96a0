"""Unit tests for computation JSON serialization."""

import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import InvalidComputationError, SerializationError
from repro.trace import random_computation
from repro.trace.serialization import (
    computation_from_dict,
    computation_to_dict,
    dumps,
    loads,
)


def signature(comp):
    return [
        [
            (e.kind.value, e.msg_id, e.peer, dict(e.updates), e.time)
            for e in t.events
        ]
        for t in comp.processes
    ]


class TestRoundTrip:
    def test_dict_round_trip(self):
        comp = random_computation(4, 6, seed=1, predicate_density=0.4)
        restored = computation_from_dict(computation_to_dict(comp))
        assert signature(restored) == signature(comp)
        assert restored.num_processes == comp.num_processes

    def test_json_round_trip(self):
        comp = random_computation(3, 4, seed=2)
        restored = loads(dumps(comp))
        assert signature(restored) == signature(comp)

    def test_initial_vars_preserved(self):
        comp = random_computation(3, 4, seed=3)
        restored = loads(dumps(comp))
        for pid in range(3):
            assert dict(restored.processes[pid].initial_vars) == dict(
                comp.processes[pid].initial_vars
            )

    def test_indent_option(self):
        comp = random_computation(2, 2, seed=4)
        assert "\n" in dumps(comp, indent=2)

    def test_analysis_equal_after_round_trip(self):
        comp = random_computation(3, 5, seed=5)
        restored = loads(dumps(comp))
        a, b = comp.analysis(), restored.analysis()
        for pid in range(3):
            assert a.num_intervals(pid) == b.num_intervals(pid)
            for interval in range(1, a.num_intervals(pid) + 1):
                assert a.vector(pid, interval) == b.vector(pid, interval)


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            loads("{not json")

    def test_wrong_version(self):
        comp = random_computation(2, 2, seed=6)
        data = computation_to_dict(comp)
        data["version"] = 99
        with pytest.raises(SerializationError, match="version"):
            computation_from_dict(data)

    def test_missing_key(self):
        with pytest.raises(SerializationError):
            computation_from_dict({"version": 1})

    def test_malformed_event(self):
        with pytest.raises(SerializationError):
            computation_from_dict(
                {
                    "version": 1,
                    "processes": [
                        {"initial_vars": {}, "events": [{"kind": "warp"}]}
                    ],
                }
            )

    def test_structural_validation_still_runs(self):
        # A structurally inconsistent document decodes into events fine
        # but must fail Computation validation.
        from repro.common import InvalidComputationError

        doc = {
            "version": 1,
            "processes": [
                {
                    "initial_vars": {},
                    "events": [{"kind": "recv", "msg_id": 0, "peer": 1}],
                },
                {"initial_vars": {}, "events": []},
            ],
        }
        with pytest.raises(InvalidComputationError):
            computation_from_dict(doc)


def document(*processes):
    """A format-1 document with one event list per process."""
    return json.dumps(
        {
            "version": 1,
            "processes": [
                {"initial_vars": {}, "events": list(events)}
                for events in processes
            ],
        }
    )


def send(msg_id, peer, **extra):
    return {"kind": "send", "msg_id": msg_id, "peer": peer, **extra}


def recv(msg_id, peer, **extra):
    return {"kind": "recv", "msg_id": msg_id, "peer": peer, **extra}


# Each document carries exactly one defect; the loader must name it with
# this exception class and this exact message.
SINGLE_DEFECTS = {
    "sent twice": (
        document([send(0, 1), send(0, 1)], [recv(0, 0)]),
        InvalidComputationError,
        "message 0 sent twice",
    ),
    "received twice": (
        document([send(0, 1)], [recv(0, 0), recv(0, 0)]),
        InvalidComputationError,
        "message 0 received twice",
    ),
    "never sent": (
        document([recv(9, 1)], []),
        InvalidComputationError,
        "message 9 received but never sent",
    ),
    "never received": (
        document([send(0, 1), send(1, 1)], [recv(0, 0)]),
        InvalidComputationError,
        "messages sent but never received: [1] "
        "(pass allow_unreceived=True to permit in-flight messages)",
    ),
    "sent to": (
        document([send(0, 2)], [recv(0, 0)], []),
        InvalidComputationError,
        "message 0 sent to P2 but received by P1",
    ),
    "names sender": (
        document([send(0, 1)], [recv(0, 2)], []),
        InvalidComputationError,
        "message 0 recv names sender P2, actual sender P0",
    ),
    "itself": (
        document([send(0, 0), recv(0, 0)]),
        InvalidComputationError,
        "P0 sends message 0 to itself",
    ),
    "does not exist": (
        document([send(0, 5)], []),
        InvalidComputationError,
        "send m0: destination P5 does not exist",
    ),
    "cycle": (
        document([recv(1, 1), send(0, 1)], [recv(0, 0), send(1, 0)]),
        InvalidComputationError,
        "computation contains a causal cycle (a message is received "
        "before, in happened-before order, it was sent)",
    ),
    "before sent": (
        document([send(0, 1, time=5.0)], [recv(0, 0, time=1.0)]),
        InvalidComputationError,
        "message 0 received at t=1.0 before sent at t=5.0",
    ),
    "internal with msg_id": (
        document([{"kind": "internal", "msg_id": 3}]),
        SerializationError,
        "malformed computation document: "
        "internal events must not carry msg_id or peer",
    ),
    "missing peer": (
        document([{"kind": "send", "msg_id": 0}], []),
        SerializationError,
        "malformed computation document: send events require msg_id and peer",
    ),
    "negative msg_id": (
        document([send(-1, 1)], [recv(-1, 0)]),
        SerializationError,
        "malformed computation document: msg_id must be >= 0, got -1",
    ),
    "negative peer": (
        document([send(0, -1)], []),
        SerializationError,
        "malformed computation document: peer must be >= 0, got -1",
    ),
    "unknown kind": (
        document([{"kind": "warp"}]),
        SerializationError,
        "malformed computation document: 'warp' is not a valid EventKind",
    ),
    "unhashable kind": (
        document([{"kind": ["send"]}]),
        SerializationError,
        "malformed computation document: ['send'] is not a valid EventKind",
    ),
}


class TestSingleDefectOracle:
    @pytest.mark.parametrize("name", sorted(SINGLE_DEFECTS))
    def test_defect_named_exactly(self, name):
        text, cls, message = SINGLE_DEFECTS[name]
        with pytest.raises(Exception) as exc:
            loads(text)
        assert type(exc.value) is cls
        assert str(exc.value) == message


def kahn_acyclic(doc):
    """Independent oracle: Kahn's algorithm over (pid, index) nodes."""
    successors = {}
    indegree = {}
    sends, recvs = {}, {}
    for pid, proc in enumerate(doc["processes"]):
        events = proc["events"]
        for idx, entry in enumerate(events):
            node = (pid, idx)
            indegree.setdefault(node, 0)
            if idx + 1 < len(events):
                successors.setdefault(node, []).append((pid, idx + 1))
                indegree[(pid, idx + 1)] = indegree.get((pid, idx + 1), 0) + 1
            if entry["kind"] == "send":
                sends[entry["msg_id"]] = node
            elif entry["kind"] == "recv":
                recvs[entry["msg_id"]] = node
    for msg_id, node in recvs.items():
        successors.setdefault(sends[msg_id], []).append(node)
        indegree[node] += 1
    ready = deque(node for node, degree in indegree.items() if degree == 0)
    visited = 0
    while ready:
        node = ready.popleft()
        visited += 1
        for succ in successors.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return visited == len(indegree)


@st.composite
def documents_with_extra_messages(draw):
    """A random acyclic document plus messages spliced in at random
    positions; a spliced message may close a causal cycle."""
    n = draw(st.integers(2, 5))
    comp = random_computation(
        n, draw(st.integers(0, 4)), seed=draw(st.integers(0, 10_000))
    )
    doc = computation_to_dict(comp)
    next_id = len(comp.messages)
    for _ in range(draw(st.integers(0, 4))):
        sender = draw(st.integers(0, n - 1))
        receiver = draw(st.sampled_from([p for p in range(n) if p != sender]))
        out = doc["processes"][sender]["events"]
        into = doc["processes"][receiver]["events"]
        out.insert(draw(st.integers(0, len(out))), send(next_id, receiver))
        into.insert(draw(st.integers(0, len(into))), recv(next_id, sender))
        next_id += 1
    return doc


class TestAcyclicityOracle:
    @settings(max_examples=150, deadline=None)
    @given(documents_with_extra_messages())
    def test_accepted_iff_kahn_accepts(self, doc):
        if kahn_acyclic(doc):
            loads(json.dumps(doc))
        else:
            with pytest.raises(InvalidComputationError, match="causal cycle"):
                loads(json.dumps(doc))


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        sends=st.integers(0, 6),
        seed=st.integers(0, 10_000),
        density=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_structure_and_vectors_survive(self, n, sends, seed, density):
        comp = random_computation(n, sends, seed=seed, predicate_density=density)
        restored = loads(dumps(comp))
        assert restored.processes == comp.processes
        assert restored.messages == comp.messages
        a, b = comp.analysis(), restored.analysis()
        for pid in range(n):
            assert a.num_intervals(pid) == b.num_intervals(pid)
            for interval in range(1, a.num_intervals(pid) + 1):
                assert a.vector(pid, interval) == b.vector(pid, interval)
