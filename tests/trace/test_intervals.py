"""Unit tests for IntervalAnalysis: the Fig. 2 interval semantics."""

import gc
import weakref

import pytest

from repro.clocks import Dependence
from repro.common import CutError, StateRef
from repro.trace import ComputationBuilder, random_computation
from repro.trace.causality import event_vector_clocks, happened_before_events


class TestIntervalStructure:
    def test_interval_counts(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert a.num_intervals(0) == 3  # send + recv => 2 boundaries
        assert a.num_intervals(1) == 3

    def test_state_to_interval_mapping(self, two_process_exchange):
        a = two_process_exchange.analysis()
        # P0 states: s0 (init), s1 (post-internal), s2 (post-send), s3 (post-recv)
        assert [a.interval_of_state(0, k) for k in range(4)] == [1, 1, 2, 3]
        # P1 states: s0, s1 (post-recv), s2 (post-send)
        assert [a.interval_of_state(1, k) for k in range(3)] == [1, 2, 3]

    def test_states_in_interval(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert list(a.states_in_interval(0, 1)) == [0, 1]
        assert list(a.states_in_interval(0, 2)) == [2]
        assert list(a.states_in_interval(1, 3)) == [2]

    def test_every_interval_nonempty(self):
        comp = random_computation(4, 6, seed=11)
        a = comp.analysis()
        for pid in range(4):
            for interval in range(1, a.num_intervals(pid) + 1):
                assert len(a.states_in_interval(pid, interval)) >= 1

    def test_no_events_single_interval(self):
        c = ComputationBuilder(2).build()
        a = c.analysis()
        assert a.num_intervals(0) == 1
        assert list(a.states_in_interval(0, 1)) == [0]


class TestIntervalVectors:
    def test_hand_computed_vectors(self, two_process_exchange):
        """Exact values from the conftest docstring table."""
        a = two_process_exchange.analysis()
        assert a.vector(0, 1).components == (1, 0)
        assert a.vector(0, 2).components == (2, 0)
        assert a.vector(0, 3).components == (3, 2)
        assert a.vector(1, 1).components == (0, 1)
        assert a.vector(1, 2).components == (1, 2)
        assert a.vector(1, 3).components == (1, 3)

    def test_own_component_equals_interval_index(self):
        comp = random_computation(5, 6, seed=3)
        a = comp.analysis()
        for pid in range(5):
            for interval in range(1, a.num_intervals(pid) + 1):
                assert a.vector(pid, interval)[pid] == interval

    def test_vectors_nondecreasing_along_process(self):
        comp = random_computation(4, 8, seed=4)
        a = comp.analysis()
        for pid in range(4):
            for interval in range(1, a.num_intervals(pid)):
                assert a.vector(pid, interval) <= a.vector(pid, interval + 1)

    def test_projection(self, diamond_computation):
        a = diamond_computation.analysis()
        full = a.vector(0, a.num_intervals(0))
        proj = a.projected_vector(0, a.num_intervals(0), (1, 2))
        assert proj == (full[1], full[2])


class TestSendTagsAndDeps:
    def test_send_tag_is_closing_interval(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert a.send_tag(0) == 1  # P0's send closes its interval 1
        assert a.send_tag(1) == 2  # P1's send closes its interval 2

    def test_receive_dependences(self, two_process_exchange):
        a = two_process_exchange.analysis()
        # P1 receives m0 (tag 1 from P0) at its event 0.
        assert a.receive_dependences(1) == ((0, Dependence(0, 1)),)
        # P0 receives m1 (tag 2 from P1) at its event 2.
        assert a.receive_dependences(0) == ((2, Dependence(1, 2)),)

    def test_deps_in_receive_order(self, diamond_computation):
        a = diamond_computation.analysis()
        deps = a.receive_dependences(0)
        assert [idx for idx, _ in deps] == sorted(idx for idx, _ in deps)


class TestHappenedBefore:
    def test_same_process_is_local_order(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert a.happened_before(StateRef(0, 1), StateRef(0, 2))
        assert not a.happened_before(StateRef(0, 2), StateRef(0, 1))
        assert not a.happened_before(StateRef(0, 2), StateRef(0, 2))

    def test_cross_process_via_message(self, two_process_exchange):
        a = two_process_exchange.analysis()
        # P0's interval 1 (closed by the send) precedes P1's interval 2.
        assert a.happened_before(StateRef(0, 1), StateRef(1, 2))
        # But not P1's interval 1 (pre-receive).
        assert not a.happened_before(StateRef(0, 1), StateRef(1, 1))

    def test_concurrency(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert a.concurrent(StateRef(0, 1), StateRef(1, 1))
        assert a.concurrent(StateRef(0, 2), StateRef(1, 2))
        assert not a.concurrent(StateRef(0, 1), StateRef(1, 3))

    def test_concurrent_same_state_false(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert not a.concurrent(StateRef(0, 1), StateRef(0, 1))

    def test_diamond_branches_concurrent(self, diamond_computation):
        a = diamond_computation.analysis()
        # P1 and P2 each have interval 2 after receiving from P0; no
        # communication between them.
        assert a.concurrent(StateRef(1, 2), StateRef(2, 2))

    def test_out_of_range_interval(self, two_process_exchange):
        a = two_process_exchange.analysis()
        with pytest.raises(CutError):
            a.happened_before(StateRef(0, 99), StateRef(1, 1))
        with pytest.raises(CutError):
            a.vector(0, 0)

    def test_agrees_with_event_level_clocks(self):
        """Every interval vector, derived independently from the
        event-level Fidge–Mattern clocks, over all four generator
        patterns, N up to 16 and several seeds.

        Interval ``k`` of ``P_j`` opens at local state ``t``; the clock
        of event ``t - 1`` counts, per ``P_i``, the ``c_i`` events of
        ``P_i`` in its causal past.  For ``i != j`` the last of them is
        a send, and the Fig. 2 vector holds the interval that send
        closed: ``interval_of_state(i, c_i - 1)``, or 0 with no known
        event.  Send tags are checked the same way.
        """
        for pattern in ("uniform", "ring", "client_server", "pairs"):
            for n in (2, 4, 16):
                for seed in range(6):
                    case = (pattern, n, seed)
                    comp = random_computation(n, 6, seed=seed, pattern=pattern)
                    self._check_against_event_clocks(comp, case)

    @staticmethod
    def _check_against_event_clocks(comp, case):
        n = comp.num_processes
        a = comp.analysis()
        clocks = event_vector_clocks(comp)
        for j in range(n):
            for k in range(1, a.num_intervals(j) + 1):
                t = a.states_in_interval(j, k).start
                counts = clocks[j][t - 1] if t > 0 else [0] * n
                expected = [
                    a.interval_of_state(i, counts[i] - 1) if counts[i] else 0
                    for i in range(n)
                ]
                expected[j] = k
                assert a.vector(j, k).components == tuple(expected), (case, j, k)
        for rec in comp.messages.values():
            send_interval = a.send_tag(rec.msg_id)
            assert send_interval == a.interval_of_state(
                rec.sender, rec.send_index
            ), case
            # The send's interval precedes the one its receive opens,
            # at interval and at event granularity.
            opened = a.interval_of_state(rec.receiver, rec.recv_index + 1)
            assert a.happened_before(
                StateRef(rec.sender, send_interval),
                StateRef(rec.receiver, opened),
            ), case
            assert happened_before_events(
                comp,
                (rec.sender, rec.send_index),
                (rec.receiver, rec.recv_index),
                clocks,
            ), case


class TestDirectDependence:
    def test_direct_same_process(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert a.directly_precedes(StateRef(0, 1), StateRef(0, 2))

    def test_direct_via_single_message(self, two_process_exchange):
        a = two_process_exchange.analysis()
        assert a.directly_precedes(StateRef(0, 1), StateRef(1, 2))

    def test_transitive_only_is_not_direct(self):
        # Chain P0 -> P1 -> P2: P0's interval precedes P2's only
        # transitively.
        b = ComputationBuilder(3)
        m0 = b.send(0, 1)
        b.recv(1, m0)
        m1 = b.send(1, 2)
        b.recv(2, m1)
        comp = b.build()
        a = comp.analysis()
        assert a.happened_before(StateRef(0, 1), StateRef(2, 2))
        assert not a.directly_precedes(StateRef(0, 1), StateRef(2, 2))
        assert a.directly_precedes(StateRef(1, 1), StateRef(2, 2))

    def test_direct_implies_happened_before(self):
        comp = random_computation(4, 5, seed=8)
        a = comp.analysis()
        for i in range(4):
            for j in range(4):
                for x in range(1, a.num_intervals(i) + 1):
                    for y in range(1, a.num_intervals(j) + 1):
                        s, t = StateRef(i, x), StateRef(j, y)
                        if a.directly_precedes(s, t):
                            assert a.happened_before(s, t)


class TestNoReferenceCycle:
    def test_dropped_analysed_computation_freed_without_gc(self):
        comp = random_computation(4, 4, seed=1)
        analysis = comp.analysis()
        assert analysis.computation is comp
        alive = weakref.ref(comp)
        gc.disable()
        try:
            del comp
            assert alive() is None
        finally:
            gc.enable()
        assert analysis.num_processes == 4
        assert analysis.num_intervals(3) >= 1
        with pytest.raises(ReferenceError):
            analysis.computation

    def test_pid_range_checked_without_the_computation(self):
        analysis = random_computation(3, 2, seed=0).analysis()
        with pytest.raises(CutError, match=r"pid 3 out of range \(N=3\)"):
            analysis.vector(3, 1)
