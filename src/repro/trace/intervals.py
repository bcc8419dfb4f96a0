"""Interval analysis: the paper's state granularity, computed over a trace.

Fig. 2 of the paper increments the application vector clock *after* every
send and receive, and emits at most one local snapshot per clock value
(``firstflag``).  A clock value therefore names a **communication
interval**: a maximal block of local states with no intervening
communication event.  All detection algorithms in the paper operate at
this granularity, and so does this library.

For a process with events ``e_0 .. e_{T-1}`` the local states are
``s_0`` (initial) through ``s_T`` (post-state of ``e_{T-1}``).  State
``s_t`` belongs to interval ``1 + #comm(e_0..e_{t-1})``.  Consequences:

* a SEND is the last event of the interval it is tagged with (the tag is
  taken before the clock increments);
* a RECV's post-state opens a new interval whose vector has absorbed the
  sender's tag;
* every interval contains at least one local state.

:class:`IntervalAnalysis` computes, in one ``O(E)`` wake-list sweep
(each process's events run straight through; a process parks at a
receive whose send has not run yet and wakes when it does):

* the interval index of every local state,
* the full-width (N-component) vector clock of every interval,
* the scalar interval tag carried by every message (§4.1 counters),
* the direct dependences recorded at every receive (§4.1),

and answers happened-before queries between interval states using the
paper's vector-clock properties.
"""

from __future__ import annotations

import bisect
import weakref
from array import array
from typing import Sequence

from repro.clocks.dependence import Dependence
from repro.clocks.vector import VectorClock
from repro.common.errors import CutError
from repro.common.types import Pid, StateRef
from repro.trace.computation import Computation
from repro.trace.events import EventKind

__all__ = ["IntervalAnalysis"]


class IntervalAnalysis:
    """Cached per-interval causal structure of a :class:`Computation`.

    Construction is ``O(E * N)`` where ``E`` is the total event count.
    Prefer :meth:`Computation.analysis` (lazily cached) over constructing
    this directly when repeated queries are needed.

    The analysis holds only a weak reference to its computation, which
    caches it: a dropped, analysed trace is freed at once instead of
    waiting for a garbage-collection pass to break a reference cycle.
    """

    def __init__(self, computation: Computation) -> None:
        self._computation = weakref.ref(computation)
        n = self._num_processes = computation.num_processes
        # Per process: interval index of each local state s_0..s_T.
        self._state_intervals: list[list[int]] = []
        for pid in range(n):
            events = computation.events_of(pid)
            intervals = [1]
            current = 1
            for event in events:
                if event.kind.is_communication:
                    current += 1
                intervals.append(current)
            self._state_intervals.append(intervals)
        # Per process: number of intervals = 1 + #comm events.
        self._num_intervals = [
            1 + computation.processes[pid].communication_count for pid in range(n)
        ]
        self._vectors: list[list[VectorClock]] = [[] for _ in range(n)]
        self._send_tags: dict[int, int] = {}
        self._recv_deps: list[list[tuple[int, Dependence]]] = [[] for _ in range(n)]
        self._sweep(computation)

    # ------------------------------------------------------------------
    # Construction sweep
    # ------------------------------------------------------------------
    def _sweep(self, comp: Computation) -> None:
        """Compute every interval vector, send tag and dependence.

        One owned ``array('q')`` working buffer per process is mutated
        in place (O(1) tick, single-pass merge); the per-interval frozen
        vector is a C-level buffer copy adopted without re-validation.

        Interval vectors, send tags and dependences are determined by
        the causal structure alone (vector-clock merge is confluent), so
        instead of a global heap-ordered linearization the sweep runs
        each process's event list straight through, parking a process
        that reaches a receive whose tag is not yet known and waking it
        when the matching send executes: ``O(E)`` total, with no
        ``topological_order()`` heap.  ``tests/trace/test_intervals.py``
        cross-checks the result against the event-level Fidge–Mattern
        clocks of :mod:`repro.trace.causality`.
        """
        n = comp.num_processes
        zero = bytes(8 * n)
        current: list[array] = []
        for pid in range(n):
            buf = array("q", zero)
            buf[pid] = 1
            current.append(buf)
        events = [comp.events_of(pid) for pid in range(n)]
        counts = [len(events[pid]) for pid in range(n)]
        vectors = self._vectors
        send_tags = self._send_tags
        recv_deps = self._recv_deps
        trusted = VectorClock._trusted
        internal = EventKind.INTERNAL
        send_kind = EventKind.SEND
        # Message id -> the frozen snapshot of the sender's vector at
        # the send (shared with the closing interval's stored vector, so
        # tags carry no extra copies).
        tag_vectors: dict[int, VectorClock] = {}
        # Message id -> the pid parked waiting for that send's tag.
        blocked_on: dict[int, int] = {}
        ptr = [0] * n
        ready = list(range(n))
        while ready:
            pid = ready.pop()
            events_p = events[pid]
            count = counts[pid]
            buf = current[pid]
            vectors_p = vectors[pid]
            deps_p = recv_deps[pid]
            i = ptr[pid]
            while i < count:
                event = events_p[i]
                kind = event.kind
                if kind is internal:
                    i += 1
                    continue
                if kind is send_kind:
                    snap = trusted(array("q", buf))
                    vectors_p.append(snap)
                    mid = event.msg_id
                    tag_vectors[mid] = snap
                    send_tags[mid] = buf[pid]
                    waiter = blocked_on.pop(mid, None)
                    if waiter is not None:
                        ready.append(waiter)
                else:  # RECV
                    mid = event.msg_id
                    tag = tag_vectors.get(mid)
                    if tag is None:
                        blocked_on[mid] = pid
                        break
                    snap = trusted(array("q", buf))
                    vectors_p.append(snap)
                    tag_buf = tag._buf
                    deps_p.append(
                        (i, Dependence(event.peer, tag_buf[event.peer]))
                    )
                    for k, v in enumerate(tag_buf):
                        if v > buf[k]:
                            buf[k] = v
                buf[pid] += 1
                i += 1
            ptr[pid] = i
        # Acyclicity (validated at Computation construction) guarantees
        # every parked process was eventually woken and ran to the end.
        assert ptr == counts
        # The final (open) interval of every process.
        for pid in range(n):
            vectors[pid].append(trusted(array("q", current[pid])))
            assert len(vectors[pid]) == self._num_intervals[pid]

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def computation(self) -> Computation:
        """The analyzed computation.

        Raises :class:`ReferenceError` once nothing else holds it.
        """
        comp = self._computation()
        if comp is None:
            raise ReferenceError("the analyzed computation no longer exists")
        return comp

    @property
    def num_processes(self) -> int:
        """Number of processes in the analyzed computation."""
        return self._num_processes

    def num_intervals(self, pid: Pid) -> int:
        """Number of communication intervals on process ``pid``."""
        return self._num_intervals[pid]

    def interval_of_state(self, pid: Pid, state_index: int) -> int:
        """Interval containing local state ``s_{state_index}`` of ``pid``."""
        return self._state_intervals[pid][state_index]

    def states_in_interval(self, pid: Pid, interval: int) -> range:
        """The contiguous range of local-state indices inside ``interval``."""
        self._check_interval(pid, interval)
        intervals = self._state_intervals[pid]
        lo = bisect.bisect_left(intervals, interval)
        hi = bisect.bisect_right(intervals, interval)
        return range(lo, hi)

    def vector(self, pid: Pid, interval: int) -> VectorClock:
        """The full-width vector clock of interval ``(pid, interval)``.

        Width is ``N``; detection algorithms over a predicate subset
        project it with :meth:`projected_vector`.
        """
        self._check_interval(pid, interval)
        return self._vectors[pid][interval - 1]

    def projected_vector(
        self, pid: Pid, interval: int, pids: Sequence[Pid]
    ) -> tuple[int, ...]:
        """The vector of ``(pid, interval)`` restricted to ``pids``.

        This models the width-``n`` clock the paper's §3 application
        processes would carry when the predicate names only ``n`` of the
        ``N`` processes (the other processes still forward the clock).
        """
        return self.vector(pid, interval).project(pids)

    def send_tag(self, msg_id: int) -> int:
        """The scalar interval counter attached to message ``msg_id`` (§4.1)."""
        return self._send_tags[msg_id]

    def receive_dependences(self, pid: Pid) -> tuple[tuple[int, Dependence], ...]:
        """All ``(recv_event_index, dependence)`` pairs recorded by ``pid``,
        in receive order (§4.1's dependence list before any flush)."""
        return tuple(self._recv_deps[pid])

    # ------------------------------------------------------------------
    # Happened-before at interval granularity
    # ------------------------------------------------------------------
    def happened_before(self, a: StateRef, b: StateRef) -> bool:
        """Paper property 1 specialized to interval states.

        For states on the same process this is local order; across
        processes, ``(i, x) -> (j, y)`` iff ``x <= vector(j, y)[i]``.
        """
        self._check_interval(a.pid, a.interval)
        self._check_interval(b.pid, b.interval)
        if a.pid == b.pid:
            return a.interval < b.interval
        return a.interval <= self.vector(b.pid, b.interval)[a.pid]

    def concurrent(self, a: StateRef, b: StateRef) -> bool:
        """True iff neither interval state happened before the other."""
        if a == b:
            return False
        return not self.happened_before(a, b) and not self.happened_before(b, a)

    def directly_precedes(self, a: StateRef, b: StateRef) -> bool:
        """The §4 direct-dependence relation ``a ->_d b``.

        True iff ``a`` and ``b`` are on the same process with ``a`` first,
        or a single message sent at-or-after ``a`` was received at-or-
        before ``b``.  At interval granularity: some message whose send
        closed interval ``x >= a.interval`` on ``a.pid`` was received by
        ``b.pid`` with the receive opening an interval ``<= b.interval``.
        """
        if a.pid == b.pid:
            return a.interval < b.interval
        self._check_interval(a.pid, a.interval)
        self._check_interval(b.pid, b.interval)
        for recv_idx, dep in self._recv_deps[b.pid]:
            if dep.source != a.pid or dep.clock < a.interval:
                continue
            opened = self._state_intervals[b.pid][recv_idx + 1]
            if opened <= b.interval:
                return True
        return False

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_interval(self, pid: Pid, interval: int) -> None:
        if not 0 <= pid < self._num_processes:
            raise CutError(f"pid {pid} out of range (N={self._num_processes})")
        if not 1 <= interval <= self._num_intervals[pid]:
            raise CutError(
                f"interval {interval} out of range for P{pid} "
                f"(has {self._num_intervals[pid]})"
            )
