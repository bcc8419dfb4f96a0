"""Receive timeouts fire exactly where one heap entry per block puts them.

The kernel keeps at most one live timeout entry per actor: a receive
satisfied before its deadline pushes nothing, and a queued entry that
pops under a superseded key is re-pushed under the wanted one.  These
tests pin that every live timeout still fires at the ``(time, seq)``
position it would have had with one heap entry per blocking receive,
against hand-worked cases and against a reference model of that simpler
scheme written here.
"""

import heapq
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.simulation import Actor, CrashEvent, FaultPlan, Kernel


class Script(Actor):
    """Runs ``ops`` and records ``(now, name, value)`` per receive.

    Ops: ``("send", dest, payload)``, ``("recv", timeout_or_None)`` and
    ``("sleep", duration)``.  A crash-restart re-runs the script from
    its first op.
    """

    def __init__(self, name, ops, log):
        super().__init__(name)
        self.ops = ops
        self.log = log

    def run(self):
        for op in self.ops:
            if op[0] == "send":
                yield self.send(op[1], op[2], kind="m")
            elif op[0] == "sleep":
                yield self.sleep(op[1])
            elif op[1] is None:
                msg = yield self.receive()
                self.log.append((self.now, self.name, msg.payload))
            else:
                msg = yield self.receive_timeout(timeout=op[1])
                self.log.append(
                    (self.now, self.name, None if msg is None else msg.payload)
                )


def run_scripts(scripts, faults=None, until=None):
    log = []
    kernel = Kernel(faults=faults)
    for name, ops in scripts.items():
        kernel.add_actor(Script(name, ops, log))
    return kernel, kernel.run(until=until), log


class TestSupersededEntries:
    def test_long_then_short_timeout(self):
        # Blocks until 10, is handed "x" at 2, then blocks until 5: the
        # entry at 10 is superseded and must not fire the third receive,
        # and the timeout at 5 must fire before "z" arrives at 7.
        _, result, log = run_scripts({
            "a": [("recv", 10.0), ("recv", 3.0), ("recv", 100.0),
                  ("recv", 100.0)],
            "b": [("sleep", 1.0), ("send", "a", "x"), ("sleep", 5.0),
                  ("send", "a", "z")],
        })
        assert log == [
            (2.0, "a", "x"), (5.0, "a", None), (7.0, "a", "z"),
            (107.0, "a", None),
        ]
        assert result.time == 107.0

    def test_queued_entry_repushed_under_the_wanted_key(self):
        # Deadlines 10, then 5 (pushed: earlier than 10), then 11 (not
        # pushed: the entry at 5 is queued first and re-pushes it).
        _, result, log = run_scripts({
            "a": [("recv", 10.0), ("recv", 3.0), ("recv", 9.0)],
            "b": [("sleep", 1.0), ("send", "a", "x"), ("send", "a", "y")],
        })
        assert log == [(2.0, "a", "x"), (2.0, "a", "y"), (11.0, "a", None)]
        assert result.time == 11.0

    def test_fewer_steps_than_one_entry_per_block(self):
        # Twenty receives answered before their deadlines: the old scheme
        # popped one stale timeout per receive, now one entry serves all.
        sends = [("send", "a", i) for i in range(20)]
        _, result, log = run_scripts({
            "a": [("recv", 50.0)] * 20,
            "b": sends,
        })
        assert [v for _t, _a, v in log] == list(range(20))
        # start x2, 20 deliveries, one timeout entry popped at 50.
        assert result.steps == 23
        assert result.time == 50.0


class TestTiesWithDeliveries:
    def test_delivery_sent_before_the_block_wins(self):
        # b's wake-up at t=2 was queued before "x" was sent, so b sends
        # "y" at t=2 before "x" arrives and a re-blocks with deadline 3:
        # "y" (arriving at 3) holds the lower seq, so it is received.
        _, _, log = run_scripts({
            "a": [("recv", 2.5), ("recv", 1.0), ("recv", 5.0)],
            "b": [("sleep", 2.0), ("send", "a", "y")],
            "c": [("sleep", 1.0), ("send", "a", "x")],
        })
        assert log == [(2.0, "a", "x"), (3.0, "a", "y"), (8.0, "a", None)]

    def test_delivery_sent_after_the_block_loses(self):
        # c's wake-up at t=2 was queued after "x" was sent, so c sends
        # "y" after a re-blocked with deadline 3 (the re-pushed entry
        # keeps the block's seq): the timeout fires first and "y" goes
        # to the next receive.
        _, _, log = run_scripts({
            "a": [("recv", 2.5), ("recv", 1.0), ("recv", 5.0)],
            "b": [("sleep", 1.0), ("send", "a", "x")],
            "c": [("sleep", 1.0), ("sleep", 1.0), ("send", "a", "y")],
        })
        assert log == [(2.0, "a", "x"), (3.0, "a", None), (3.0, "a", "y")]


class TestCrashAndRestart:
    def test_restart_blocks_later_than_the_queued_entry(self):
        plan = FaultPlan(crashes=(CrashEvent("a", 2.0, 3.0),))
        _, result, log = run_scripts({"a": [("recv", 10.0)]}, faults=plan)
        # The entry queued at 10 belongs to the dead incarnation; it is
        # re-pushed for the restarted receive's deadline 13.
        assert log == [(13.0, "a", None)]
        assert result.time == 13.0
        assert result.crashed == ()

    def test_restart_with_a_shorter_timeout(self):
        class ShortAfterRestart(Actor):
            def __init__(self, log):
                super().__init__("a")
                self.log = log

            def run(self):
                msg = yield self.receive_timeout(timeout=10.0)
                self.log.append((self.now, msg))

            def restart(self):
                msg = yield self.receive_timeout(timeout=2.0)
                self.log.append((self.now, msg))
                msg = yield self.receive_timeout(timeout=20.0)
                self.log.append((self.now, msg))

        log = []
        kernel = Kernel(faults=FaultPlan(crashes=(CrashEvent("a", 2.0, 3.0),)))
        kernel.add_actor(ShortAfterRestart(log))
        result = kernel.run()
        # Deadline 5 is pushed ahead of the dead entry at 10, which must
        # not cut the next receive (deadline 25) short.
        assert log == [(5.0, None), (25.0, None)]
        assert result.time == 25.0

    def test_crash_stop_leaves_no_live_timer(self):
        plan = FaultPlan(crashes=(CrashEvent("a", 2.0),))
        _, result, log = run_scripts({"a": [("recv", 10.0)]}, faults=plan)
        assert log == []
        assert result.crashed == ("a",)
        assert not result.deadlocked


class TestRunUntil:
    def test_stops_between_superseded_and_live_entry(self):
        kernel, first, log = run_scripts(
            {
                "a": [("recv", 10.0), ("recv", 10.0)],
                "b": [("send", "a", "x")],
            },
            until=10.5,
        )
        # The entry at 10 popped and was re-pushed for deadline 11.
        assert log == [(1.0, "a", "x")]
        assert first.time == 10.0
        assert set(first.blocked) == {"a"}
        assert not first.deadlocked
        second = kernel.run()
        assert log == [(1.0, "a", "x"), (11.0, "a", None)]
        assert second.time == 11.0
        assert second.blocked == {}


# ----------------------------------------------------------------------
# Reference model: one heap entry per blocking receive.
# ----------------------------------------------------------------------
def reference_run(scripts):
    """Resume log, steps and blocked actors under the one-entry scheme.

    Mirrors the kernel's sequence numbering for this op set: one seq per
    start event, two per send (envelope, delivery), one per sleep and
    one per timed block.  Unit latency is FIFO and monotone, so no
    clamp applies.
    """
    seq = 0
    queue = []
    log = []
    pcs = {name: 0 for name in scripts}
    boxes = {name: deque() for name in scripts}
    blocked = {}  # name -> epoch while blocked
    epochs = {name: 0 for name in scripts}
    for name in scripts:
        seq += 1
        heapq.heappush(queue, (0.0, seq, "start", name))

    def advance(name, now):
        nonlocal seq
        ops = scripts[name]
        while pcs[name] < len(ops):
            op = ops[pcs[name]]
            if op[0] == "send":
                pcs[name] += 1
                seq += 2
                heapq.heappush(queue, (now + 1.0, seq, "deliver", (op[1], op[2])))
            elif op[0] == "sleep":
                pcs[name] += 1
                seq += 1
                heapq.heappush(queue, (now + op[1], seq, "resume", name))
                return
            elif boxes[name]:
                pcs[name] += 1
                log.append((now, name, boxes[name].popleft()))
            else:
                epochs[name] += 1
                blocked[name] = epochs[name]
                if op[1] is not None:
                    seq += 1
                    heapq.heappush(
                        queue,
                        (now + op[1], seq, "timeout", (name, epochs[name])),
                    )
                return

    steps = 0
    while queue:
        now, _seq, action, payload = heapq.heappop(queue)
        steps += 1
        if action == "start" or action == "resume":
            advance(payload, now)
        elif action == "deliver":
            dest, value = payload
            if dest in blocked:
                del blocked[dest]
                pcs[dest] += 1
                log.append((now, dest, value))
                advance(dest, now)
            else:
                boxes[dest].append(value)
        else:
            name, epoch = payload
            if blocked.get(name) == epoch:
                del blocked[name]
                pcs[name] += 1
                log.append((now, name, None))
                advance(name, now)
    return log, steps, set(blocked)


NAMES = ("a", "b", "c")
op_strategy = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(NAMES), st.integers(0, 99)),
    st.tuples(st.just("recv"),
              st.sampled_from([None, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0])),
    st.tuples(st.just("sleep"), st.sampled_from([0.5, 1.0, 2.0])),
)


class TestAgainstOneEntryPerBlock:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(op_strategy, max_size=10), min_size=2, max_size=3))
    def test_same_resumes(self, op_lists):
        scripts = dict(zip(NAMES, op_lists))
        scripts = {
            name: [op for op in ops if op[0] != "send" or op[1] in scripts]
            for name, ops in scripts.items()
        }
        _, result, log = run_scripts(scripts)
        expected_log, expected_steps, expected_blocked = reference_run(scripts)
        assert log == expected_log
        assert set(result.blocked) == expected_blocked
        assert result.steps <= expected_steps
