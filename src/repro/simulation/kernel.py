"""Deterministic discrete-event simulation kernel.

The kernel schedules actor coroutines over simulated time:

* **Sends** are non-blocking; delivery is scheduled per the channel
  model's latency, with FIFO clamping on FIFO channels.
* **Receives** block until a matching message is buffered.
* **Deadlock** — an empty event queue with blocked actors — is reported,
  not raised: the paper's online detection protocols legitimately block
  forever when the monitored predicate never becomes true, and the
  detection runner maps that outcome to "not detected".

Determinism: the event queue is ordered by ``(time, sequence)``; all
randomness (latency draws) comes from one seeded generator; equal-time
events fire in schedule order.  Fault injection (drop / duplication /
corruption-marking / crash-restart, see :mod:`.faults`) draws from a
*separate* generator derived from the same seed, so enabling faults
never perturbs the latency stream, and a fault schedule is reproducible
from ``(seed, plan)`` alone.

Message fast path:

* **Mailbox order.**  Each actor buffers messages in one FIFO queue per
  kind, every entry stamped with a run-wide arrival counter.  A receive
  returns the earliest-arrived buffered message its matcher accepts: a
  :func:`~repro.simulation.effects.kind_is` receive compares only the
  heads of its kinds' queues, ``match=None`` takes the earliest head of
  all kinds, and any other callable is tried on every buffered message
  in arrival order.  Crash and leave mailbox loss also walks arrival
  order.
* **Hand-off.**  An actor blocks only after no buffered message matched
  its receive, and it stays blocked until a delivery or its timeout
  resumes it, so a delivery its pending receive accepts goes straight
  to it without touching the mailbox.  Metrics and observers see that
  exactly as a buffered message consumed at once: the space gauge's
  high-water mark includes it, and observers get DELIVERED then
  CONSUMED.
* **Envelopes** are allocated fresh for every send and never reused,
  so actors and observers may keep references to delivered messages.
* **Timers.**  The event queue holds at most one live receive-timeout
  entry per actor.  Blocking with a timeout takes a fresh sequence
  number and records the wanted ``(deadline, seq)`` key on the actor;
  a heap entry is pushed only when none of the actor's own entries is
  queued at or before that key.  A queued entry that pops under any
  other key is re-pushed under the wanted one (or dropped when nothing
  is wanted), and a hand-off, crash or leave just clears the wanted
  key.  Every live timeout therefore fires at exactly the ``(time,
  seq)`` position a heap entry per blocking receive would give it; a
  receive satisfied before its deadline costs no event.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Generator

from repro.common.errors import SimulationError
from repro.common.rng import spawn_rng
from repro.simulation.actors import Actor
from repro.simulation.effects import KindIs, Message, Receive, Send, Sleep, Work
from repro.simulation.faults import (
    CrashEvent,
    FaultPlan,
    LeaveEvent,
    PartitionEvent,
)
from repro.simulation.instrumentation import (
    ActorMetrics,
    FaultSummary,
    MetricsBoard,
)
from repro.simulation.network import ChannelModel, FixedLatency
from repro.simulation.observers import (
    ActorEvent,
    ActorPhase,
    MessageEvent,
    MessagePhase,
    PartitionNotice,
    PartitionPhase,
)

__all__ = ["Kernel", "SimulationResult"]


class _Status(Enum):
    NEW = "new"
    READY = "ready"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    FINISHED = "finished"
    CRASHED = "crashed"
    LEFT = "left"


#: Exact effect types, checked before the ``isinstance`` fallback.
_EFFECT_TYPES = frozenset({Send, Receive, list, Work, Sleep})
#: The copies a send makes when no fault rule applies: one, uncorrupted.
_ONE_COPY = (False,)


def _effect_type(effect: object) -> type | None:
    """The effect class the kernel handles ``effect`` as.

    Subclasses map to their effect class and tuples to ``list``;
    ``None`` means the effect is unsupported.
    """
    for base in (Send, list, tuple, Work, Sleep, Receive):
        if isinstance(effect, base):
            return list if base is tuple else base
    return None


@dataclass(slots=True)
class _ActorState:
    actor: Actor
    metrics: ActorMetrics
    gen: Generator | None = None
    status: _Status = _Status.NEW
    # Buffered messages: one FIFO of (arrival stamp, message) per kind.
    # Only non-empty queues are kept, so an empty mailbox is an empty dict.
    boxes: dict[str, deque[tuple[int, Message]]] = field(default_factory=dict)
    pending_receive: Receive | None = None
    # The (deadline, seq) key of the pending receive's timeout, if any.
    timer: tuple[float, int] | None = None
    # The key of this actor's queued timeout entry: the only one of its
    # entries that may fire or be re-pushed (see "Timers" above).
    queued_timer: tuple[float, int] | None = None
    # Incremented on every crash; lets stale resume events (sleeps and
    # work scheduled before the crash) be recognized and ignored after
    # the actor has restarted.
    incarnation: int = 0
    # True for actors registered via spawn_new — genuinely new members
    # whose start is reported to observers as a "joined" lifecycle event.
    joiner: bool = False


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of a kernel run.

    ``deadlocked`` is True when the run ended with at least one actor
    still blocked on a receive; ``blocked`` maps those actors to the
    description of what they were waiting for.  ``faults`` summarizes
    injected failures (``None`` unless the kernel ran with a fault
    plan); ``crashed`` names actors that were down when the run ended,
    whether crashed or departed through a ``leave`` event.

    ``steps`` counts the events popped off the queue, and ``time`` is
    the time of the last one.  A receive satisfied before its deadline
    queues no timeout event (see "Timers" in the module docstring), so
    superseded timeouts are not counted and do not advance ``time``.
    """

    time: float
    steps: int
    deadlocked: bool
    blocked: dict[str, str]
    messages_delivered: int
    faults: FaultSummary | None = None
    crashed: tuple[str, ...] = ()


class Kernel:
    """The simulation engine.

    Parameters
    ----------
    channel_model:
        Latency/ordering policy (default: fixed unit latency, FIFO).
    seed:
        Seed for latency draws.
    work_time_scale:
        Simulated time consumed per ``Work`` unit (0 = work is pure
        accounting; set > 0 for makespan experiments).
    max_steps:
        Safety bound on processed events.
    faults:
        Optional :class:`~repro.simulation.faults.FaultPlan`.  With
        ``None`` (the default) the delivery hot path is unchanged apart
        from a single ``is None`` check per event.
    """

    def __init__(
        self,
        channel_model: ChannelModel | None = None,
        seed: int = 0,
        work_time_scale: float = 0.0,
        max_steps: int = 5_000_000,
        observers: list | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if work_time_scale < 0:
            raise SimulationError("work_time_scale must be >= 0")
        if max_steps <= 0:
            raise SimulationError("max_steps must be positive")
        self._observers = list(observers or [])
        self._channel = channel_model or FixedLatency(1.0)
        self._rng = spawn_rng(seed, "kernel")
        self._work_time_scale = work_time_scale
        self._max_steps = max_steps
        self._states: dict[str, _ActorState] = {}
        self._queue: list[tuple[float, int, str, object]] = []
        self._time = 0.0
        self._seq = 0
        self._arrivals = 0
        self._steps = 0
        self._messages_delivered = 0
        self._last_fifo_delivery: dict[tuple[str, str], float] = {}
        self.metrics = MetricsBoard()
        self._faults = faults
        self._fault_rng = spawn_rng(seed, "faults") if faults is not None else None
        self._live_partitions: list[PartitionEvent] = []
        if faults is not None:
            for crash in faults.all_crashes():
                self._schedule(crash.at, "crash", crash)
            for partition in faults.partitions:
                self._schedule(partition.at, "partition_start", partition)
                if partition.heal_at is not None:
                    self._schedule(
                        partition.heal_at, "partition_heal", partition
                    )
            for leave in faults.leaves:
                self._schedule(leave.at, "leave", leave)
            # Joins are realized by the harness constructing the joining
            # actor and registering it via spawn_new; the kernel itself
            # only needs the leave side of the elastic lifecycle.

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Register a message observer (see :mod:`..observers`).

        Observers are called synchronously at every message send,
        delivery and consumption; they must not mutate simulation state.
        """
        self._observers.append(observer)

    def _notify(self, phase, message: Message) -> None:
        if not self._observers:
            return
        event = MessageEvent(self._time, phase, message)
        for observer in self._observers:
            observer(event)

    def _notify_actor(self, phase_name: str, name: str) -> None:
        """Report a crash/restart to observers that opt in.

        Only observers defining ``on_actor_event`` receive these, so
        message-only observers (and their invariant predicates) are
        unaffected.
        """
        if not self._observers:
            return
        event = ActorEvent(self._time, ActorPhase(phase_name), name)
        for observer in self._observers:
            handler = getattr(observer, "on_actor_event", None)
            if handler is not None:
                handler(event)

    def _notify_partition(
        self, phase_name: str, partition: PartitionEvent
    ) -> None:
        """Report a partition start/heal to observers that opt in."""
        if not self._observers:
            return
        event = PartitionNotice(
            self._time, PartitionPhase(phase_name), partition.groups
        )
        for observer in self._observers:
            handler = getattr(observer, "on_partition_event", None)
            if handler is not None:
                handler(event)

    def add_actor(self, actor: Actor) -> None:
        """Register an actor; it starts when :meth:`run` is next called."""
        self._register(actor, self._time)

    def _register(self, actor: Actor, at: float) -> None:
        if actor.name in self._states:
            raise SimulationError(f"duplicate actor name {actor.name!r}")
        metrics = self.metrics.register(actor.name)
        self._states[actor.name] = _ActorState(actor, metrics)
        actor.attach(metrics, lambda: self._time)
        self._schedule(at, "start", actor.name)

    def spawn_at(self, at: float, actor: Actor) -> None:
        """Register an actor that joins the simulation at time ``at``.

        Like :meth:`add_actor`, but the start event is scheduled in the
        future — the kernel-level *join* primitive membership-churn
        experiments build on.  Messages sent to the actor before its
        start time simply wait in its mailbox.
        """
        if at < self._time:
            raise SimulationError(
                f"spawn_at({at}) is in the past (now={self._time})"
            )
        self._register(actor, at)

    def spawn_new(self, at: float, actor: Actor) -> None:
        """Register a *genuinely new* member joining the run at ``at``.

        Like :meth:`spawn_at`, but the actor's start is reported to
        observers as an :class:`~repro.simulation.observers.ActorEvent`
        with phase ``joined`` — the kernel-level primitive behind
        :class:`~repro.simulation.faults.JoinEvent` scale-out faults.
        ``spawn_at`` models a *known* member whose start is merely
        delayed (churn restarts); ``spawn_new`` models elastic growth of
        the membership itself.  Messages sent to the joiner before its
        start time wait in its mailbox, exactly as for ``spawn_at``.
        """
        self.spawn_at(at, actor)
        self._states[actor.name].joiner = True

    def actor(self, name: str) -> Actor:
        """Look up a registered actor by name."""
        try:
            return self._states[name].actor
        except KeyError:
            raise SimulationError(f"unknown actor {name!r}") from None

    @property
    def time(self) -> float:
        """Current simulated time."""
        return self._time

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> SimulationResult:
        """Process events until quiescence (or simulated time ``until``).

        May be called repeatedly; each call continues from the previous
        state (useful after adding more actors).
        """
        queue = self._queue
        pop = heapq.heappop
        deliver = self._deliver
        max_steps = self._max_steps
        horizon = until if until is not None else float("inf")
        while queue:
            if queue[0][0] > horizon:
                break
            self._steps += 1
            if self._steps > max_steps:
                raise SimulationError(
                    f"exceeded max_steps={max_steps}; "
                    f"likely livelock in a protocol"
                )
            time, seq, action, payload = pop(queue)
            self._time = time
            if action == "deliver":
                # Delivers dominate every protocol run; dispatch them
                # first and drain all remaining same-timestamp delivers
                # in one dispatch.  Events are drained in heap order, so
                # the (time, seq) total order is preserved exactly.
                deliver(payload)  # type: ignore[arg-type]
                while (
                    queue
                    and queue[0][0] == time
                    and queue[0][2] == "deliver"
                ):
                    self._steps += 1
                    if self._steps > max_steps:
                        raise SimulationError(
                            f"exceeded max_steps={max_steps}; "
                            f"likely livelock in a protocol"
                        )
                    deliver(pop(queue)[3])  # type: ignore[arg-type]
            elif action == "timeout":
                self._timeout(payload, seq)  # type: ignore[arg-type]
            elif action == "resume":
                name, value, incarnation = payload  # type: ignore[misc]
                state = self._states[name]
                if state.incarnation != incarnation:
                    continue  # scheduled before a crash; the wakeup died with it
                self._advance(state, value)
            elif action == "start":
                self._start(str(payload))
            elif action == "crash":
                self._crash(payload)  # type: ignore[arg-type]
            elif action == "restart":
                self._restart(str(payload))
            elif action == "leave":
                self._leave(payload)  # type: ignore[arg-type]
            elif action == "partition_start":
                self._live_partitions.append(payload)  # type: ignore[arg-type]
                self.metrics.record_partition()
                self._notify_partition("started", payload)  # type: ignore[arg-type]
            elif action == "partition_heal":
                self._live_partitions.remove(payload)  # type: ignore[arg-type]
                self._notify_partition("healed", payload)  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown action {action!r}")
        blocked = {
            name: (state.pending_receive.description if state.pending_receive else "")
            for name, state in self._states.items()
            if state.status is _Status.BLOCKED
        }
        crashed = tuple(
            name
            for name, state in self._states.items()
            if state.status in (_Status.CRASHED, _Status.LEFT)
        )
        return SimulationResult(
            time=self._time,
            steps=self._steps,
            deadlocked=bool(blocked) and not self._queue,
            blocked=blocked,
            messages_delivered=self._messages_delivered,
            faults=(
                self.metrics.fault_summary() if self._faults is not None else None
            ),
            crashed=crashed,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _timeout(self, state: _ActorState, seq: int) -> None:
        """Pop one of ``state``'s timeout entries (see "Timers" above)."""
        queued = state.queued_timer
        if queued is None or queued[1] != seq:
            return  # superseded by an earlier entry pushed after it
        wanted = state.timer
        if wanted is None:
            state.queued_timer = None
        elif wanted[1] == seq:
            state.timer = state.queued_timer = None
            state.pending_receive = None
            self._advance(state, None)
        else:
            state.queued_timer = wanted
            heapq.heappush(self._queue, (*wanted, "timeout", state))

    def _start(self, name: str) -> None:
        state = self._states[name]
        if state.status in (_Status.CRASHED, _Status.LEFT):
            return  # crashed/left before its start event fired
        if state.status is not _Status.NEW:  # pragma: no cover - defensive
            raise SimulationError(f"actor {name} started twice")
        if state.joiner:
            self.metrics.record_join()
            self._notify_actor("joined", name)
        state.gen = state.actor.run()
        if not isinstance(state.gen, Generator):
            raise SimulationError(
                f"{name}.run() must be a generator (did you forget a yield?)"
            )
        self._advance(state, None)

    def _crash(self, crash: CrashEvent) -> None:
        state = self._states.get(crash.actor)
        if state is None:
            raise SimulationError(
                f"fault plan crashes unknown actor {crash.actor!r}"
            )
        if state.status in (_Status.FINISHED, _Status.CRASHED, _Status.LEFT):
            return  # nothing left to kill
        self._notify_actor("crashed", crash.actor)
        self._stop_actor(state, _Status.CRASHED)
        self.metrics.record_crash(crash.actor)
        if crash.restart_at is not None:
            self._schedule(crash.restart_at, "restart", crash.actor)

    def _leave(self, leave: LeaveEvent) -> None:
        """A graceful permanent departure — crash-stop mechanics, but
        reported as a ``left`` lifecycle event and not counted as a
        crash."""
        state = self._states.get(leave.actor)
        if state is None:
            raise SimulationError(
                f"fault plan removes unknown actor {leave.actor!r}"
            )
        if state.status in (_Status.FINISHED, _Status.CRASHED, _Status.LEFT):
            return  # already gone
        self.metrics.record_leave()
        self._notify_actor("left", leave.actor)
        self._stop_actor(state, _Status.LEFT)

    def _stop_actor(self, state: _ActorState, status: _Status) -> None:
        """Destroy an actor's coroutine and mailbox (crash/leave core)."""
        if state.gen is not None:
            state.gen.close()
            state.gen = None
        # Mailbox loss, in arrival order.
        for _stamp, msg in sorted(chain.from_iterable(state.boxes.values())):
            state.metrics.adjust_space(-msg.size_bits)
            self.metrics.record_channel_fault(msg.src, msg.dest, "lost_to_crash")
            self._notify_fault(msg, lost=True)
        state.boxes.clear()
        state.pending_receive = None
        state.timer = None
        state.incarnation += 1
        state.status = status

    def _restart(self, name: str) -> None:
        state = self._states[name]
        if state.status is not _Status.CRASHED:  # pragma: no cover - defensive
            return
        state.gen = state.actor.restart()
        if not isinstance(state.gen, Generator):
            raise SimulationError(
                f"{name}.restart() must be a generator "
                f"(did you forget a yield?)"
            )
        self.metrics.record_restart(name)
        self._notify_actor("restarted", name)
        self._advance(state, None)

    def _notify_fault(self, message: Message, lost: bool) -> None:
        if not self._observers:
            return
        phase = MessagePhase.LOST if lost else MessagePhase.DROPPED
        self._notify(phase, message)

    def _deliver(self, message: Message) -> None:
        state = self._states.get(message.dest)
        if state is None:
            raise SimulationError(
                f"message {message.kind!r} addressed to unknown actor "
                f"{message.dest!r}"
            )
        status = state.status
        if status is _Status.BLOCKED:
            receive = state.pending_receive
            assert receive is not None
            match = receive.match
            if (
                match is None
                or (message.kind in match if type(match) is KindIs else match(message))
            ):
                # Hand-off: nothing buffered matched when the actor
                # blocked, so this message is the one its receive takes.
                self._messages_delivered += 1
                state.metrics.charge_handoff(message.kind, message.size_bits)
                if self._observers:
                    self._notify(MessagePhase.DELIVERED, message)
                    self._notify(MessagePhase.CONSUMED, message)
                state.pending_receive = state.timer = None
                self._advance(state, message)
                return
        elif self._faults is not None and status in (
            _Status.CRASHED,
            _Status.LEFT,
        ):
            # The destination is down: the message is lost with its mailbox.
            self.metrics.record_channel_fault(
                message.src, message.dest, "lost_to_crash"
            )
            self._notify_fault(message, lost=True)
            return
        self._messages_delivered += 1
        self._arrivals += 1
        box = state.boxes.get(message.kind)
        if box is None:
            box = state.boxes[message.kind] = deque()
        box.append((self._arrivals, message))
        state.metrics.adjust_space(message.size_bits)
        if self._observers:
            self._notify(MessagePhase.DELIVERED, message)

    # ------------------------------------------------------------------
    # Coroutine driving
    # ------------------------------------------------------------------
    def _advance(self, state: _ActorState, value: object) -> None:
        gen = state.gen
        assert gen is not None
        name = state.actor.name
        state.status = _Status.READY
        while True:
            try:
                effect = gen.send(value)
            except StopIteration:
                state.status = _Status.FINISHED
                return
            except Exception as exc:
                state.status = _Status.FINISHED
                raise SimulationError(f"actor {name} raised: {exc!r}") from exc
            value = None
            effect_type: type | None = type(effect)
            if effect_type not in _EFFECT_TYPES:
                effect_type = _effect_type(effect)
            if effect_type is Send:
                self._send(state, effect)
            elif effect_type is Receive:
                msg = self._take(state, effect) if state.boxes else None
                if msg is not None:
                    value = msg
                    continue
                state.status = _Status.BLOCKED
                state.pending_receive = effect
                if effect.timeout is not None:
                    self._seq = seq = self._seq + 1
                    deadline = self._time + effect.timeout
                    state.timer = (deadline, seq)
                    queued = state.queued_timer
                    # A queued entry with an equal deadline has a lower
                    # seq, so it pops first and re-pushes this key.
                    if queued is None or queued[0] > deadline:
                        state.queued_timer = state.timer
                        heapq.heappush(
                            self._queue, (deadline, seq, "timeout", state)
                        )
                return
            elif effect_type is list:
                for item in effect:
                    if type(item) is not Send and not isinstance(item, Send):
                        raise SimulationError(
                            f"actor {name} yielded a sequence containing "
                            f"{type(item).__name__}; only Send lists are allowed"
                        )
                    self._send(state, item)
            elif effect_type is Work:
                state.metrics.charge_work(effect.units)
                if self._work_time_scale > 0 and effect.units > 0:
                    state.status = _Status.SLEEPING
                    self._schedule(
                        self._time + effect.units * self._work_time_scale,
                        "resume",
                        (name, None, state.incarnation),
                    )
                    return
            elif effect_type is Sleep:
                state.status = _Status.SLEEPING
                self._schedule(
                    self._time + effect.duration,
                    "resume",
                    (name, None, state.incarnation),
                )
                return
            else:
                raise SimulationError(
                    f"actor {name} yielded unsupported effect "
                    f"{type(effect).__name__}"
                )

    def _send(self, state: _ActorState, effect: Send) -> None:
        """Charge one send and schedule the delivery of each copy.

        The sender is always charged for exactly one send (a fault is
        the channel's, not the protocol's).  Under a fault plan, a live
        partition separating src and dest drops the send before any
        probability draw, so partitions never perturb the fault RNG
        stream of the surviving components; otherwise the first rule
        matching the channel and kind decides drop / duplicate /
        corruption.  Each surviving copy draws its own latency and
        respects the FIFO clamp in schedule order.
        """
        src = state.actor.name
        dest = effect.dest
        if dest not in self._states:
            raise SimulationError(f"actor {src} sends to unknown actor {dest!r}")
        kind = effect.kind
        size_bits = effect.size_bits
        state.metrics.charge_send(kind, size_bits)
        copies: tuple[bool, ...] = _ONE_COPY
        faults = self._faults
        if faults is not None:
            for partition in self._live_partitions:
                if partition.separates(src, dest):
                    self._drop_send(src, effect, "partitioned")
                    return
            rule = faults.rule_for(src, dest, kind)
            if rule is not None:
                assert self._fault_rng is not None
                copies = rule.draw(self._fault_rng)
                if not copies:
                    self._drop_send(src, effect, "dropped")
                    return
                if len(copies) > 1:
                    self.metrics.record_channel_fault(src, dest, "duplicated")
        channel = self._channel
        fifo = channel.is_fifo(src, dest, kind)
        now = self._time
        first = True
        for corrupted in copies:
            latency = channel.latency(src, dest, kind, self._rng)
            if latency < 0:  # pragma: no cover - defensive
                raise SimulationError("channel model produced negative latency")
            delivery = now + latency
            if fifo:
                key = (src, dest)
                last = self._last_fifo_delivery.get(key, 0.0)
                if last > delivery:
                    delivery = last
                self._last_fifo_delivery[key] = delivery
            if corrupted:
                self.metrics.record_channel_fault(src, dest, "corrupted")
            self._seq = seq = self._seq + 1
            message = Message(
                seq, src, dest, kind, effect.payload, size_bits, now, delivery,
                corrupted,
            )
            if first and self._observers:
                self._notify(MessagePhase.SENT, message)
            first = False
            self._seq = seq = seq + 1
            heapq.heappush(self._queue, (delivery, seq, "deliver", message))

    def _drop_send(self, src: str, effect: Send, what: str) -> None:
        """Count a send the channel discarded; observers see it DROPPED."""
        self.metrics.record_channel_fault(src, effect.dest, what)
        if self._observers:
            self._seq += 1
            self._notify_fault(
                Message(
                    self._seq, src, effect.dest, effect.kind, effect.payload,
                    effect.size_bits, self._time, float("inf"),
                ),
                lost=False,
            )

    def _take(self, state: _ActorState, receive: Receive) -> Message | None:
        """Remove and return the earliest-arrived message ``receive``
        accepts (see the module docstring), or ``None``."""
        boxes = state.boxes
        match = receive.match
        if match is None or type(match) is KindIs:
            best = None
            for kind in boxes if match is None else match:
                box = boxes.get(kind)
                if box is not None and (best is None or box[0][0] < best[0][0]):
                    best = box
            if best is None:
                return None
            msg = best.popleft()[1]
            if not best:
                del boxes[msg.kind]
        else:
            for entry in sorted(chain.from_iterable(boxes.values())):
                if match(entry[1]):
                    break
            else:
                return None
            msg = entry[1]
            box = boxes[msg.kind]
            box.remove(entry)
            if not box:
                del boxes[msg.kind]
        metrics = state.metrics
        metrics.charge_receive(msg.kind, msg.size_bits)
        metrics.adjust_space(-msg.size_bits)
        if self._observers:
            self._notify(MessagePhase.CONSUMED, msg)
        return msg

    # ------------------------------------------------------------------
    def _schedule(self, time: float, action: str, payload: object) -> None:
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (time, seq, action, payload))
