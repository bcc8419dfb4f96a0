"""§3: the single-token, vector-clock WCP detection algorithm.

This is the paper's first contribution (Figs. 2 and 3), implemented as
simulated monitor actors:

* Application processes (replayed by
  :class:`~repro.simulation.replay.SnapshotFeeder`) send one vector-clock
  snapshot per predicate-true interval to their monitor over a FIFO
  channel.
* A unique token carries the candidate cut ``G`` and a ``color`` vector.
  ``color[i] = red`` means state ``(i, G[i])`` and all predecessors are
  eliminated; ``green`` means no state in ``G`` is known to follow it.
* The monitor holding the token (Fig. 3) advances its own candidate past
  ``G[i]``, then scans the accepted candidate's vector: any ``j`` with
  ``candidate[j] >= G[j]`` has ``(j, G[j]) -> (i, G[i])`` (vector-clock
  property 2) and is repainted red with ``G[j] := candidate[j]``.  That
  visit is :meth:`SlotMachine.visit`, the one copy every token detector
  (§3, §3.5 groups, the multi-predicate service) runs.
* All green ⇒ the cut is consistent and the WCP is detected — and by
  Theorem 3.2 it is the *first* such cut.

Termination extension (see DESIGN.md): an end-of-trace marker from the
application aborts the protocol with "not detected" when a red process
has no further candidates.

Cost accounting (experiment E1): one work unit per candidate consumed,
one per vector-component comparison in the Fig. 3 for-loop, ``n`` per
token visit for the red-scan; the token message is ``2n`` words, a
candidate message ``n`` words.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS
from repro.detect.base import (
    GREEN,
    HALT_KIND,
    MONITOR_PREFIX,
    RED,
    TOKEN_KIND,
    DetectionReport,
    app_name,
    monitor_name,
    partial_cut_extras,
)
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    ReliableFeeder,
    ReliableInjector,
    RetryPolicy,
    StackGlue,
    TokenFrame,
    TokenInjector,
    harden,
    register_glue,
    spawn_joiners,
)
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.effects import Work
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.network import ChannelModel
from repro.simulation.replay import (
    CANDIDATE_KIND,
    END_OF_TRACE_KIND,
    FeedItem,
    SnapshotFeeder,
)
from repro.trace.computation import Computation
from repro.trace.cuts import Cut
from repro.trace.snapshots import vc_snapshots

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = [
    "VCToken",
    "SlotMachine",
    "SlotMonitor",
    "SlotGlue",
    "TokenVCMonitor",
    "HardenedTokenVCMonitor",
    "TokenRun",
    "candidate_feed_items",
    "detect",
]


def candidate_feed_items(
    computation: Computation,
    predicates,
    pids: tuple[int, ...],
) -> dict[int, list[FeedItem]]:
    """The Fig. 2 candidate streams as feeder-ready items, one per pid.

    ``predicates`` maps each emitting pid to its local predicate;
    ``pids`` is the projection target (the WCP's pids for a
    single-predicate run, the registered union for the multi-predicate
    service).  Extracted from :func:`detect` so N predicates can be
    evaluated against one interval stream: the emission points depend
    only on ``(computation, pid, clause)``, so every consumer of the
    same clause sees the identical stream.
    """
    streams = vc_snapshots(computation, dict(predicates))
    width = len(pids)
    return {
        pid: [
            FeedItem(
                payload=snap.vector.project(pids),
                size_bits=width * WORD_BITS,
                time=snap.time,
            )
            for snap in stream
        ]
        for pid, stream in streams.items()
    }


@dataclass
class VCToken:
    """The unique token: candidate cut ``G`` plus per-slot colors.

    Slot ``k`` corresponds to ``wcp.pids[k]``.  ``G`` holds 1-based
    interval indices (0 = no candidate yet); exactly one monitor holds
    the token at any time, so in-place mutation is safe.
    """

    G: list[int]
    color: list[str]

    @classmethod
    def initial(cls, n: int) -> "VCToken":
        """The paper's initialization: all zeros, all red."""
        return cls(G=[0] * n, color=[RED] * n)

    def size_bits(self) -> int:
        """Accounting size: two n-vectors (G in words, colors counted as
        words too, matching the paper's O(n)-words token)."""
        return 2 * len(self.G) * WORD_BITS

    def all_green(self) -> bool:
        """True iff every slot is green (detection condition)."""
        return all(c == GREEN for c in self.color)

    def copy(self) -> "VCToken":
        """An independent copy (a hardened receiver mutates its own, so
        the sender's retransmission copy stays pristine)."""
        return VCToken(G=list(self.G), color=list(self.color))


class SlotMachine:
    """The Fig. 3 visit and red-slot choice for one predicate slot.

    The one copy of the §3 visit rule: the plain and hardened §3
    monitors, the §3.5 group monitors and every per-predicate machine
    of the multi-predicate service run it; they differ only in where
    candidates come from and how a visit's outcome commits.  ``group``
    restricts token travel to a §3.5 group's slots.  ``accepted`` is the
    candidate this slot last accepted — a plain attribute of a plain
    object, so a hardened host that stores the machine in an actor
    attribute persists it across crash/restart.
    """

    __slots__ = ("slot", "n", "routing", "group", "accepted")

    #: Token-routing policies for choosing which red slot receives the
    #: token next.  The paper leaves the choice open ("sends the token to
    #: a process whose color is red"); the ablation benchmark compares:
    #: ``cyclic`` — first red slot after ours, round robin (default);
    #: ``first`` — lowest-index red slot;
    #: ``most_stale`` — the red slot with the smallest eliminated bound
    #: (the candidate furthest behind).
    ROUTINGS = ("cyclic", "first", "most_stale")

    def __init__(
        self,
        slot: int,
        n: int,
        routing: str = "cyclic",
        group: frozenset[int] | None = None,
    ) -> None:
        self.check_routing(routing)
        self.slot = slot
        self.n = n
        self.routing = routing
        self.group = group
        self.accepted: tuple[int, ...] | None = None

    @classmethod
    def check_routing(cls, routing: str) -> None:
        """Reject a routing policy outside :attr:`ROUTINGS`."""
        if routing not in cls.ROUTINGS:
            raise ConfigurationError(
                f"routing must be one of {cls.ROUTINGS}, got {routing!r}"
            )

    def visit(self, token: VCToken, next_candidate):
        """One (possibly crash-resumed) Fig. 3 visit over ``token``.

        A generator yielding the visit's ``Work`` charges.
        ``next_candidate()`` is a generator returning this slot's next
        candidate vector, ``None`` at end of trace, or ``"halt"``.
        Returns ``"halt"``, ``"abort"`` (end of trace while eliminated:
        by Lemma 3.1(4) the WCP cannot hold), ``"detected"`` (all green;
        never for a group slot — the §3.5 leader declares) or
        ``"forward"``.  Safe to re-enter after a crash when the host's
        candidate source is: every token mutation sits in the same
        atomic block as the candidate pop or ``accepted`` write that
        justified it, and the repaint loop is idempotent.
        """
        slot = self.slot
        # Fig. 3 while-loop: advance own candidate past the eliminated G[i].
        #
        # The replay branch and the repaint guard below only fire on a
        # token regenerated by a takeover election.  While the slot's
        # token is the only one that visits it, its G[slot] never drops
        # below ``accepted[slot]`` (bounds only grow), so a red slot
        # always consumes a fresh candidate and repaints with it.
        while token.color[slot] == RED:
            accepted = self.accepted
            if accepted is not None and accepted[slot] > token.G[slot]:
                # A regenerated token re-presents a bound this slot
                # already advanced past: replay the accepted candidate
                # instead of consuming fresh ones, so re-visits leave
                # the candidate stream where the first visit left it.
                token.G[slot] = accepted[slot]
                token.color[slot] = GREEN
                yield Work(1)
                continue
            cand = yield from next_candidate()
            if cand == "halt":
                return "halt"
            if cand is None:
                return "abort"
            if cand[slot] > token.G[slot]:
                token.G[slot] = cand[slot]
                token.color[slot] = GREEN
                self.accepted = cand
            yield Work(1)
        candidate = self.accepted
        # Fig. 3 for-loop: repaint every j whose current candidate
        # happened before ours (vector-clock property 2) — only when the
        # token's bound for this slot is the one ``candidate`` justified:
        # on a regenerated token installed at a green slot the accepted
        # candidate may predate the bound, and repainting with it could
        # eliminate states it cannot see.
        if candidate is not None and token.G[slot] == candidate[slot]:
            for j in range(self.n):
                if j == slot:
                    continue
                if candidate[j] >= token.G[j]:
                    token.G[j] = candidate[j]
                    token.color[j] = RED
                yield Work(1)
        # Scan for a red slot to forward the token to.
        yield Work(self.n)
        if self.group is None and token.all_green():
            return "detected"
        return "forward"

    def next_red(self, token: VCToken) -> int | None:
        """The red slot the token goes to next, per the routing policy.

        With a ``group`` the search is cyclic within the group and
        ``None`` means no group slot is red: back to the §3.5 leader.
        """
        group = self.group
        reds = [
            j
            for j in range(self.n)
            if token.color[j] == RED and (group is None or j in group)
        ]
        if not reds:
            if group is not None:
                return None
            raise AssertionError("no red slot despite not all green")
        if self.routing == "first":
            return reds[0]
        if self.routing == "most_stale":
            return min(reds, key=lambda j: (token.G[j], j))
        # cyclic: the first red slot after ours, wrapping around.
        return next((j for j in reds if j > self.slot), reds[0])


class SlotMonitor(Actor):
    """A plain Fig. 3 monitor process: one :class:`SlotMachine` fed by
    kernel receives.  Subclasses commit a visit's outcome in
    :meth:`_conclude`."""

    #: An extra actor this monitor halts and elects with (§3.5 leader).
    _leader: str | None = None

    def __init__(
        self,
        pid: int,
        slot: int,
        monitor_names: list[str],
        machine: SlotMachine,
    ) -> None:
        super().__init__(monitor_name(pid))
        self._slot = slot
        self._monitors = list(monitor_names)
        self._machine = machine
        self.aborted = False
        self.token_visits = 0

    def run(self):
        while True:
            msg = yield self.receive(TOKEN_KIND, HALT_KIND)
            if msg.kind == HALT_KIND:
                return
            body = msg.payload
            self.token_visits += 1
            code = yield from self._machine.visit(
                self._vc(body), self._receive_candidate
            )
            dest = self._conclude(body, code)
            if dest is None:
                others = [m for m in self._monitors if m != self.name]
                if self._leader is not None:
                    others.append(self._leader)
                yield self.broadcast(others, None, kind=HALT_KIND, size_bits=1)
                return
            yield self.send(
                dest, body, kind=TOKEN_KIND, size_bits=body.size_bits()
            )

    def _vc(self, body) -> VCToken:
        """The :class:`VCToken` a token message body carries."""
        return body

    def _receive_candidate(self):
        msg = yield self.receive(CANDIDATE_KIND, END_OF_TRACE_KIND)
        return None if msg.kind == END_OF_TRACE_KIND else msg.payload

    def _conclude(self, body, code: str) -> str | None:
        """Commit a finished visit's outcome.

        Returns the actor the token goes to next, or ``None`` once this
        monitor has ended the protocol (``detected`` / ``aborted`` set).
        A plain method, so the hardened glue can commit it atomically
        with the frame's retirement.
        """
        raise NotImplementedError


class TokenVCMonitor(SlotMonitor):
    """The Fig. 3 monitor process for one predicate slot.

    Exposes the detection outcome to the runner via attributes:
    ``detected`` / ``detected_cut`` / ``detected_at`` on the declaring
    monitor, ``aborted`` on a monitor that exhausted its candidates.
    """

    #: The red-slot forwarding policies (see :attr:`SlotMachine.ROUTINGS`).
    ROUTINGS = SlotMachine.ROUTINGS

    def __init__(
        self,
        pid: int,
        slot: int,
        monitor_names: list[str],
        routing: str = "cyclic",
    ) -> None:
        super().__init__(
            pid, slot, monitor_names,
            SlotMachine(slot, len(monitor_names), routing),
        )
        self.detected = False
        self.detected_cut: tuple[int, ...] | None = None
        self.detected_at: float | None = None

    def _conclude(self, token: VCToken, code: str) -> str | None:
        if code == "forward":
            return self._monitors[self._machine.next_red(token)]
        if code == "detected":
            self.detected = True
            self.detected_cut = tuple(token.G)
            self.detected_at = self.now
        else:
            self.aborted = True
        return None


class SlotGlue(StackGlue):
    """Stack glue for the hardened :class:`SlotMonitor` s, and the base
    of the §3.5 leader's and the service monitor's glue.

    Hosts provide ``_slot`` (their election slot), ``_monitors`` (the
    itinerary) and ``_leader``; the visit and its commit run the host's
    ``_machine`` and ``_conclude``.  ``harden(TokenVCMonitor)`` composes this glue with the shared
    :class:`~repro.detect.stack.StackedMonitor` run loop and the plain
    Fig. 3 core; the composition is semantically identical to
    :class:`TokenVCMonitor` — under any fault schedule with eventual
    delivery it declares the same first consistent cut — because:

    * candidates arrive through the sequence-numbered
      :class:`~repro.detect.stack.CandidateInbox` (duplicates
      discarded, order restored);
    * the token travels in hop-numbered frames, acked per hop and
      retransmitted by the previous holder until acked — a lost or
      crash-swallowed token is regenerated from the sender's persisted
      copy;
    * a crash-restart re-enters the stack run loop, which resumes the
      visit in progress from the held frame and the
      :class:`SlotMachine`'s persisted ``accepted`` candidate (the
      Fig. 3 repaint loop is idempotent);
    * with a :class:`~repro.detect.stack.FailureDetectorConfig`,
      permanent monitor death is survived too: the surviving monitors
      elect a takeover, regenerate the token under a new epoch, and
      replay persisted ``accepted`` candidates on re-visits so the
      detected cut is unchanged.

    The §3.5 group monitors compose the same glue; their frames are
    keyed by the group id, so each group's token has its own hop
    sequence.
    """

    def _snapshot_frame(self, frame: TokenFrame) -> TokenFrame:
        return replace(frame, body=frame.body.copy(), gossip=())

    def _on_token_accepted(self, frame: TokenFrame) -> None:
        self.token_visits += 1

    def _fd_slot(self) -> int:
        return self._slot

    def _fd_peers(self) -> dict[int, str]:
        peers = {
            slot: name
            for slot, name in enumerate(self._monitors)
            if slot != self._slot
        }
        if self._leader is not None:
            # The leader participates at slot -1, so a live leader
            # always initiates (and wins) takeover elections — only it
            # can merge.
            peers[-1] = self._leader
        return peers

    def _halt_targets(self) -> list[str]:
        """Every election peer, then every monitor's feeder."""
        feeders = [
            app_name(int(m.removeprefix(MONITOR_PREFIX)))
            for m in self._monitors
        ]
        return list(self._fd_peers().values()) + feeders

    def _handle_frame(self, frame: TokenFrame):
        return (
            yield from self._machine.visit(
                self._vc(frame.body), self._next_candidate
            )
        )

    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        body = frame.body
        dest = self._conclude(body, code)
        if dest is not None:
            self._begin_transfer(
                dest,
                TokenFrame(frame.hop + 1, body, frame.gid, frame.epoch),
                body.size_bits() + WORD_BITS,
            )


register_glue(TokenVCMonitor, SlotGlue)

#: The hardened §3 monitor: plain core + protocol stack, by composition.
HardenedTokenVCMonitor = harden(TokenVCMonitor)


class TokenRun:
    """The scaffolding every token-detector run shares.

    Builds the kernel, adds plain or hardened actors (:meth:`add`),
    plain or reliable Fig. 2 candidate feeders over ``pids``
    (:meth:`feed`) and the fault plan's joiners (:meth:`run`), and folds
    the run into a :class:`DetectionReport` (:meth:`report`).  The
    caller adds actors in its own order — the order fixes the kernel's
    event sequence.
    """

    def __init__(
        self,
        computation: Computation,
        pids: tuple[int, ...],
        predicates,
        *,
        seed: int,
        channel_model: ChannelModel | None,
        observers: list | None,
        faults: FaultPlan | None,
        hardened: bool | None,
        retry: RetryPolicy | AdaptiveRetryPolicy | None,
        failure_detector: FailureDetectorConfig | None,
    ) -> None:
        self.computation = computation
        self.pids = pids
        self.predicates = predicates
        self.faults = faults
        self.hardened = (faults is not None) if hardened is None else hardened
        if self.hardened and retry is None:
            retry = AdaptiveRetryPolicy(seed=seed)
        self.retry = retry
        self.failure_detector = failure_detector
        self.kernel = Kernel(
            channel_model=channel_model, seed=seed, observers=observers,
            faults=faults,
        )
        self.names = [monitor_name(pid) for pid in pids]
        self.participants: list[Actor] = []
        self.joiners: list = []

    def add(self, core: type, *args, **kwargs):
        """Add an actor of detection core ``core``, hardened when the
        run is."""
        if self.hardened:
            actor = harden(core)(
                *args, retry=self.retry,
                failure_detector=self.failure_detector, **kwargs,
            )
        else:
            actor = core(*args, **kwargs)
        return self.add_actor(actor)

    def add_actor(self, actor: Actor) -> Actor:
        self.kernel.add_actor(actor)
        self.participants.append(actor)
        return actor

    def feed(self, spacing: float) -> dict[int, list[FeedItem]]:
        """One Fig. 2 candidate feeder per process; returns the fed
        items by pid."""
        items_by_pid = candidate_feed_items(
            self.computation, self.predicates, self.pids
        )
        for pid in self.pids:
            args = (app_name(pid), monitor_name(pid), items_by_pid[pid], spacing)
            if self.hardened:
                self.add_actor(ReliableFeeder(*args, self.retry))
            else:
                self.add_actor(SnapshotFeeder(*args))
        return items_by_pid

    def run(self) -> SimulationResult:
        """Spawn the fault plan's joiners, then run to quiescence."""
        self.joiners = spawn_joiners(
            self.kernel, self.faults, self.names,
            hardened=self.hardened, config=self.failure_detector,
            retry=self.retry,
        )
        self.sim = self.kernel.run()
        return self.sim

    def token_hops(self, *also: str) -> int:
        """Token messages sent by monitors and the actors named ``also``."""
        return sum(
            m.sent_by_kind.get(TOKEN_KIND, 0)
            for name, m in self.kernel.metrics.actors().items()
            if name.startswith(MONITOR_PREFIX) or name in also
        )

    def any_participant(self, flag: str) -> bool:
        """Whether any participant raised the stack flag ``flag``."""
        return any(getattr(a, flag, False) for a in self.participants)

    def report(
        self,
        detector: str,
        winner,
        monitors: list[SlotMonitor],
        extras: dict,
    ) -> DetectionReport:
        """The verdict off ``winner`` (``None``: not detected), with the
        shared extras appended to ``extras`` and, for a degraded
        hardened run, the partial cut the monitors committed to."""
        aborted = any(m.aborted for m in monitors)
        extras["aborted"] = aborted
        extras["hardened"] = self.hardened
        if self.hardened:
            extras["gave_up"] = self.any_participant("gave_up")
            extras["halt_incomplete"] = self.any_participant("halt_incomplete")
            for counter in ("elections", "takeovers"):
                extras[counter] = sum(
                    getattr(a, counter, 0) for a in self.participants
                )
        if self.joiners:
            extras["joiners"] = len(self.joiners)
            extras["joined"] = sum(1 for j in self.joiners if j.joined)
            extras["synced"] = sum(1 for j in self.joiners if j.synced)
        degraded = winner is None and self.faults is not None and not aborted
        if self.hardened and degraded:
            extras.update(
                partial_cut_extras(
                    self.pids, [m._machine.accepted for m in monitors],
                    self.sim.crashed,
                )
            )
        return DetectionReport(
            detector=detector,
            detected=winner is not None,
            cut=None if winner is None else Cut(self.pids, winner.detected_cut),
            detection_time=None if winner is None else winner.detected_at,
            sim=self.sim,
            metrics=self.kernel.metrics,
            extras=extras,
            degraded=degraded,
        )


def detect(
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
    spacing: float = 1.0,
    routing: str = "cyclic",
    observers: list | None = None,
    faults: FaultPlan | None = None,
    hardened: bool | None = None,
    retry: RetryPolicy | AdaptiveRetryPolicy | None = None,
    failure_detector: FailureDetectorConfig | None = None,
) -> DetectionReport:
    """Run the §3 algorithm on a recorded computation.

    Builds a simulation with one snapshot feeder and one monitor per
    predicate process, injects the token, runs to quiescence, and reads
    the verdict off the monitor actors.  ``routing`` selects the
    red-slot forwarding policy (see :attr:`TokenVCMonitor.ROUTINGS`).

    ``faults`` injects failures (see :mod:`repro.simulation.faults`);
    ``hardened`` selects the loss/crash-tolerant actors and defaults to
    "on exactly when faults are injected" — pass ``hardened=True`` with
    no faults to measure the reliability layer's overhead, or
    ``hardened=False`` with faults to watch the plain protocol fail.
    ``retry`` tunes the hardened actors' retransmission schedule and
    defaults to the RTT-adaptive policy; ``failure_detector`` enables
    heartbeat failure detection with token takeover (self-healing
    against *permanent* monitor death — see ``docs/faults.md``).
    """
    wcp.check_against(computation.num_processes)
    run = TokenRun(
        computation, wcp.pids, wcp.predicate_map(),
        seed=seed, channel_model=channel_model,
        observers=observers, faults=faults, hardened=hardened, retry=retry,
        failure_detector=failure_detector,
    )
    names = run.names
    monitors = [
        run.add(TokenVCMonitor, pid, slot, names, routing=routing)
        for slot, pid in enumerate(wcp.pids)
    ]
    run.feed(spacing)
    token = VCToken.initial(wcp.n)
    if run.hardened:
        run.add_actor(ReliableInjector(
            names[0], TokenFrame(hop=1, body=token),
            token.size_bits() + WORD_BITS, run.retry,
        ))
    else:
        run.add_actor(TokenInjector(names[0], token, token.size_bits()))
    run.run()
    extras = {
        "token_hops": run.token_hops(),
        "token_visits": sum(m.token_visits for m in monitors),
        "candidates_sent": sum(
            m.sent_by_kind.get(CANDIDATE_KIND, 0)
            for m in run.kernel.metrics.actors().values()
        ),
    }
    winner = next((m for m in monitors if m.detected), None)
    return run.report("token_vc", winner, monitors, extras)
