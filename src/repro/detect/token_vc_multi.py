"""§3.5: the multi-token (grouped) variant of the vector-clock algorithm.

The single-token algorithm has no concurrency — only the token holder is
active.  §3.5 partitions the monitors into ``g`` groups with one token
each.  Within a group the single-token algorithm runs unchanged except
that the token never leaves the group; once no slot *of the group* is
red in its token, the token returns to a pre-determined **leader**.

The leader merges the ``g`` tokens into a global candidate cut.  Merging
uses elimination semantics: a red entry ``(G, red)`` means states up to
and including ``G`` are eliminated; a green entry ``(G, green)`` means
``G`` is a live candidate (states before it eliminated).  A slot's live
candidate comes only from its own group's token (other tokens can only
*eliminate* it).  If the merged cut is all green the WCP is detected —
the same pairwise-concurrency argument as Theorem 3.2 applies, because a
green candidate surviving every token's elimination bound cannot have
happened before any other green candidate.  Otherwise the leader sends
refreshed tokens into every group that still has a red slot and repeats.

Totals match the single-token algorithm; the win is concurrency: ``g``
monitors can be active at once, which experiment E4 measures as
makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS
from repro.detect.base import (
    GREEN,
    HALT_KIND,
    RED,
    TOKEN_KIND,
    DetectionReport,
)
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    RetryPolicy,
    TokenFrame,
    harden,
    register_glue,
)
from repro.detect.token_vc import (
    SlotGlue,
    SlotMachine,
    SlotMonitor,
    TokenRun,
    VCToken,
)
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.network import ChannelModel
from repro.trace.computation import Computation

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = [
    "GroupToken",
    "GroupMonitor",
    "LeaderActor",
    "HardenedGroupMonitor",
    "HardenedLeader",
    "detect",
    "LEADER_NAME",
]

LEADER_NAME = "leader"


@dataclass
class GroupToken:
    """One group's token: a full-width :class:`VCToken` tagged with its group."""

    group: int
    token: VCToken

    def size_bits(self) -> int:
        """Group tag plus the token vectors."""
        return WORD_BITS + self.token.size_bits()

    def copy(self) -> "GroupToken":
        return GroupToken(self.group, self.token.copy())


class GroupMonitor(SlotMonitor):
    """A Fig. 3 monitor restricted to in-group token travel.

    Identical to the single-token monitor except: the red-slot search
    only considers slots in this monitor's group, and when none are red
    the token is returned to the leader.  Detection is always declared
    by the leader.
    """

    _leader = LEADER_NAME

    def __init__(
        self,
        pid: int,
        slot: int,
        monitor_names: list[str],
        group_slots: frozenset[int],
    ) -> None:
        super().__init__(
            pid, slot, monitor_names,
            SlotMachine(slot, len(monitor_names), group=group_slots),
        )

    def _vc(self, gtoken: GroupToken) -> VCToken:
        return gtoken.token

    def _conclude(self, gtoken: GroupToken, code: str) -> str | None:
        if code == "abort":
            self.aborted = True
            return None
        target = self._machine.next_red(gtoken.token)
        return LEADER_NAME if target is None else self._monitors[target]


class LeaderActor(Actor):
    """§3.5's pre-determined leader: merges tokens, re-dispatches, detects.

    Maintains the merged candidate cut as ``(live, elim)`` per slot:
    ``live[i]`` is the current candidate from group(i)'s token (or None),
    ``elim[i]`` the highest eliminated interval from any token (states
    ``<= elim[i]`` are eliminated; 0 = none).
    """

    #: Election slot below every monitor's, so a live leader always
    #: initiates (and wins) takeover elections — only it can merge.
    _slot = -1
    _leader = None

    def __init__(
        self,
        groups: list[frozenset[int]],
        group_of: list[int],
        monitor_names: list[str],
    ) -> None:
        super().__init__(LEADER_NAME)
        self._groups = groups
        self._group_of = group_of
        self._monitors = monitor_names
        self._n = len(monitor_names)
        self._live: list[int | None] = [None] * self._n
        self._elim: list[int] = [0] * self._n
        self.detected = False
        self.detected_cut: tuple[int, ...] | None = None
        self.detected_at: float | None = None
        self.rounds = 0

    def run(self):
        while True:
            dispatch = self._round()
            if dispatch is None:
                yield self.broadcast(
                    self._monitors, None, kind=HALT_KIND, size_bits=1
                )
                return
            for dest, gtoken in dispatch:
                yield self.send(
                    dest, gtoken, kind=TOKEN_KIND, size_bits=gtoken.size_bits()
                )
            outstanding = len(dispatch)
            while outstanding:
                msg = yield self.receive(TOKEN_KIND, HALT_KIND)
                if msg.kind == HALT_KIND:
                    return
                returned: GroupToken = msg.payload
                yield self.work(self._n)
                self._merge(returned)
                outstanding -= 1

    def _round(self) -> list[tuple[str, GroupToken]] | None:
        """Start a merge round over the merged cut.

        Returns ``None`` when every slot holds a live candidate (the WCP
        is detected at that cut), else one ``(entry monitor, refreshed
        token)`` per group that still has a red slot.
        """
        n = self._n
        live, elim = self._live, self._elim
        self.rounds += 1
        green = [live[i] is not None and live[i] > elim[i] for i in range(n)]
        red_slots = [i for i in range(n) if not green[i]]
        if not red_slots:
            self.detected = True
            self.detected_cut = tuple(live)  # type: ignore[arg-type]
            self.detected_at = self.now
            return None
        dispatch = []
        for g in sorted({self._group_of[i] for i in red_slots}):
            token = VCToken(
                [live[i] if green[i] else elim[i] for i in range(n)],
                [GREEN if green[i] else RED for i in range(n)],
            )
            entry = min(i for i in red_slots if self._group_of[i] == g)
            dispatch.append((self._monitors[entry], GroupToken(g, token)))
        return dispatch

    def _merge(self, gtoken: GroupToken) -> None:
        token = gtoken.token
        live, elim = self._live, self._elim
        for i in range(self._n):
            if self._group_of[i] == gtoken.group:
                # Only the slot's own group carries its live candidate;
                # every group's token bounds what is eliminated.
                live[i] = token.G[i] if token.color[i] == GREEN else None
            bound = token.G[i] if token.color[i] == RED else token.G[i] - 1
            elim[i] = max(elim[i], bound)


class LeaderGlue(SlotGlue):
    """Stack glue for the crash/loss-tolerant §3.5 leader.

    The merge state (``live`` / ``elim``) and the set of groups whose
    tokens are outstanding live in persisted attributes; merging a
    returned token and retiring it from the outstanding set happen in
    one atomic block, and merging is idempotent (component-wise max), so
    a crash between rounds or mid-merge resumes cleanly.  Each round's
    fresh group tokens are numbered ``seen_hop(group) + 1``, continuing
    the group's hop sequence across rounds.  Rounds start from the
    stack run loop's idle hook (:meth:`_stack_idle`).

    With a failure detector the leader takes election slot ``-1``: it
    always initiates and wins takeovers (only it holds the merge state),
    regenerates lost group tokens from the survivors' persisted frames,
    merges them as returned tokens (the merge is monotone, so a mid-tour
    token's bounds are valid) and re-dispatches on the next round.
    The frame snapshot, election identity and halt targets are
    :class:`~repro.detect.token_vc.SlotGlue`'s, over every monitor.
    """

    def _init_visit_state(self) -> None:
        self._outstanding: set[int] = set()

    def _on_token_accepted(self, frame: TokenFrame) -> None:
        """A returned token is merged, not visited."""

    def _idle_description(self) -> str:
        return f"{self.name} awaiting group tokens"

    # ------------------------------------------------------------------
    def _handle_frame(self, frame: TokenFrame):
        yield self.work(self._n)
        return "merge"

    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        # Atomic: merge the returned token and retire it together.
        gtoken: GroupToken = frame.body
        self._merge(gtoken)
        self._outstanding.discard(gtoken.group)

    def _stack_idle(self) -> bool:
        """Start a new merge round once every group token has returned."""
        if self._outstanding:
            return False
        dispatch = self._round()
        if dispatch is None:
            return True
        for dest, gtoken in dispatch:
            last_hop = self._seen_hops.get(gtoken.group, (0, 0))[1]
            self._begin_transfer(
                dest,
                TokenFrame(last_hop + 1, gtoken, gid=gtoken.group, epoch=self._epoch),
                gtoken.size_bits() + WORD_BITS,
            )
        self._outstanding = {gtoken.group for _, gtoken in dispatch}
        return True


register_glue(GroupMonitor, SlotGlue)
register_glue(LeaderActor, LeaderGlue)

#: Hardened §3.5 actors: plain cores + protocol stack, by composition.
HardenedGroupMonitor = harden(GroupMonitor)
HardenedLeader = harden(LeaderActor, name="HardenedLeader")


def _partition(n: int, g: int) -> tuple[list[frozenset[int]], list[int]]:
    """Contiguous partition of slots 0..n-1 into g non-empty groups."""
    if g < 1:
        raise ConfigurationError(f"groups must be >= 1, got {g}")
    g = min(g, n)
    base, extra = divmod(n, g)
    groups: list[frozenset[int]] = []
    group_of = [0] * n
    start = 0
    for k in range(g):
        size = base + (1 if k < extra else 0)
        members = frozenset(range(start, start + size))
        groups.append(members)
        for i in members:
            group_of[i] = k
        start += size
    return groups, group_of


def detect(
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
    spacing: float = 1.0,
    groups: int = 2,
    observers: list | None = None,
    faults: FaultPlan | None = None,
    hardened: bool | None = None,
    retry: RetryPolicy | AdaptiveRetryPolicy | None = None,
    failure_detector: FailureDetectorConfig | None = None,
) -> DetectionReport:
    """Run the §3.5 multi-token algorithm with ``groups`` tokens.

    ``faults`` / ``hardened`` / ``retry`` / ``failure_detector`` behave
    as in :func:`repro.detect.token_vc.detect`.
    """
    wcp.check_against(computation.num_processes)
    run = TokenRun(
        computation, wcp.pids, wcp.predicate_map(),
        seed=seed, channel_model=channel_model,
        observers=observers, faults=faults, hardened=hardened, retry=retry,
        failure_detector=failure_detector,
    )
    group_sets, group_of = _partition(wcp.n, groups)
    names = run.names
    monitors = [
        run.add(GroupMonitor, pid, slot, names, group_sets[group_of[slot]])
        for slot, pid in enumerate(wcp.pids)
    ]
    leader = run.add(LeaderActor, group_sets, group_of, names)
    run.feed(spacing)
    run.run()
    extras = {
        "groups": len(group_sets),
        "rounds": leader.rounds,
        "token_hops": run.token_hops(LEADER_NAME),
        "token_visits": sum(m.token_visits for m in monitors),
    }
    winner = leader if leader.detected else None
    return run.report("token_vc_multi", winner, monitors, extras)
