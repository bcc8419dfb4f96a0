"""Membership-only hosts for scaling the failure-detector benchmarks.

The exactness suites exercise the membership layer at the paper's scale
(a handful of monitors).  This module isolates the layer so its traffic
can be measured at *large* monitor-group sizes without dragging a whole
detection protocol along: a :class:`MembershipHost` runs the failure
detector (heartbeat or SWIM gossip, per
:class:`~repro.detect.stack.membership.FailureDetectorConfig`) over the
reliable transport and nothing else — no token, no candidates, no
elections (``_fd_can_take_over = False``).

:func:`run_membership_trial` spins up ``n`` hosts, crash-stops one of
them, and reports each survivor's *detection time* — the first instant
the victim left its alive set — alongside the run's liveness bytes.
:func:`run_elastic_trial` instead *grows* a gossip group from ``n//4``
hosts to ``n`` via live :class:`~repro.detect.stack.join.StandbyMonitor`
joins and reports the dedicated handshake traffic separately, isolating
what scale-out itself costs.  ``benchmarks/membership_scale.py`` sweeps
both over group sizes to record the O(N) vs O(N²) traffic separation
and the per-joiner handshake cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.detect.stack.gossip import (
    JOIN_ACK_KIND,
    JOIN_KIND,
    STATE_SYNC_KIND,
)
from repro.detect.stack.join import StandbyMonitor
from repro.detect.stack.membership import (
    FailureDetectorConfig,
    FailureDetectorMixin,
)
from repro.detect.stack.transport import FEED_JOIN_KIND, ReliableEndpoint
from repro.simulation.actors import Actor
from repro.simulation.faults import CrashEvent, FaultPlan
from repro.simulation.kernel import Kernel

__all__ = [
    "ElasticTrial",
    "MembershipHost",
    "MembershipTrial",
    "run_elastic_trial",
    "run_membership_trial",
]

_HANDSHAKE_KINDS = (JOIN_KIND, JOIN_ACK_KIND, STATE_SYNC_KIND, FEED_JOIN_KIND)


class MembershipHost(FailureDetectorMixin, ReliableEndpoint, Actor):
    """An actor that runs only the membership layer, for ``duration``.

    Every peer starts presumed-alive (the heartbeat path pre-seeds
    ``_fd_last_heard`` so both modes begin from the same belief), and
    the host records the first time each peer slot drops out of its
    alive set in ``suspected_at``.
    """

    _fd_can_take_over = False
    #: The loop notes suspicions after every message, so each heartbeat
    #: must come back to it.
    _fd_absorbs_beats = False

    def __init__(
        self,
        name: str,
        slot: int,
        peers: dict[int, str],
        config: FailureDetectorConfig,
        duration: float,
    ) -> None:
        super().__init__(name)
        self._init_reliability(None)
        self._init_failure_detector(config)
        self._slot = slot
        self._peers = dict(peers)
        self._duration = duration
        self.suspected_at: dict[int, float] = {}
        for peer_slot in self._peers:
            self._fd_last_heard[peer_slot] = 0.0

    # -- membership-layer host hooks -----------------------------------
    def _fd_slot(self) -> int:
        return self._slot

    def _fd_peers(self) -> dict[int, str]:
        return self._peers

    # -- run loop ------------------------------------------------------
    def _note_suspicions(self) -> None:
        alive = self._fd_alive_slots(self.now)
        for peer_slot in self._peers:
            if peer_slot not in alive and peer_slot not in self.suspected_at:
                self.suspected_at[peer_slot] = self.now

    def run(self):
        while self.now < self._duration:
            msg = yield from self._fd_receive(f"{self.name} membership idle")
            if msg is not None:
                code = yield from self._dispatch_common(msg)
                if code == "unhandled":
                    yield from self._dispatch_fd(msg)
            self._note_suspicions()


@dataclass(frozen=True, slots=True)
class MembershipTrial:
    """One membership-layer run's measurements."""

    n: int
    membership: str
    liveness_bytes: int
    detection_times: tuple[float, ...]
    crash_at: float

    @property
    def max_detection_latency(self) -> float:
        """Worst survivor's time-to-suspicion for the crashed member."""
        if not self.detection_times:
            return float("inf")
        return max(self.detection_times) - self.crash_at

    @property
    def all_detected(self) -> bool:
        return len(self.detection_times) == self.n - 1


def run_membership_trial(
    n: int,
    config: FailureDetectorConfig,
    *,
    duration: float = 40.0,
    crash_at: float = 10.0,
    seed: int = 0,
) -> MembershipTrial:
    """Run ``n`` membership hosts, crash-stop member 1, measure.

    Returns the survivors' per-host detection times for the victim and
    the whole run's liveness bytes (heartbeats + pings/acks/ping-reqs,
    including piggybacked membership entries).
    """
    if n < 2:
        raise ValueError("membership trial needs n >= 2")
    # The detector must keep ticking for the whole trial — there is no
    # protocol traffic to fall back on, so disable the idle cutoff.
    config = replace(config, max_idle_rounds=10**9)
    names = {slot: f"member-{slot}" for slot in range(n)}
    victim_slot = 1
    plan = FaultPlan(crashes=(CrashEvent(names[victim_slot], crash_at),))
    kernel = Kernel(seed=seed, faults=plan, max_steps=50_000_000)
    hosts = []
    for slot, name in names.items():
        peers = {s: p for s, p in names.items() if s != slot}
        host = MembershipHost(name, slot, peers, config, duration)
        kernel.add_actor(host)
        hosts.append(host)
    kernel.run(until=duration * 2)
    detection_times = tuple(
        sorted(
            host.suspected_at[victim_slot]
            for host in hosts
            if host._slot != victim_slot
            and victim_slot in host.suspected_at
        )
    )
    return MembershipTrial(
        n=n,
        membership=config.membership,
        liveness_bytes=kernel.metrics.liveness_bytes(),
        detection_times=detection_times,
        crash_at=crash_at,
    )


@dataclass(frozen=True, slots=True)
class ElasticTrial:
    """One scale-out run's measurements: a group grown from
    ``n_start`` to ``n`` members by live joins."""

    n: int
    n_start: int
    joined: int
    synced: int
    liveness_bytes: int
    handshake_bytes: int
    handshake_messages: int

    @property
    def joiners(self) -> int:
        return self.n - self.n_start

    @property
    def all_joined(self) -> bool:
        return self.joined == self.joiners and self.synced == self.joiners


def run_elastic_trial(
    n: int,
    config: FailureDetectorConfig,
    *,
    duration: float = 60.0,
    join_at: float = 10.0,
    seed: int = 0,
) -> ElasticTrial:
    """Grow a gossip group from ``n // 4`` members to ``n`` by live joins.

    ``n - n_start`` standby monitors join from ``join_at`` on —
    staggered evenly across a window that closes by mid-run, so the
    handshakes overlap without being simultaneous and every joiner
    still has half the trial to integrate — with seed contacts spread
    round-robin over the static members.
    Reports the dedicated join-handshake traffic separately from the
    steady-state liveness bytes: the handshake is the *only* dedicated
    cost of a join — the introduction itself disseminates as O(1)
    piggybacked bytes on probes already in flight, so the per-joiner
    dedicated byte count is dominated by one welcome snapshot
    (O(n_start) entries) regardless of how large the group grows.
    """
    if config.membership != "gossip":
        raise ValueError("elastic trials require gossip membership")
    n_start = max(2, n // 4)
    if n <= n_start:
        raise ValueError(f"elastic trial needs n > {n_start}, got {n}")
    config = replace(config, max_idle_rounds=10**9)
    names = {slot: f"member-{slot}" for slot in range(n_start)}
    kernel = Kernel(seed=seed, max_steps=50_000_000)
    for slot, name in names.items():
        peers = {s: p for s, p in names.items() if s != slot}
        kernel.add_actor(MembershipHost(name, slot, peers, config, duration))
    if duration / 2 <= join_at:
        raise ValueError(
            f"join_at {join_at} must fall in the first half of the "
            f"{duration}s trial"
        )
    joiners: list[StandbyMonitor] = []
    stagger = (duration / 2 - join_at) / (n - n_start)
    for index in range(n - n_start):
        contact_slot = index % n_start
        joiner = StandbyMonitor(
            f"member-{n_start + index}", n_start + index,
            names[contact_slot], contact_slot, config=config,
        )
        kernel.spawn_new(join_at + index * stagger, joiner)
        joiners.append(joiner)
    kernel.run(until=duration)
    metrics = kernel.metrics
    return ElasticTrial(
        n=n,
        n_start=n_start,
        joined=sum(1 for j in joiners if j.joined),
        synced=sum(1 for j in joiners if j.synced),
        liveness_bytes=metrics.liveness_bytes(),
        handshake_bytes=sum(
            metrics.bits_of_kind(kind) for kind in _HANDSHAKE_KINDS
        ) // 8,
        handshake_messages=sum(
            metrics.messages_of_kind(kind) for kind in _HANDSHAKE_KINDS
        ),
    )
