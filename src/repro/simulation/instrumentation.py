"""Metrics: first-class measurement of the paper's complexity quantities.

The paper's analysis sections (§3.4, §4.4) count four things:

* **messages** — how many, of which kind, per process and in total;
* **bits** — total communication volume (token and candidate sizes);
* **work** — elimination steps, vector scans, dependence processing;
* **space** — buffered snapshots / queues, as a high-water mark.

:class:`ActorMetrics` tracks all four per actor; :class:`MetricsBoard`
aggregates across actors.  The kernel charges message counts/bits and
mailbox buffering automatically; actors charge work via the ``Work``
effect and internal storage via :meth:`ActorMetrics.adjust_space`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError

__all__ = [
    "LIVENESS_KINDS",
    "ActorMetrics",
    "ChannelFaultStats",
    "FaultSummary",
    "MetricsBoard",
]

#: Message kinds that exist only to keep the failure detector alive —
#: heartbeat broadcasts, the SWIM probe traffic, and the elastic-join
#: handshake (join / welcome / anti-entropy state sync).  Named by
#: string so the simulation layer never imports from ``repro.detect``
#: (layering).
LIVENESS_KINDS = frozenset(
    {
        "heartbeat",
        "ping",
        "ping_ack",
        "ping_req",
        "join",
        "join_ack",
        "state_sync",
        "feed_join",
    }
)


@dataclass
class ChannelFaultStats:
    """Injected-fault counters for one directed channel ``(src, dest)``.

    Populated by the kernel only when a fault plan is active; the
    ``lost_to_crash`` counter also covers mailbox loss at crash time.
    """

    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    lost_to_crash: int = 0
    partitioned: int = 0


@dataclass(frozen=True, slots=True)
class FaultSummary:
    """Whole-run fault totals, attached to ``SimulationResult.faults``."""

    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    lost_to_crash: int = 0
    partitioned: int = 0
    crashes: int = 0
    restarts: int = 0
    partitions: int = 0
    joins: int = 0
    leaves: int = 0
    liveness_bytes: int = 0

    @property
    def total_message_faults(self) -> int:
        """All message-level fault events (excludes crash lifecycle)."""
        return (
            self.dropped + self.duplicated + self.corrupted
            + self.lost_to_crash + self.partitioned
        )

    def as_dict(self) -> dict[str, int]:
        """JSON-ready totals (includes the derived message-fault total)."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "lost_to_crash": self.lost_to_crash,
            "partitioned": self.partitioned,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "partitions": self.partitions,
            "joins": self.joins,
            "leaves": self.leaves,
            "liveness_bytes": self.liveness_bytes,
            "total_message_faults": self.total_message_faults,
        }


@dataclass
class ActorMetrics:
    """Counters for one actor."""

    name: str
    messages_sent: int = 0
    bits_sent: int = 0
    messages_received: int = 0
    bits_received: int = 0
    work_units: int = 0
    buffered_bits: int = 0
    buffered_bits_high_water: int = 0
    sent_by_kind: dict[str, int] = field(default_factory=dict)
    sent_bits_by_kind: dict[str, int] = field(default_factory=dict)
    received_by_kind: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def charge_send(self, kind: str, size_bits: int) -> None:
        """Record an outgoing message (called by the kernel)."""
        self.messages_sent += 1
        self.bits_sent += size_bits
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1
        self.sent_bits_by_kind[kind] = (
            self.sent_bits_by_kind.get(kind, 0) + size_bits
        )

    def charge_receive(self, kind: str, size_bits: int) -> None:
        """Record a consumed message (called by the kernel)."""
        self.messages_received += 1
        self.bits_received += size_bits
        self.received_by_kind[kind] = self.received_by_kind.get(kind, 0) + 1

    def charge_handoff(self, kind: str, size_bits: int) -> None:
        """Record a message consumed the instant it arrived (called by
        the kernel).

        Counts exactly as buffering it and consuming it at once would:
        the space gauge's high-water mark sees it for that instant.
        """
        peak = self.buffered_bits + size_bits
        if peak > self.buffered_bits_high_water:
            self.buffered_bits_high_water = peak
        self.messages_received += 1
        self.bits_received += size_bits
        self.received_by_kind[kind] = self.received_by_kind.get(kind, 0) + 1

    def charge_work(self, units: int) -> None:
        """Record work units (called by the kernel for ``Work`` effects)."""
        self.work_units += units

    def adjust_space(self, delta_bits: int) -> None:
        """Adjust the buffered-storage gauge by ``delta_bits``.

        Called by the kernel for mailbox occupancy and by actors for
        internal queues they retain after consuming messages.  The gauge
        must never go negative — that indicates a double release.
        """
        self.buffered_bits += delta_bits
        if self.buffered_bits < 0:
            raise SimulationError(
                f"actor {self.name}: buffered bits went negative "
                f"({self.buffered_bits})"
            )
        if self.buffered_bits > self.buffered_bits_high_water:
            self.buffered_bits_high_water = self.buffered_bits


class MetricsBoard:
    """Per-actor metrics plus cross-actor aggregation."""

    def __init__(self) -> None:
        self._actors: dict[str, ActorMetrics] = {}
        self._channel_faults: dict[tuple[str, str], ChannelFaultStats] = {}
        self._crashes: dict[str, int] = {}
        self._restarts: dict[str, int] = {}
        self._partitions: int = 0
        self._joins: int = 0
        self._leaves: int = 0

    def register(self, name: str) -> ActorMetrics:
        """Create (or return) the metrics record for ``name``."""
        if name not in self._actors:
            self._actors[name] = ActorMetrics(name)
        return self._actors[name]

    def of(self, name: str) -> ActorMetrics:
        """The metrics record for ``name``; raises if unknown."""
        try:
            return self._actors[name]
        except KeyError:
            raise SimulationError(f"no metrics for unknown actor {name!r}") from None

    def actors(self) -> dict[str, ActorMetrics]:
        """All actor metrics, keyed by name (live references)."""
        return dict(self._actors)

    # ------------------------------------------------------------------
    # Fault accounting (populated by the kernel's fault layer)
    # ------------------------------------------------------------------
    def record_channel_fault(self, src: str, dest: str, what: str) -> None:
        """Count one injected fault on the directed channel ``src->dest``.

        ``what`` names a :class:`ChannelFaultStats` counter (``dropped``
        / ``duplicated`` / ``corrupted`` / ``lost_to_crash`` /
        ``partitioned``).
        """
        stats = self._channel_faults.get((src, dest))
        if stats is None:
            stats = self._channel_faults[(src, dest)] = ChannelFaultStats()
        setattr(stats, what, getattr(stats, what) + 1)

    def record_crash(self, actor: str) -> None:
        """Count one crash of ``actor``."""
        self._crashes[actor] = self._crashes.get(actor, 0) + 1

    def record_restart(self, actor: str) -> None:
        """Count one restart of ``actor``."""
        self._restarts[actor] = self._restarts.get(actor, 0) + 1

    def record_partition(self) -> None:
        """Count one partition window becoming live."""
        self._partitions += 1

    def record_join(self) -> None:
        """Count one live join (a genuinely new member starting)."""
        self._joins += 1

    def record_leave(self) -> None:
        """Count one graceful permanent departure."""
        self._leaves += 1

    def channel_faults(self) -> dict[tuple[str, str], ChannelFaultStats]:
        """Per-channel fault counters, keyed by ``(src, dest)``."""
        return dict(self._channel_faults)

    def crash_counts(self) -> dict[str, int]:
        """Crashes per actor name."""
        return dict(self._crashes)

    def restart_counts(self) -> dict[str, int]:
        """Restarts per actor name."""
        return dict(self._restarts)

    def fault_summary(self) -> FaultSummary:
        """Whole-run totals across all channels and actors."""
        return FaultSummary(
            dropped=sum(s.dropped for s in self._channel_faults.values()),
            duplicated=sum(s.duplicated for s in self._channel_faults.values()),
            corrupted=sum(s.corrupted for s in self._channel_faults.values()),
            lost_to_crash=sum(
                s.lost_to_crash for s in self._channel_faults.values()
            ),
            partitioned=sum(
                s.partitioned for s in self._channel_faults.values()
            ),
            crashes=sum(self._crashes.values()),
            restarts=sum(self._restarts.values()),
            partitions=self._partitions,
            joins=self._joins,
            leaves=self._leaves,
            liveness_bytes=self.liveness_bytes(),
        )

    # ------------------------------------------------------------------
    # Aggregates used by the experiment harness
    # ------------------------------------------------------------------
    def total_messages(self, prefix: str | None = None) -> int:
        """Total messages sent (optionally only by actors whose name
        starts with ``prefix``)."""
        return sum(
            m.messages_sent
            for m in self._actors.values()
            if prefix is None or m.name.startswith(prefix)
        )

    def total_bits(self, prefix: str | None = None) -> int:
        """Total bits sent (optionally filtered by actor-name prefix)."""
        return sum(
            m.bits_sent
            for m in self._actors.values()
            if prefix is None or m.name.startswith(prefix)
        )

    def total_work(self, prefix: str | None = None) -> int:
        """Total work units (optionally filtered by actor-name prefix)."""
        return sum(
            m.work_units
            for m in self._actors.values()
            if prefix is None or m.name.startswith(prefix)
        )

    def max_work_per_actor(self, prefix: str | None = None) -> int:
        """The heaviest single actor's work — the paper's "work per process"."""
        values = [
            m.work_units
            for m in self._actors.values()
            if prefix is None or m.name.startswith(prefix)
        ]
        return max(values, default=0)

    def max_space_per_actor(self, prefix: str | None = None) -> int:
        """The largest per-actor buffered-bits high-water mark."""
        values = [
            m.buffered_bits_high_water
            for m in self._actors.values()
            if prefix is None or m.name.startswith(prefix)
        ]
        return max(values, default=0)

    def messages_of_kind(self, kind: str) -> int:
        """Total messages of one kind sent across all actors."""
        return sum(m.sent_by_kind.get(kind, 0) for m in self._actors.values())

    def bits_of_kind(self, kind: str) -> int:
        """Total bits of one message kind sent across all actors."""
        return sum(
            m.sent_bits_by_kind.get(kind, 0) for m in self._actors.values()
        )

    def liveness_bytes(self) -> int:
        """Bytes spent purely on failure-detection traffic.

        Sums the :data:`LIVENESS_KINDS` message kinds — heartbeats plus
        SWIM pings/acks/ping-reqs (piggybacked membership entries ride
        inside those sizes).  This is the quantity the membership-scale
        benchmark compares across detector modes.
        """
        bits = sum(self.bits_of_kind(kind) for kind in LIVENESS_KINDS)
        return bits // 8

    # ------------------------------------------------------------------
    # Telemetry snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready snapshot of the whole board.

        Used by ``repro detect --json`` and embedded in span-trace run
        headers; the units are the paper's (messages, bits, work units,
        buffered-bit high-water marks).
        """
        actors = {
            name: {
                "messages_sent": m.messages_sent,
                "bits_sent": m.bits_sent,
                "messages_received": m.messages_received,
                "bits_received": m.bits_received,
                "work_units": m.work_units,
                "space_high_water_bits": m.buffered_bits_high_water,
                "sent_by_kind": dict(m.sent_by_kind),
                "sent_bits_by_kind": dict(m.sent_bits_by_kind),
                "received_by_kind": dict(m.received_by_kind),
            }
            for name, m in sorted(self._actors.items())
        }
        snap: dict = {
            "totals": {
                "messages": self.total_messages(),
                "bits": self.total_bits(),
                "work": self.total_work(),
                "max_work_per_actor": self.max_work_per_actor(),
                "max_space_bits_per_actor": self.max_space_per_actor(),
                "liveness_bytes": self.liveness_bytes(),
            },
            "actors": actors,
        }
        by_kind = {
            kind: {
                "messages": self.messages_of_kind(kind),
                "bits": self.bits_of_kind(kind),
            }
            for kind in sorted(LIVENESS_KINDS)
            if self.messages_of_kind(kind)
        }
        if by_kind:
            snap["totals"]["liveness_by_kind"] = by_kind
        if self._channel_faults or self._crashes or self._restarts:
            snap["channel_faults"] = {
                f"{src}->{dest}": {
                    "dropped": s.dropped,
                    "duplicated": s.duplicated,
                    "corrupted": s.corrupted,
                    "lost_to_crash": s.lost_to_crash,
                    "partitioned": s.partitioned,
                }
                for (src, dest), s in sorted(self._channel_faults.items())
            }
            snap["crashes"] = dict(self._crashes)
            snap["restarts"] = dict(self._restarts)
        return snap
