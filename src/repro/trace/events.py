"""Event model for recorded distributed computations.

A *computation* (§2 of the paper) is a single run of a distributed
program: per process, a totally ordered sequence of events; across
processes, send/receive pairs inducing Lamport's happened-before
relation.  Three event kinds exist:

* ``INTERNAL`` — a local step that may update program variables,
* ``SEND`` — transmit one asynchronous message to a peer process,
* ``RECV`` — consume one previously sent message.

Each event may carry a sparse ``updates`` mapping of program variables
assigned by the event; the *local state* after an event is the initial
variable assignment overlaid with all updates so far.  Local predicates
are evaluated on these local states.

Events are immutable value objects; the containing
:class:`~repro.trace.computation.Computation` performs cross-process
validation (matching of message ids, causal acyclicity).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.common.errors import InvalidComputationError
from repro.common.types import Pid

__all__ = ["EventKind", "Event", "ProcessTrace"]

#: The frozen ``updates`` of every event that assigns no variable.
EMPTY_UPDATES: Mapping[str, object] = MappingProxyType({})


class EventKind(enum.Enum):
    """The three event kinds of the asynchronous message-passing model."""

    INTERNAL = "internal"
    SEND = "send"
    RECV = "recv"

    @property
    def is_communication(self) -> bool:
        """True for SEND/RECV — the events that end a communication interval."""
        return self is not EventKind.INTERNAL


@dataclass(frozen=True, slots=True)
class Event:
    """One event in a process's local sequence.

    Parameters
    ----------
    kind:
        The event kind.
    msg_id:
        For SEND/RECV, the globally unique message identifier, a
        non-negative ``int``; ``None`` for INTERNAL events.
    peer:
        For SEND, the destination process; for RECV, the sender; a
        non-negative ``int``.  ``None`` for INTERNAL events.
    updates:
        Sparse variable assignments applied by this event (may be empty
        for any kind — e.g. a SEND that changes no variables).  Copied
        and frozen on construction.
    time:
        Optional simulated timestamp used by trace replay, an ``int`` or
        ``float``.  Not part of the causal structure; purely a
        scheduling hint.

    Raises :class:`InvalidComputationError` when a field breaks these
    rules; ``bool`` is not accepted where an ``int`` is required.
    """

    kind: EventKind
    msg_id: int | None = None
    peer: Pid | None = None
    updates: Mapping[str, object] = field(default_factory=dict)
    time: float | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        msg_id = self.msg_id
        peer = self.peer
        if kind is EventKind.INTERNAL:
            if msg_id is not None or peer is not None:
                raise InvalidComputationError(
                    "internal events must not carry msg_id or peer"
                )
        else:
            if msg_id is None or peer is None:
                raise InvalidComputationError(
                    f"{kind.value} events require msg_id and peer"
                )
            # ``type(...) is int`` also rejects ``bool`` and ``1.0``.
            if type(msg_id) is not int:
                raise InvalidComputationError(
                    f"msg_id must be an int, got {msg_id!r}"
                )
            if type(peer) is not int:
                raise InvalidComputationError(f"peer must be an int, got {peer!r}")
            if msg_id < 0:
                raise InvalidComputationError(f"msg_id must be >= 0, got {msg_id}")
            if peer < 0:
                raise InvalidComputationError(f"peer must be >= 0, got {peer}")
        time = self.time
        if time is not None and type(time) is not float and type(time) is not int:
            raise InvalidComputationError(
                f"time must be an int or float, got {time!r}"
            )
        # Freeze the updates mapping so the dataclass is deeply immutable;
        # every event given no updates shares one frozen empty mapping.
        updates = self.updates
        if updates is not EMPTY_UPDATES:
            if type(updates) is dict and not updates:
                frozen = EMPTY_UPDATES
            else:
                frozen = MappingProxyType(dict(updates))
            object.__setattr__(self, "updates", frozen)

    # Convenience constructors -----------------------------------------
    @classmethod
    def internal(
        cls, updates: Mapping[str, object] | None = None, time: float | None = None
    ) -> "Event":
        """An internal event, optionally updating variables."""
        return cls(EventKind.INTERNAL, updates=updates or EMPTY_UPDATES, time=time)

    @classmethod
    def send(
        cls,
        msg_id: int,
        dest: Pid,
        updates: Mapping[str, object] | None = None,
        time: float | None = None,
    ) -> "Event":
        """A send of message ``msg_id`` to process ``dest``."""
        return cls(EventKind.SEND, msg_id, dest, updates or EMPTY_UPDATES, time)

    @classmethod
    def recv(
        cls,
        msg_id: int,
        src: Pid,
        updates: Mapping[str, object] | None = None,
        time: float | None = None,
    ) -> "Event":
        """A receive of message ``msg_id`` sent by process ``src``."""
        return cls(EventKind.RECV, msg_id, src, updates or EMPTY_UPDATES, time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is EventKind.INTERNAL:
            core = "internal"
        else:
            core = f"{self.kind.value} m{self.msg_id} peer=P{self.peer}"
        if self.updates:
            core += f" {dict(self.updates)!r}"
        return f"Event<{core}>"


@dataclass(frozen=True, slots=True)
class ProcessTrace:
    """The local history of one process: initial variables + event sequence."""

    events: tuple[Event, ...]
    initial_vars: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "initial_vars", MappingProxyType(dict(self.initial_vars))
        )
        times = [e.time for e in self.events if e.time is not None]
        if times != sorted(times):
            raise InvalidComputationError(
                "event timestamps must be nondecreasing within a process"
            )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def communication_count(self) -> int:
        """Number of SEND/RECV events (the paper's per-process message count)."""
        return sum(1 for e in self.events if e.kind.is_communication)
