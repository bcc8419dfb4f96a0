"""Vector clocks with the paper's interval semantics (Fig. 2).

The application-process algorithm in Fig. 2 of the paper maintains a
vector ``vclock`` of width ``n`` with ``vclock[i]`` initialized to 1 and
incremented *after* every send and after every receive.  A clock value
therefore identifies a *communication interval*: a maximal block of local
states with no intervening send/receive.  The two properties the
correctness proofs rely on are:

1. ``alpha -> beta`` iff ``alpha.v < beta.v`` (componentwise ``<=`` with
   at least one strict inequality), and
2. for a vector ``v`` taken on process ``P_i`` and any ``j != i``, the
   state ``(j, v[j])`` happened before ``(i, v[i])``.

:class:`VectorClock` is a value type packed into one contiguous
``array('q')`` buffer.  Its operations (``tick``, ``merged``) return new
instances, which keeps snapshots safe to share between simulated
processes without copying discipline at every call site.  The trace
sweep in :mod:`repro.trace.intervals` does not go through them: it
mutates one raw working buffer per process and adopts a frozen copy per
interval with :meth:`VectorClock._trusted`, so it allocates no
validated clock per communication event.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro.common.errors import ClockError
from repro.common.types import Pid

__all__ = ["VectorClock"]

# Interned identity projections: tuple(range(n)) per width.  Predicates
# over all N processes project every snapshot with the same pid tuple,
# so the fast path below compares against one shared interned object
# instead of re-deriving the index list per snapshot.
_IOTA_CACHE: dict[int, tuple[int, ...]] = {}


def _iota(width: int) -> tuple[int, ...]:
    cached = _IOTA_CACHE.get(width)
    if cached is None:
        cached = _IOTA_CACHE[width] = tuple(range(width))
    return cached


class VectorClock:
    """A vector clock of fixed width over one ``array('q')`` buffer.

    Parameters
    ----------
    components:
        The clock components; copied into a fresh buffer and validated
        (at least one component, none negative).

    Use :meth:`initial` to obtain the paper's starting clock for a
    process (all zeros except 1 in the owner's component).  Instances
    are immutable by convention: nothing outside this class writes the
    buffer of a clock it did not just build.
    """

    __slots__ = ("_buf",)

    def __init__(self, components: Sequence[int] | Iterable[int]) -> None:
        buf = array("q", (int(c) for c in components))
        if not buf:
            raise ClockError("vector clock must have at least one component")
        for c in buf:
            if c < 0:
                raise ClockError(
                    f"vector clock components must be >= 0, got {tuple(buf)}"
                )
        self._buf = buf

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, owner: Pid, width: int) -> "VectorClock":
        """The paper's initial clock on process ``owner``: ``v[owner]=1``."""
        if not 0 <= owner < width:
            raise ClockError(f"owner {owner} out of range for width {width}")
        buf = array("q", bytes(8 * width))
        buf[owner] = 1
        return cls._trusted(buf)

    @classmethod
    def zero(cls, width: int) -> "VectorClock":
        """An all-zero clock of the given width (pre-initial sentinel)."""
        if width <= 0:
            raise ClockError(f"width must be positive, got {width}")
        return cls._trusted(array("q", bytes(8 * width)))

    @classmethod
    def _trusted(cls, buf: array) -> "VectorClock":
        """Adopt an already-validated buffer without copying."""
        clock = object.__new__(cls)
        clock._buf = buf
        return clock

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of components (the paper's ``n``)."""
        return len(self._buf)

    @property
    def components(self) -> tuple[int, ...]:
        """The components as an immutable tuple."""
        return tuple(self._buf)

    def __getitem__(self, pid: Pid) -> int:
        return self._buf[pid]

    def __iter__(self) -> Iterator[int]:
        return iter(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    # ------------------------------------------------------------------
    # Clock operations
    # ------------------------------------------------------------------
    def tick(self, owner: Pid) -> "VectorClock":
        """Return a copy with ``owner``'s component incremented by one.

        This is the ``vclock[i]++`` step performed after each send and
        each receive in Fig. 2.
        """
        self._check_pid(owner)
        buf = array("q", self._buf)
        buf[owner] += 1
        return VectorClock._trusted(buf)

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Componentwise maximum with ``other`` (the receive-merge step)."""
        self._check_width(other)
        return VectorClock._trusted(array("q", map(max, self._buf, other._buf)))

    # ------------------------------------------------------------------
    # Causal comparison
    # ------------------------------------------------------------------
    def __le__(self, other: "VectorClock") -> bool:
        self._check_width(other)
        for a, b in zip(self._buf, other._buf):
            if a > b:
                return False
        return True

    def __lt__(self, other: "VectorClock") -> bool:
        """Strict causal precedence: ``self <= other`` and ``self != other``."""
        self._check_width(other)
        strict = False
        for a, b in zip(self._buf, other._buf):
            if a > b:
                return False
            if a < b:
                strict = True
        return strict

    def __ge__(self, other: "VectorClock") -> bool:
        self._check_width(other)
        return other <= self

    def __gt__(self, other: "VectorClock") -> bool:
        self._check_width(other)
        return other < self

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True iff neither clock causally precedes the other (``||``)."""
        return not self < other and not other < self and self != other

    def happened_before(self, other: "VectorClock") -> bool:
        """Property 1 from the paper: ``alpha -> beta`` iff ``alpha.v < beta.v``."""
        return self < other

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._buf == other._buf

    def __hash__(self) -> int:
        return hash(tuple(self._buf))

    def __repr__(self) -> str:
        return f"VectorClock({list(self._buf)!r})"

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, pids: Sequence[Pid]) -> tuple[int, ...]:
        """The components restricted to ``pids``, in order, as a tuple.

        The full-width identity projection converts the whole buffer at
        C speed instead of indexing element by element.
        """
        buf = self._buf
        if tuple(pids) == _iota(len(buf)):
            return tuple(buf)
        return tuple(buf[p] for p in pids)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def size_words(self) -> int:
        """Message-size accounting: one machine word per component."""
        return len(self._buf)

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_width(self, other: "VectorClock") -> None:
        if not isinstance(other, VectorClock):
            raise ClockError(
                f"expected VectorClock, got {type(other).__name__}"
            )
        if other.width != self.width:
            raise ClockError(
                f"vector clock width mismatch: {self.width} vs {other.width}"
            )

    def _check_pid(self, pid: Pid) -> None:
        if not 0 <= pid < self.width:
            raise ClockError(f"pid {pid} out of range for width {self.width}")
