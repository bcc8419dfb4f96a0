"""Host-speed calibration for the end-to-end benchmark.

The host the benchmark runs on is shared, and its speed drifts by up to
2x over minutes: one repeated ``plain`` request measured 48-92 ms in
10 s windows of a single run.  :func:`calibrate` times a fixed piece of
benchmark-owned Python work shaped like the program's hot path: a
heap-ordered event loop that resumes generator actors, each merging a
vector clock.  Scaling a host time by :func:`scale_of` the calibrations
taken next to it removes much of the drift.  Over 280 s of a fixed
request mix, 35 s window means varied with a CV of 0.167 unscaled and
0.080 scaled; a dict-allocation calibration only reached 0.157.  The
work never calls the program, so a change to the program cannot move
it.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Median :func:`calibrate` time on the reference host.  Scaled host
#: times read as times on a host where ``calibrate()`` takes this long.
CAL_REFERENCE_MS = 4.0
_ACTORS = 16
_EVENTS = 2500


def calibrate() -> float:
    """Run the fixed calibration work once; returns its wall time in ms."""
    t0 = time.perf_counter()
    clocks = [[0] * _ACTORS for _ in range(_ACTORS)]

    def actor(i):
        vc = clocks[i]
        while True:
            msg = yield
            for k in range(_ACTORS):
                if msg[k] > vc[k]:
                    vc[k] = msg[k]
            vc[i] += 1

    actors = [actor(i) for i in range(_ACTORS)]
    for a in actors:
        next(a)
    heap = [(t, t, t, [0] * _ACTORS) for t in range(_ACTORS)]
    rng, seq = 12345, _ACTORS
    for _ in range(_EVENTS):
        now, _, dest, vc = heapq.heappop(heap)
        actors[dest].send(vc)
        rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        event = (now + 1 + rng % 3, seq, rng % _ACTORS, list(clocks[dest]))
        heapq.heappush(heap, event)
    return (time.perf_counter() - t0) * 1000.0


def scale_of(cal_ms: list[float]) -> float:
    """Factor that scales a host time, measured while ``calibrate()``
    took ``cal_ms``, to the reference host speed."""
    return CAL_REFERENCE_MS / statistics.median(cal_ms)
