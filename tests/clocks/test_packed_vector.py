"""Model-based tests for the array-backed VectorClock.

:class:`VectorClock` packs its components into one ``array('q')``
buffer.  Every test here checks it against a plain-list/tuple model of
the same operation (``max`` for merge, ``all`` for ``<=``), over random
operands, so the buffer representation cannot drift from the value
semantics that ``tests/clocks/test_vector.py`` pins by example.  The
in-place tests cover the one place that mutates raw buffers: the
interval sweep of :mod:`repro.trace.intervals`.
"""

import random

import pytest

from repro.clocks import VectorClock
from repro.common import ClockError
from repro.trace import Computation, random_computation
from repro.trace.events import EventKind


def _random_components(rng, width):
    return [rng.randrange(0, 50) for _ in range(width)]


def _model_le(a, b):
    return all(x <= y for x, y in zip(a, b))


def _model_lt(a, b):
    return _model_le(a, b) and tuple(a) != tuple(b)


def _immutable_replay(comp: Computation):
    """Interval vectors rebuilt with the copying ``tick``/``merged`` ops.

    Processes run in ``topological_order()``; each interval's vector is
    the clock held while the interval is open (the Fig. 2 replay).
    """
    n = comp.num_processes
    current = [VectorClock.initial(pid, n) for pid in range(n)]
    tags: dict[int, VectorClock] = {}
    vectors: list[list[VectorClock]] = [[] for _ in range(n)]
    for pid, idx in comp.topological_order():
        event = comp.event(pid, idx)
        if event.kind is EventKind.INTERNAL:
            continue
        vectors[pid].append(current[pid])
        if event.kind is EventKind.SEND:
            tags[event.msg_id] = current[pid]
            current[pid] = current[pid].tick(pid)
        else:
            current[pid] = current[pid].merged(tags[event.msg_id]).tick(pid)
    for pid in range(n):
        vectors[pid].append(current[pid])
    return vectors


class TestConstructionParity:
    def test_from_components(self):
        p = VectorClock([1, 2, 3])
        assert p.components == (1, 2, 3)
        assert p.width == 3
        assert len(p) == 3
        assert list(p) == [1, 2, 3]
        assert p[1] == 2

    def test_initial_matches_list_backend(self):
        model = [0, 0, 0, 0]
        model[2] = 1
        assert VectorClock.initial(owner=2, width=4).components == tuple(model)

    def test_zero_matches_list_backend(self):
        assert VectorClock.zero(5).components == tuple([0] * 5)

    def test_empty_rejected(self):
        with pytest.raises(ClockError):
            VectorClock([])

    def test_negative_component_rejected(self):
        with pytest.raises(ClockError):
            VectorClock([1, -1])

    def test_zero_width_rejected(self):
        with pytest.raises(ClockError):
            VectorClock.zero(0)

    def test_initial_owner_out_of_range(self):
        with pytest.raises(ClockError):
            VectorClock.initial(owner=4, width=4)


class TestOperationParity:
    """tick/merged, and the interval sweep's in-place buffers, track the
    list model exactly."""

    def test_tick_matches(self):
        rng = random.Random(7)
        comps = _random_components(rng, 6)
        for owner in range(6):
            model = list(comps)
            model[owner] += 1
            assert VectorClock(comps).tick(owner).components == tuple(model)

    def test_merged_matches(self):
        rng = random.Random(8)
        for _ in range(50):
            a = _random_components(rng, 5)
            b = _random_components(rng, 5)
            assert VectorClock(a).merged(VectorClock(b)).components == tuple(
                map(max, a, b)
            )

    def test_tick_in_place_agrees_with_tick(self):
        # The sweep ticks one working buffer in place per process; the
        # copying ops replayed in topological order give the same clocks.
        for seed in range(5):
            comp = random_computation(4, 6, seed=seed)
            analysis = comp.analysis()
            replay = _immutable_replay(comp)
            for pid in range(4):
                assert [
                    analysis.vector(pid, k + 1)
                    for k in range(analysis.num_intervals(pid))
                ] == replay[pid]

    def test_merge_in_place_agrees_with_merged(self):
        # Star traffic makes every receive merge a multi-hop history.
        comp = random_computation(6, 8, seed=3, pattern="client_server")
        analysis = comp.analysis()
        replay = _immutable_replay(comp)
        for pid in range(6):
            assert analysis.vector(pid, analysis.num_intervals(pid)) == (
                replay[pid][-1]
            )

    def test_snapshot_is_independent_of_working_copy(self):
        # Interval vectors are frozen copies: no two share a buffer with
        # each other or with the sweep's working buffer, so later ticks
        # never leak into an earlier interval.
        comp = random_computation(3, 5, seed=11)
        analysis = comp.analysis()
        for pid in range(3):
            vectors = [
                analysis.vector(pid, k + 1)
                for k in range(analysis.num_intervals(pid))
            ]
            assert vectors[0] == VectorClock.initial(pid, 3)
            owners = [v[pid] for v in vectors]
            assert owners == list(range(1, len(vectors) + 1))
            assert len({id(v._buf) for v in vectors}) == len(vectors)

    def test_tick_does_not_mutate_receiver(self):
        p = VectorClock([1, 1])
        p.tick(0)
        p.merged(VectorClock([5, 5]))
        assert p.components == (1, 1)

    def test_random_op_sequences_stay_in_lockstep(self):
        """Replay one op stream through the clock and the model."""
        rng = random.Random(10)
        width = 5
        clock = VectorClock.initial(0, width)
        model = [1, 0, 0, 0, 0]
        for _ in range(200):
            if rng.random() < 0.5:
                owner = rng.randrange(width)
                clock = clock.tick(owner)
                model[owner] += 1
            else:
                other = _random_components(rng, width)
                clock = clock.merged(VectorClock(other))
                model = list(map(max, model, other))
            assert clock.components == tuple(model)


class TestComparisonParity:
    def _pairs(self, count=200):
        rng = random.Random(11)
        for _ in range(count):
            a = _random_components(rng, 4)
            # Bias towards comparable pairs: sometimes derive b from a.
            if rng.random() < 0.5:
                b = [c + rng.randrange(0, 3) for c in a]
            else:
                b = _random_components(rng, 4)
            yield a, b

    def test_all_orderings_match(self):
        for a, b in self._pairs():
            va, vb = VectorClock(a), VectorClock(b)
            lt, gt = _model_lt(a, b), _model_lt(b, a)
            assert (va < vb) == lt
            assert (va <= vb) == _model_le(a, b)
            assert (va > vb) == gt
            assert (va >= vb) == _model_le(b, a)
            assert (va == vb) == (a == b)
            assert va.concurrent_with(vb) == (not lt and not gt and a != b)
            assert va.happened_before(vb) == lt

    def test_hash_follows_components(self):
        assert hash(VectorClock([1, 2])) == hash(VectorClock([1, 2]))
        assert hash(VectorClock([1, 2])) == hash((1, 2))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ClockError):
            VectorClock([1]) <= VectorClock([1, 2])

    def test_cross_class_comparison_rejected(self):
        with pytest.raises(ClockError):
            VectorClock([1, 2]) <= (1, 2)  # type: ignore[operator]


class TestProjectionParity:
    def test_identity_projection(self):
        assert VectorClock([4, 5, 6]).project((0, 1, 2)) == (4, 5, 6)

    def test_subset_projection(self):
        comps = [4, 5, 6, 7]
        for pids in ((0,), (1, 3), (3, 0), (2, 2)):
            assert VectorClock(comps).project(pids) == tuple(
                comps[p] for p in pids
            )

    def test_projection_returns_plain_tuple(self):
        out = VectorClock([1, 2, 3]).project((0, 1, 2))
        assert type(out) is tuple
        assert all(type(c) is int for c in out)

    def test_size_words_matches(self):
        assert VectorClock([1, 2, 3, 4]).size_words() == 4
