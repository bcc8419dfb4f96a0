"""Integration: hardened detectors leave the shared clock analysis intact.

Every detector reads its candidate vectors from the interval analysis
that :meth:`Computation.analysis` caches, and those vectors are mutable
``array('q')`` buffers.  Under every fault regime we ship (message loss
+ crash, partition + heal without a failure detector, rolling monitor
churn) each hardened detector must therefore produce **byte-identical
paper units** whether it runs on a freshly loaded computation or on one
whose cached analysis earlier runs have already consumed, and the same
verdict and first cut as the fault-free ``reference`` detector.  With
the streaming invariant monitors attached, the invariant verdicts must
not depend on the analysis either.

The class and test names date from when this suite compared two clock
representations; the representation-independence they check is now
the fresh-versus-shared analysis comparison.
"""

import json

import pytest

from repro.detect import run_detector
from repro.detect.runner import paper_units
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import (
    ChurnEvent,
    CrashEvent,
    FaultPlan,
    FaultRule,
    PartitionEvent,
)
from repro.trace import dumps, loads, random_computation

HARDENED = ("token_vc", "token_vc_multi", "direct_dep", "direct_dep_parallel")

LOSSY = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.2),),
    crashes=(CrashEvent("mon-1", 4.0, 9.0),),
)

PARTITIONED = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.15),),
    crashes=(CrashEvent("mon-1", 6.0, 60.0),),
    partitions=(
        PartitionEvent(10.0, (frozenset({"mon-0", "app-0"}),), 25.0),
    ),
)

CHURN = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.1),),
    churns=(ChurnEvent(("mon-1", "mon-2"), 4.0, 10.0, 5.0, rounds=2),),
)


def _case(seed):
    comp = random_computation(
        3, 4, seed=seed, predicate_density=0.3,
        plant_final_cut=(seed % 2 == 0),
    )
    return comp, WeakConjunctivePredicate.of_flags(range(3))


def _units_bytes(rep) -> bytes:
    return json.dumps(paper_units(rep), sort_keys=True).encode()


def _assert_analysis_independent(name, comp, wcp, seed, plan, **options):
    """Run ``name`` on a fresh copy of ``comp`` and on ``comp`` itself
    (whose cached analysis earlier runs used); both must agree with
    each other exactly and with the reference on verdict and cut."""
    ref = run_detector("reference", comp, wcp)
    reps = {
        label: run_detector(
            name, target, wcp, seed=seed, faults=plan, hardened=True,
            **options,
        )
        for label, target in (("fresh", loads(dumps(comp))), ("shared", comp))
    }
    fresh, shared = reps["fresh"], reps["shared"]
    assert shared.outcome == fresh.outcome, f"{name} s{seed} outcome"
    assert _units_bytes(shared) == _units_bytes(fresh), (
        f"{name} s{seed} paper units diverge:\n"
        f"  fresh:  {paper_units(fresh)}\n"
        f"  shared: {paper_units(shared)}"
    )
    for rep in (fresh, shared):
        assert rep.detected == ref.detected, f"{name} s{seed} verdict"
        assert rep.cut == ref.cut, f"{name} s{seed} cut"
    return fresh, shared


class TestLossCrashParity:
    """50 seeded workloads x 4 hardened detectors under loss + crash."""

    @pytest.mark.parametrize("seed", range(50))
    def test_backends_agree(self, seed):
        comp, wcp = _case(seed)
        for name in HARDENED:
            _assert_analysis_independent(name, comp, wcp, seed, LOSSY)


class TestPartitionHealParity:
    """Partition + long crash + loss with no failure detector: the
    hardened transport alone rides out the outage and the heal."""

    @pytest.mark.parametrize("seed", range(50))
    def test_backends_agree(self, seed):
        comp, wcp = _case(seed)
        for name in HARDENED:
            _assert_analysis_independent(name, comp, wcp, seed, PARTITIONED)


class TestChurnParity:
    """Rolling monitor churn (crash/restart cycles) with no failure
    detector."""

    @pytest.mark.parametrize("seed", range(50))
    def test_backends_agree(self, seed):
        comp, wcp = _case(seed)
        for name in HARDENED:
            _assert_analysis_independent(name, comp, wcp, seed, CHURN)


class TestInvariantMonitorParity:
    """The runtime-verification verdicts do not depend on the analysis."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", ("token_vc", "direct_dep"))
    def test_invariant_results_agree(self, name, seed):
        comp, wcp = _case(seed)
        fresh, shared = _assert_analysis_independent(
            name, comp, wcp, seed, LOSSY, check_invariants=True,
        )
        assert (
            shared.extras["invariant_violations"]
            == fresh.extras["invariant_violations"]
            == 0
        )
        assert (
            shared.extras.get("invariant_summary")
            == fresh.extras.get("invariant_summary")
        )


class TestBackendAgainstReference:
    """The analysis the detectors read is the reference's own: after
    every hardened run, the cached interval vectors still equal those
    of a freshly built analysis."""

    @pytest.mark.parametrize("seed", range(10))
    def test_packed_matches_reference(self, seed):
        comp, wcp = _case(seed)
        pristine = loads(dumps(comp)).analysis()
        for name in HARDENED:
            _assert_analysis_independent(name, comp, wcp, seed, LOSSY)
        analysis = comp.analysis()
        for pid in range(comp.num_processes):
            for k in range(1, analysis.num_intervals(pid) + 1):
                assert analysis.vector(pid, k) == pristine.vector(pid, k)
