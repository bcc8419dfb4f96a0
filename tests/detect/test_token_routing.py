"""Tests for the token-routing ablation (E9's code path)."""

import pytest

from repro.common import ConfigurationError
from repro.detect import reference, run_detector, run_service, token_vc
from repro.detect.token_vc import TokenVCMonitor
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.trace import random_computation, spiral_computation


class TestRoutingOptions:
    def test_invalid_routing_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenVCMonitor(0, 0, ["mon-0"], routing="telekinesis")

    @pytest.mark.parametrize("routing", TokenVCMonitor.ROUTINGS)
    def test_all_policies_find_the_same_first_cut(self, routing):
        for seed in range(5):
            comp = random_computation(
                4, 5, seed=seed, predicate_density=0.3, plant_final_cut=True
            )
            wcp = WeakConjunctivePredicate.of_flags(range(4))
            rep = token_vc.detect(comp, wcp, seed=seed, routing=routing)
            ref = reference.detect(comp, wcp)
            assert rep.cut == ref.cut, f"{routing} seed={seed}"

    @pytest.mark.parametrize("routing", TokenVCMonitor.ROUTINGS)
    def test_policies_respect_the_hop_bound(self, routing):
        comp = spiral_computation(5, 4)
        m = comp.max_messages_per_process()
        wcp = WeakConjunctivePredicate.of_flags(range(5))
        rep = token_vc.detect(comp, wcp, routing=routing)
        assert rep.extras["token_hops"] <= 5 * (m + 1)

    def test_policies_can_differ_in_cost(self):
        """On the spiral the policies take measurably different routes —
        otherwise the ablation would be vacuous."""
        comp = spiral_computation(8, 4)
        wcp = WeakConjunctivePredicate.of_flags(range(8))
        hops = {
            routing: token_vc.detect(comp, wcp, routing=routing).extras[
                "token_hops"
            ]
            for routing in TokenVCMonitor.ROUTINGS
        }
        assert len(set(hops.values())) >= 2, hops


class TestRoutingOffThePlainPath:
    """Every routing policy through the hardened monitor and the
    service's per-predicate machines, not only the plain monitor."""

    @pytest.mark.parametrize("routing", TokenVCMonitor.ROUTINGS)
    def test_hardened_under_loss_matches_reference(self, routing):
        plan = FaultPlan.parse("drop:*:0.1")
        for seed in range(5):
            comp = random_computation(
                5, 5, seed=seed, predicate_density=0.3,
                plant_final_cut=(seed != 4),
            )
            wcp = WeakConjunctivePredicate.of_flags(range(5))
            rep = token_vc.detect(
                comp, wcp, seed=seed, routing=routing, faults=plan
            )
            ref = reference.detect(comp, wcp)
            assert rep.extras["hardened"]
            assert rep.detected == ref.detected, f"{routing} seed={seed}"
            assert rep.cut == ref.cut, f"{routing} seed={seed}"

    @pytest.mark.parametrize("routing", TokenVCMonitor.ROUTINGS)
    def test_service_matches_reference_and_independent_runs(self, routing):
        entries = [
            ("left", WeakConjunctivePredicate.of_flags((0, 1, 2, 3))),
            ("right", WeakConjunctivePredicate.of_flags((1, 3, 4))),
        ]
        for seed in range(4):
            comp = random_computation(
                5, 5, seed=seed, predicate_density=0.3, plant_final_cut=True
            )
            service = run_service(
                "token_vc", comp, entries, seed=seed, routing=routing
            )
            assert service.multiplexed
            for pred_id, wcp in entries:
                out = service.outcomes[pred_id]
                ref = reference.detect(comp, wcp)
                solo = run_detector(
                    "token_vc", comp, wcp, seed=seed, routing=routing,
                    hardened=True,
                )
                assert out.detected == ref.detected, f"{routing} {pred_id}"
                assert out.cut == ref.cut, f"{routing} {pred_id}"
                assert out.cut == solo.cut, f"{routing} {pred_id}"
