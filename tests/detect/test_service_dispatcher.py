"""Unit tests for the service dispatcher's run configuration."""

import pytest

from repro.common.errors import ConfigurationError
from repro.detect.service import PredicateRegistry, SharedCausalityDispatcher
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.trace import random_computation


class TestMuxRejectsJoins:
    """The multiplexed service runs a fixed monitor set: a join event
    must fail loudly, not be dropped."""

    def test_dispatcher_rejects_join_events(self):
        comp = random_computation(4, 4, seed=3, plant_final_cut=True)
        registry = PredicateRegistry()
        registry.register("q0", WeakConjunctivePredicate.of_flags((0, 1)))
        with pytest.raises(ConfigurationError, match="join events"):
            SharedCausalityDispatcher(
                registry, comp, faults=FaultPlan.parse("join:mon-9:5")
            )
