"""Unit tests for the detector registry and dispatch."""

import pytest

from repro.common import ConfigurationError
from repro.detect import run_detector
from repro.detect.runner import DETECTORS, offline_detectors, online_detectors
from repro.predicates import WeakConjunctivePredicate
from repro.trace import random_computation


class TestRegistry:
    def test_all_expected_detectors_registered(self):
        assert set(DETECTORS) == {
            "reference",
            "lattice",
            "centralized",
            "token_vc",
            "token_vc_multi",
            "direct_dep",
            "direct_dep_parallel",
        }

    def test_partition_offline_online(self):
        assert set(offline_detectors()) == {"reference", "lattice"}
        assert set(online_detectors()) == set(DETECTORS) - {
            "reference",
            "lattice",
        }

    def test_unknown_detector(self):
        comp = random_computation(2, 2, seed=0)
        wcp = WeakConjunctivePredicate.of_flags([0, 1])
        with pytest.raises(ConfigurationError, match="unknown detector"):
            run_detector("magic", comp, wcp)

    def test_offline_rejects_options(self):
        comp = random_computation(2, 2, seed=0)
        wcp = WeakConjunctivePredicate.of_flags([0, 1])
        with pytest.raises(ConfigurationError, match="takes no options"):
            run_detector("reference", comp, wcp, seed=1)

    def test_dispatch_produces_named_report(self):
        comp = random_computation(3, 3, seed=1, predicate_density=0.5)
        wcp = WeakConjunctivePredicate.of_flags([0, 1, 2])
        for name in DETECTORS:
            report = run_detector(name, comp, wcp)
            assert report.detector == name

    def test_online_options_forwarded(self):
        comp = random_computation(3, 3, seed=2, plant_final_cut=True)
        wcp = WeakConjunctivePredicate.of_flags([0, 1, 2])
        report = run_detector("token_vc_multi", comp, wcp, groups=3)
        assert report.extras["groups"] == 3


class TestVerbose:
    def comp_and_wcp(self):
        comp = random_computation(3, 3, seed=2, plant_final_cut=True)
        return comp, WeakConjunctivePredicate.of_flags([0, 1, 2])

    def test_summary_line_on_stderr(self, capsys):
        comp, wcp = self.comp_and_wcp()
        report = run_detector("token_vc", comp, wcp, verbose=True)
        err = capsys.readouterr().err
        assert err.startswith("[repro] token_vc: detected")
        assert f"cut={tuple(report.cut.intervals)}" in err
        assert "msgs=" in err and "work=" in err
        assert "t=" in err

    def test_silent_by_default(self, capsys):
        comp, wcp = self.comp_and_wcp()
        run_detector("token_vc", comp, wcp)
        assert capsys.readouterr().err == ""

    def test_offline_detectors_accept_verbose(self, capsys):
        comp, wcp = self.comp_and_wcp()
        run_detector("reference", comp, wcp, verbose=True)
        assert "[repro] reference: detected" in capsys.readouterr().err


class TestReportValidation:
    def test_detected_requires_cut(self):
        from repro.detect import DetectionReport

        with pytest.raises(ValueError):
            DetectionReport(detector="x", detected=True, cut=None)

    def test_undetected_forbids_cut(self):
        from repro.detect import DetectionReport
        from repro.trace import Cut

        with pytest.raises(ValueError):
            DetectionReport(
                detector="x", detected=False, cut=Cut((0,), (1,))
            )


class TestDepartedMonitors:
    """A monitor that leaves is down when the run ends, exactly like a
    permanently crashed one: a degraded run names its conjunct."""

    @pytest.mark.parametrize(
        "name",
        ["token_vc", "token_vc_multi", "direct_dep", "direct_dep_parallel"],
    )
    def test_leave_names_the_departed_conjunct(self, name):
        from repro.simulation.faults import FaultPlan

        comp = random_computation(
            3, 4, seed=2, predicate_density=0.3, plant_final_cut=True
        )
        wcp = WeakConjunctivePredicate.of_flags(range(3))
        rep = run_detector(
            name, comp, wcp, seed=2, faults=FaultPlan.parse("leave:mon-1:5")
        )
        assert rep.outcome == "degraded"
        assert rep.extras["unobservable"] == [1]
        assert "mon-1" in rep.sim.crashed
