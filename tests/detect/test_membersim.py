"""Membership-scale harness: liveness traffic shape at small sizes.

The committed benchmark (``benchmarks/results/membership_scale.json``)
records the full {8, 32, 128} sweep; this fast test pins the *shape* on
sizes small enough for tier-1: heartbeat liveness bytes grow
super-linearly in the group size, gossip bytes grow ~linearly, and both
modes detect a crash-stop within their documented bounds.
"""

from repro.detect.stack import FailureDetectorConfig
from repro.detect.stack.membersim import run_membership_trial

DURATION = 30.0
CRASH_AT = 8.0


def _trial(mode, n):
    config = FailureDetectorConfig(membership=mode)
    return run_membership_trial(
        n, config, duration=DURATION, crash_at=CRASH_AT
    )


class TestTrafficShape:
    def test_heartbeat_bytes_grow_quadratically(self):
        small, large = _trial("heartbeat", 4), _trial("heartbeat", 12)
        ratio = large.liveness_bytes / small.liveness_bytes
        # N tripled: O(N^2) traffic should grow ~9x; leave slack for
        # constant terms but rule out linear growth.
        assert ratio > 4.5, ratio

    def test_gossip_bytes_grow_linearly(self):
        small, large = _trial("gossip", 4), _trial("gossip", 12)
        ratio = large.liveness_bytes / small.liveness_bytes
        # N tripled: O(N) traffic grows ~3x; rule out quadratic growth.
        assert ratio < 4.5, ratio

    def test_gossip_cheaper_at_scale(self):
        assert (
            _trial("gossip", 12).liveness_bytes
            < _trial("heartbeat", 12).liveness_bytes
        )


class TestDetection:
    def test_both_modes_detect_crash_stop(self):
        # Gossip needs a few probe rounds (round-robin at small N) plus
        # dissemination before the last survivor suspects the victim.
        for mode in ("heartbeat", "gossip"):
            config = FailureDetectorConfig(membership=mode)
            trial = run_membership_trial(
                6, config, duration=60.0, crash_at=CRASH_AT
            )
            assert trial.all_detected, mode
            assert trial.max_detection_latency < 60.0 - CRASH_AT, mode

    def test_gossip_counts_ping_traffic_only(self):
        trial = _trial("gossip", 4)
        assert trial.liveness_bytes > 0
        assert trial.membership == "gossip"


class TestElasticTrial:
    """Scale-out shape at tier-1 sizes; the committed snapshot
    (``benchmarks/results/membership_elastic.json``) records the full
    sweep."""

    def test_group_grows_to_full_size(self):
        from repro.detect.stack.membersim import run_elastic_trial

        trial = run_elastic_trial(
            8, FailureDetectorConfig(membership="gossip"), duration=40.0
        )
        assert trial.n_start == 2
        assert trial.joiners == 6
        assert trial.all_joined
        assert trial.liveness_bytes > 0

    def test_handshake_messages_per_joiner_are_constant(self):
        from repro.detect.stack.membersim import run_elastic_trial

        config = FailureDetectorConfig(membership="gossip")
        small = run_elastic_trial(8, config, duration=40.0)
        large = run_elastic_trial(16, config, duration=40.0)
        assert small.all_joined and large.all_joined
        # The dedicated join cost is the handshake itself — a protocol
        # constant per joiner; dissemination rides existing piggyback.
        assert (
            small.handshake_messages / small.joiners
            == large.handshake_messages / large.joiners
        )

    def test_heartbeat_mode_is_rejected(self):
        import pytest

        from repro.detect.stack.membersim import run_elastic_trial

        with pytest.raises(ValueError):
            run_elastic_trial(8, FailureDetectorConfig())


class TestPinnedSnapshot:
    """The N=8 rows of ``benchmarks/results/membership_scale.json``.

    The harness's loop notes suspicions after every message, so any
    change to how its heartbeats are delivered shows up here first.
    """

    #: mode -> (liveness_bytes, max_detection_latency, all_detected)
    EXPECTED = {
        "heartbeat": (4891, 14.0, True),
        "gossip": (2847, 29.0, True),
    }

    def test_n8_rows(self):
        for mode, expected in self.EXPECTED.items():
            trial = run_membership_trial(
                8, FailureDetectorConfig(membership=mode),
                duration=60.0, crash_at=10.0,
            )
            got = (
                trial.liveness_bytes,
                trial.max_detection_latency,
                trial.all_detected,
            )
            assert got == expected, mode

    def test_expected_values_match_the_committed_snapshot(self):
        import json
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "membership_scale.json"
        )
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert (doc["duration"], doc["crash_at"]) == (60.0, 10.0)
        rows = {
            row["membership"]: (
                row["liveness_bytes"],
                row["max_detection_latency"],
                row["all_detected"],
            )
            for row in doc["rows"]
            if row["n"] == 8
        }
        assert rows == self.EXPECTED
