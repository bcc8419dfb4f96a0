"""Checks of the end-to-end benchmark itself, on tiny shapes.

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.detect import base  # noqa: E402
from repro.detect import stack  # noqa: E402
from repro.simulation import replay  # noqa: E402

TINY = {
    "plain": workloads.Shape(processes=8, sends=6, traces=2),
    "faulty": workloads.Shape(processes=6, sends=6, traces=1),
    "service": workloads.Shape(processes=8, sends=6, traces=1),
}
#: Metrics that are counted, not timed: they must repeat exactly.
COUNTED_LAYER = [
    name for name, unit in run.PER_LAYER.items()
    if unit in ("count", "kbit") or name == "transport.useful_share"
]
COUNTED_E2E = ["wire_kbits_per_verdict", "sim_latency_mean"]


def _measure(workload: str, seed: int, out: Path) -> dict:
    the_plan = workloads.plan(workload, seed, out)
    generate_ms = workloads.materialize(the_plan, out)
    cycle = the_plan.cycle
    recorder = ledger.SpanRecorder()
    loop, traced = run.closed_loop(cycle, 0, 0, recorder=recorder)
    reference, events = run.reference_verdicts(the_plan, out)
    attempted, failed, notes = run.check(
        cycle, loop.outcomes + traced.outcomes, reference
    )
    assert failed == 0, notes
    assert run.silent_layers(cycle, recorder) == []
    setup = [{"setup_s": 1.0, "generate_ms": generate_ms}]
    metrics = run.per_layer(cycle, loop, traced, recorder, events, setup)
    metrics.update(run.end_to_end(cycle, loop, attempted, failed, setup))
    return metrics


@pytest.fixture
def tiny_shapes(monkeypatch):
    monkeypatch.setattr(workloads, "SHAPES", TINY)
    monkeypatch.setattr(workloads, "SERVICE_SIZES", (4, 2))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counted_metrics_repeat_and_every_kind_is_mapped(
    tiny_shapes, tmp_path, workload
):
    first = _measure(workload, 3, tmp_path / "a")
    second = _measure(workload, 3, tmp_path / "b")
    for name in COUNTED_LAYER + COUNTED_E2E:
        assert first[name] == second[name], name
    assert first["other.msgs"] == 0
    assert first["detect.core_msgs"] > 0
    # Every wrapped layer fired: none of its time fell into cli.self_ms.
    for name in ("trace.load_ms", "trace.analysis_ms", "simulation.run_ms",
                 "simulation.steps"):
        assert first[name] > 0, name
    assert 0 < first["bench.layer_coverage"] < first["bench.span_coverage"]
    assert set(first) >= set(run.PER_LAYER)
    if workload == "faulty":
        assert first["transport.msgs"] > 0 and first["membership.msgs"] > 0
    else:
        assert first["membership.msgs"] == 0
    if workload == "service":
        assert first["service.shared_stream_kbits"] > 0
        assert first["service.self_ms"] > 0
        assert first["detect.self_ms"] == 0
    else:
        assert first["detect.self_ms"] > 0
        assert first["service.self_ms"] == 0


def test_a_layer_entered_under_another_name_is_reported(
    tiny_shapes, tmp_path, monkeypatch
):
    monkeypatch.setattr(ledger, "WRAPPED", tuple(
        w for w in ledger.WRAPPED if w[0] != "simulation"
    ))
    the_plan = workloads.plan("plain", 3, tmp_path)
    workloads.materialize(the_plan, tmp_path)
    recorder = ledger.SpanRecorder()
    run.closed_loop(the_plan.cycle[:1], 0, 0, recorder=recorder)
    assert run.silent_layers(the_plan.cycle, recorder) == ["simulation"]


def test_no_kind_belongs_to_two_layers():
    seen: dict[str, str] = {}
    for layer, kinds in ledger.LAYER_KINDS.items():
        for kind in kinds:
            assert kind not in seen, (kind, seen.get(kind), layer)
            seen[kind] = layer


def test_program_kind_constants_are_mapped():
    constants = [
        getattr(module, name)
        for module in (base, stack, replay)
        for name in dir(module)
        if name.endswith("_KIND")
    ]
    assert constants
    for kind in constants:
        assert ledger.layer_of_kind(kind) != "other", kind
    assert ledger.layer_of_kind("not-a-kind") == "other"


def test_unmapped_kinds_are_counted_not_dropped():
    snapshot = {"actors": {"mon-0": {
        "sent_by_kind": {"token": 2, "mystery": 3},
        "sent_bits_by_kind": {"token": 20, "mystery": 7},
    }}}
    wire = ledger.wire_by_layer(snapshot)
    assert wire["other"] == [3, 7]
    assert wire["detect"] == [2, 20]


def test_plan_depends_only_on_the_seed(tmp_path):
    a = workloads.plan("faulty", 5, tmp_path)
    assert a == workloads.plan("faulty", 5, tmp_path)
    assert a != workloads.plan("faulty", 6, tmp_path)


def test_check_counts_each_failed_verdict_once():
    request = workloads.Request("token_vc/gossip", "t.json", (), ((None, (0, 1)),))
    reference = {("t.json", (0, 1)): (True, [3, 4])}
    good = run.Outcome(0, verdicts=[(True, False, [3, 4], 9.0)])
    degraded = run.Outcome(2, verdicts=[(False, True, None, None)])
    wrong_exit = run.Outcome(1, verdicts=[(True, False, [3, 4], 9.0)])
    assert run.check([request], [good], reference)[:2] == (1, 0)
    assert run.check([request], [degraded], reference)[:2] == (1, 1)
    assert run.check([request], [wrong_exit], reference)[:2] == (1, 1)
    crashed = run.Outcome(None, error="RuntimeError: boom")
    assert run.check([request], [crashed], reference)[:2] == (1, 1)
