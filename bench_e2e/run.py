"""End-to-end detection benchmark: closed-loop ``repro`` CLI requests.

One client issues requests back to back, with no think time, the way a
script or CI job drives ``repro detect --json`` / ``repro service
--json``.  Each request calls the real entry point ``repro.cli.main``
in-process with stdout captured, so it covers argument parsing, the
trace-file read, interval analysis, the simulated protocol and the JSON
report.  Program defaults are left alone.

    python3 bench_e2e/run.py --workload plain --seed 1 --seconds 25 --trace 0

``--trace 0`` times the loop with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` runs every request twice back to
back, untraced and then with the per-layer span recorder installed
(``ledger.py``), and reports the per-layer metrics, including the
recorder's own overhead.  Either way every verdict and first cut is
checked against the offline ``reference`` detector after the loop.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; attempts and
failures count predicate verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostcal import CAL_REFERENCE_MS, calibrate, scale_of  # noqa: E402
from workloads import SHAPES, SRC, Plan, Request, plan  # noqa: E402

#: Set-up runs per benchmark run, each in a fresh interpreter; the
#: median is reported.
SETUP_REPEATS = 5
#: Fewest timed requests per run, so that p90 has >= 10 samples above it.
MIN_REQUESTS = 100

END_TO_END = {
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "ratio",
    "wire_kbits_per_verdict": "kbit",
    "sim_latency_mean": "sim_time",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "trace.load_ms": "ms",
    "trace.analysis_ms": "ms",
    "trace.events": "count",
    "trace.generate_ms": "ms",
    "simulation.run_ms": "ms",
    "simulation.steps": "count",
    "simulation.messages_delivered": "count",
    "simulation.us_per_step": "us",
    "detect.self_ms": "ms",
    "detect.core_msgs": "count",
    "detect.core_kbits": "kbit",
    "detect.token_hops": "count",
    "detect.work_units": "count",
    "transport.msgs": "count",
    "transport.kbits": "kbit",
    "transport.useful_share": "ratio",
    "transport.faults_dropped": "count",
    "membership.msgs": "count",
    "membership.kbits": "kbit",
    "membership.elections": "count",
    "membership.takeovers": "count",
    "service.self_ms": "ms",
    "service.kbits_per_predicate": "kbit",
    "service.shared_stream_kbits": "kbit",
    "cli.self_ms": "ms",
    "other.msgs": "count",
    "bench.trace_overhead": "ratio",
    "bench.span_coverage": "ratio",
    "bench.layer_coverage": "ratio",
    "bench.host_slowdown": "ratio",
}
#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "trace.load": "trace.load_ms",
    "trace.analysis": "trace.analysis_ms",
    "simulation": "simulation.run_ms",
    "detect": "detect.self_ms",
    "service": "service.self_ms",
    "cli": "cli.self_ms",
}


@dataclass
class Outcome:
    """What one request returned, reduced to what the checks need.

    ``verdicts`` holds ``(detected, degraded, cut, detection_time)`` per
    predicate, in the request's predicate order.
    """

    exit_code: int | None
    error: str | None = None
    verdicts: list[tuple] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _reduce(request: Request, exit_code: int, text: str) -> Outcome:
    from ledger import wire_by_layer
    from repro.detect.base import TOKEN_KIND

    doc = json.loads(text)
    if "predicates" in doc:
        rows = {row["pred_id"]: row for row in doc["predicates"]}
        verdicts = [
            (
                rows[pred_id]["outcome"] == "detected",
                rows[pred_id]["outcome"] == "degraded",
                rows[pred_id]["cut"],
                rows[pred_id]["detection_time"],
            )
            for pred_id, _ in request.predicates
        ]
    else:
        cut = doc["cut"]["intervals"] if doc["cut"] is not None else None
        verdicts = [(doc["detected"], doc["degraded"], cut, doc["detection_time"])]
    metrics = doc["metrics"]
    extras = doc.get("extras", {})
    service = doc.get("service", {})
    counts = {
        "bits": metrics["totals"]["bits"],
        "work": metrics["totals"]["work"],
        "wire": wire_by_layer(metrics),
        "token_hops": sum(
            a["sent_by_kind"].get(TOKEN_KIND, 0) for a in metrics["actors"].values()
        ),
        "dropped": doc.get("faults", {}).get("dropped", 0),
        "elections": extras.get("elections", 0),
        "takeovers": extras.get("takeovers", 0),
        "marginal_bits": service.get("marginal_bits_per_predicate") or 0,
        "shared_stream_bits": service.get("shared_stream_bits") or 0,
    }
    return Outcome(exit_code, verdicts=verdicts, counts=counts)


def issue(request: Request, recorder=None) -> tuple[float, Outcome]:
    """Run one request through ``repro.cli.main``; returns (wall s, outcome).

    The wall runs from the ``main`` call until it returns, by which time
    its JSON is printed.  Reducing the output happens after the clock
    stops.
    """
    from repro import cli

    buf = io.StringIO()
    root = recorder.span("cli") if recorder is not None else contextlib.nullcontext()
    error = None
    exit_code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), root:
            exit_code = cli.main(list(request.argv))
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # a crashed request is a failed one, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if error is None and exit_code in (0, 1, 2):
        try:
            return wall, _reduce(request, exit_code, buf.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc}"
    return wall, Outcome(exit_code, error=error or f"exit code {exit_code}")


@dataclass
class Loop:
    """Walls (s), outcomes and calibration times (ms) of one closed loop.

    ``cal_ms[i]`` is taken just before request ``i``.
    """

    walls: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    cal_ms: list[float] = field(default_factory=list)

    def scales(self) -> list[float]:
        """Per-request host scale, from the calibrations of the request
        and its two neighbours on each side (host speed drifts over
        seconds, so the nearest samples track it best)."""
        cal = self.cal_ms
        return [scale_of(cal[max(0, i - 2): i + 3]) for i in range(len(cal))]

    def scaled_walls_ms(self) -> list[float]:
        return [w * 1000.0 * k for w, k in zip(self.walls, self.scales())]


def _timed(loop: Loop, request: Request, recorder=None) -> None:
    gc.collect()
    loop.cal_ms.append(calibrate())
    wall, outcome = issue(request, recorder)
    loop.walls.append(wall)
    loop.outcomes.append(outcome)


def closed_loop(cycle, seconds: float, min_requests: int,
                recorder=None) -> tuple[Loop, Loop]:
    """Issue requests round-robin over ``cycle``; returns the untraced
    and the traced loop.

    Runs for ``seconds`` and at least ``min_requests`` requests and one
    whole cycle.  With
    a ``recorder``, each request runs twice back to back, untraced and
    then traced, so the two walls of a pair see the same host speed.
    ``gc.collect()`` and one :func:`calibrate` run before every request,
    outside the timed span.
    """
    plain, traced = Loop(), Loop()
    floor = max(min_requests, len(cycle))
    start = time.perf_counter()
    i = 0
    while i < floor or time.perf_counter() - start < seconds:
        request = cycle[i % len(cycle)]
        _timed(plain, request)
        if recorder is not None:
            recorder.request = i
            with recorder:
                _timed(traced, request, recorder)
        i += 1
    return plain, traced


def reference_verdicts(the_plan: Plan, out_dir: Path):
    """``{(trace, pids): (detected, cut)}`` from the offline reference
    detector, plus ``{trace: event count}``."""
    from repro.detect.runner import run_detector
    from repro.predicates import WeakConjunctivePredicate
    from repro.trace.serialization import loads

    wanted: dict[str, set] = {}
    for request in the_plan.cycle:
        wanted.setdefault(request.trace, set()).update(p for _, p in request.predicates)
    verdicts, events = {}, {}
    for trace, pid_sets in wanted.items():
        comp = loads((out_dir / trace).read_text(encoding="utf-8"))
        events[trace] = comp.total_events()
        for pids in pid_sets:
            report = run_detector(
                "reference", comp, WeakConjunctivePredicate.of_flags(pids)
            )
            cut = list(report.cut.intervals) if report.cut is not None else None
            verdicts[(trace, pids)] = (report.detected, cut)
    return verdicts, events


def check(cycle, outcomes, reference) -> tuple[int, int, list[str]]:
    """(attempted verdicts, failed verdicts, failure notes).

    A verdict fails on an exception, exit code 3, a degraded outcome, a
    verdict or first cut that differs from the reference, or output
    that differs from an earlier run of the same request (the program's
    output is deterministic).
    """
    attempted = failed = 0
    notes: list[str] = []
    for i, outcome in enumerate(outcomes):
        request = cycle[i % len(cycle)]
        attempted += request.verdicts
        first = outcomes[i % len(cycle)]
        problem = outcome.error
        if problem is None and (
            outcome.verdicts != first.verdicts or outcome.counts != first.counts
        ):
            problem = "output differs from the first run of this request"
        if problem is not None:
            failed += request.verdicts
            notes.append(f"request {i} ({request.label}): {problem}")
            continue
        for (pred_id, pids), (detected, degraded, cut, _) in zip(
            request.predicates, outcome.verdicts
        ):
            want_detected, want_cut = reference[(request.trace, pids)]
            if degraded or detected != want_detected or cut != want_cut:
                failed += 1
                notes.append(
                    f"request {i} ({request.label}) {pred_id or ''}: got "
                    f"detected={detected} degraded={degraded} cut={cut}, "
                    f"reference detected={want_detected} cut={want_cut}"
                )
            elif pred_id is None and outcome.exit_code != (0 if detected else 1):
                failed += 1
                notes.append(f"request {i}: exit code {outcome.exit_code}")
    return attempted, failed, notes


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A beta-weighted mean of all order statistics rather than one or two
    of them.  The workloads mix request kinds whose latencies form
    separate clusters, and a plain sample median then sits in the gap
    between two clusters and follows their extreme samples.
    """
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = 8
    logs = []
    for i in range(n * steps):
        t = (i + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    top = max(logs)
    weights = [0.0] * n
    for i, value in enumerate(logs):
        weights[i // steps] += math.exp(value - top)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(cycle, loop: Loop, attempted, failed, setup_runs) -> dict:
    """End-to-end metrics; host times are scaled by :func:`scale_of`.

    The two modelled metrics are taken over one pass of the cycle, so
    they repeat exactly for a seed.
    """
    once = loop.outcomes[: len(cycle)]
    detected_times = [
        t for o in once for (detected, _, _, t) in o.verdicts if detected
    ]
    walls_ms = loop.scaled_walls_ms()
    return {
        "verdicts_per_s": (attempted - failed) / (sum(walls_ms) / 1000.0),
        "latency_p50_ms": quantile(walls_ms, 0.5),
        "latency_p90_ms": quantile(walls_ms, 0.9),
        "ok_share": (attempted - failed) / attempted,
        "wire_kbits_per_verdict": sum(o.counts.get("bits", 0) for o in once)
        / sum(r.verdicts for r in cycle)
        / 1000.0,
        "sim_latency_mean": statistics.fmean(detected_times)
        if detected_times else 0.0,
        # Unscaled: a cold interpreter's set-up does not slow with the
        # host the way the loop does (scaled by the loop's calibrations,
        # 10 runs spread 0.63; unscaled set-up phases spread about 0.3).
        "setup_s": statistics.median(s["setup_s"] for s in setup_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(cycle, untraced: Loop, traced: Loop, recorder, events,
              setup_runs) -> dict:
    """Per-layer metrics, per request.

    Counts are means over one pass of the cycle, so they repeat exactly
    for a seed.  Self times are means over every traced request, scaled
    like the end-to-end host times, so the layers add up to the mean
    request wall.
    """
    once = untraced.outcomes[: len(cycle)]
    n = len(cycle)

    def mean_count(key):
        return sum(o.counts.get(key, 0) for o in once) / n

    def wire(layer, column):
        return sum(o.counts["wire"][layer][column] for o in once if o.counts) / n

    scales = traced.scales()
    self_times = {
        key: seconds * scales[key[0]]
        for key, seconds in recorder.self_times().items()
    }
    totals: dict[str, float] = {}
    for (_, name), seconds in self_times.items():
        totals[name] = totals.get(name, 0.0) + seconds
    traced_ms = traced.scaled_walls_ms()
    sims = [s for s in recorder.spans if s.name == "simulation"]
    steps_all = sum(s.counts["steps"] for s in sims)
    sims_once = [s for s in sims if s.request < n]
    core_msgs, transport_msgs = wire("detect", 0), wire("transport", 0)
    service_requests = [o for o in once if o.counts.get("shared_stream_bits")]
    metrics = {
        name: totals.get(span, 0.0) * 1000.0 / len(traced.walls)
        for span, name in SELF_TIME_METRICS.items()
    }
    metrics.update({
        "trace.events": sum(events[r.trace] for r in cycle) / n,
        "trace.generate_ms": statistics.median(
            statistics.fmean(s["generate_ms"]) for s in setup_runs
        ),
        "simulation.steps": sum(s.counts["steps"] for s in sims_once) / n,
        "simulation.messages_delivered": sum(
            s.counts["messages_delivered"] for s in sims_once
        ) / n,
        "simulation.us_per_step": totals.get("simulation", 0.0) * 1e6 / steps_all
        if steps_all else 0.0,
        "detect.core_msgs": core_msgs,
        "detect.core_kbits": wire("detect", 1) / 1000.0,
        "detect.token_hops": mean_count("token_hops"),
        "detect.work_units": mean_count("work"),
        "transport.msgs": transport_msgs,
        "transport.kbits": wire("transport", 1) / 1000.0,
        "transport.useful_share": core_msgs / (core_msgs + transport_msgs)
        if core_msgs + transport_msgs else 0.0,
        "transport.faults_dropped": mean_count("dropped"),
        "membership.msgs": wire("membership", 0),
        "membership.kbits": wire("membership", 1) / 1000.0,
        "membership.elections": mean_count("elections"),
        "membership.takeovers": mean_count("takeovers"),
        "service.kbits_per_predicate": statistics.fmean(
            o.counts["marginal_bits"] for o in service_requests
        ) / 1000.0 if service_requests else 0.0,
        "service.shared_stream_kbits": statistics.fmean(
            o.counts["shared_stream_bits"] for o in service_requests
        ) / 1000.0 if service_requests else 0.0,
        "other.msgs": wire("other", 0),
        "bench.trace_overhead": sum(traced_ms) / sum(untraced.scaled_walls_ms()),
        "bench.span_coverage": sum(self_times.values()) * 1000.0 / sum(traced_ms),
        # Without the root ``cli`` span, whose self time is whatever the
        # wrapped layers leave over: a layer that stops firing lowers this.
        "bench.layer_coverage": (sum(self_times.values()) - totals.get("cli", 0.0))
        * 1000.0 / sum(traced_ms),
        "bench.host_slowdown": 1.0 / scale_of(untraced.cal_ms + traced.cal_ms),
    })
    return metrics


def silent_layers(cycle, recorder) -> list[str]:
    """Wrapped layers that recorded no span on some traced request.

    Every request loads a trace, analyses it and runs the kernel inside
    ``run_detector`` or ``run_service``.  A layer missing here is no
    longer entered at the name :data:`ledger.WRAPPED` wraps, and its
    time shows up in ``cli.self_ms`` instead.
    """
    fired: dict[int, set[str]] = {}
    for span in recorder.spans:
        fired.setdefault(span.request, set()).add(span.name)
    silent = set()
    for i, names in fired.items():
        entry = "detect" if cycle[i % len(cycle)].predicates[0][0] is None else "service"
        silent |= {"trace.load", "trace.analysis", "simulation", entry} - names
    return sorted(silent)


def run_setups(workload: str, seed: int, work: Path) -> tuple[list[dict], Path]:
    """Set the workload up ``SETUP_REPEATS`` times, each in a fresh
    interpreter (imports + generation + file writes); returns the
    children's reports and the directory of the last one."""
    runs = []
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs, out


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            setup_runs, files = run_setups(args.workload, args.seed, work)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        from ledger import SpanRecorder

        the_plan = plan(args.workload, args.seed, files)
        cycle = the_plan.cycle
        recorder = SpanRecorder() if args.trace else None
        t_loop = time.perf_counter()
        loop, traced = closed_loop(
            cycle, args.seconds, 0 if args.trace else MIN_REQUESTS, recorder
        )
        t_check = time.perf_counter()
        reference, events = reference_verdicts(the_plan, files)
        attempted, failed, notes = check(cycle, loop.outcomes, reference)
        if args.trace:
            more = check(cycle, traced.outcomes, reference)
            attempted, failed = attempted + more[0], failed + more[1]
            notes += [f"traced {note}" for note in more[2]]
            metrics = per_layer(cycle, loop, traced, recorder, events, setup_runs)
            units = PER_LAYER
            silent = silent_layers(cycle, recorder)
            spans_out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text(
                "".join(json.dumps(r) + "\n" for r in recorder.as_records()),
                encoding="utf-8",
            )
        else:
            metrics = end_to_end(cycle, loop, attempted, failed, setup_runs)
            units = END_TO_END
            silent = []
        phases = (f"set-up {t_loop - t_start:.1f} s, loop {t_check - t_loop:.1f} s, "
                  f"check {time.perf_counter() - t_check:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "work").rmdir()
    for note in notes[:20]:
        print(f"FAILED {note}")
    for name in silent:
        print(f"WARNING layer {name} recorded no span on a traced request; "
              f"its time is counted in cli.self_ms")
    print(f"env: {json.dumps(environment())}")
    print(f"workload: {args.workload} seed={args.seed} requests={len(loop.walls)} "
          f"cycle={len(cycle)} verdicts={attempted} failed={failed} "
          f"failed_share={failed / attempted:.4f}")
    print(f"host: calibrate() median {statistics.median(loop.cal_ms):.3f} ms "
          f"(reference {CAL_REFERENCE_MS} ms); unscaled request wall p50 "
          f"{statistics.median(loop.walls) * 1000.0:.3f} ms over "
          f"{len(loop.walls)} samples")
    print(f"phases: {phases}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
