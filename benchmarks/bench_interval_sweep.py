#!/usr/bin/env python
"""Interval-sweep microbenchmark: how fast a computation is analysed.

Measures, for a handful of large-cell shapes, how fast
:class:`repro.trace.intervals.IntervalAnalysis` sweeps a computation —
the hot loop every online detector pays before a single token moves:

* ``events_per_sec`` — total events swept per second of wall time
  (min over ``--reps`` fresh constructions, bypassing the
  computation's analysis cache);
* ``allocs_per_event`` — Python heap blocks allocated per event during
  one construction (``sys.getallocatedblocks`` delta);
* ``events`` / ``intervals`` — deterministic counted quantities used
  for exact baseline comparison.

Shapes are chosen where the sweep's cost is structural (many processes
or long chains): the O(E) wake-list schedule and in-place
``array('q')`` merges are what these rows time.

The committed baseline lives at
``benchmarks/baselines/micro/interval_sweep.json`` (a ``repro-bench/1``
document; the ``micro/`` subdir keeps it out of the sweep-replay glob).
CI runs ``--check`` against it: counted quantities must match exactly
and wall-dependent columns are informational.  Re-record with
``--update`` after an intentional workload change.

Usage::

    python benchmarks/bench_interval_sweep.py                  # measure
    python benchmarks/bench_interval_sweep.py --check benchmarks/baselines/micro/interval_sweep.json
    python benchmarks/bench_interval_sweep.py --update
"""

import argparse
import gc
import json
import pathlib
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs.benchjson import (  # noqa: E402
    load_benchmark_json,
    structured_result,
)
from repro.trace.generators import random_computation  # noqa: E402
from repro.trace.intervals import IntervalAnalysis  # noqa: E402

#: (num_processes, sends_per_process) — wide, square-ish, and deep cells.
DEFAULT_SHAPES = ((128, 32), (256, 16), (8, 1024))
SEED = 3
DEFAULT_REPS = 5
DEFAULT_BASELINE = (
    pathlib.Path(__file__).resolve().parent
    / "baselines"
    / "micro"
    / "interval_sweep.json"
)

HEADERS = [
    "case",
    "n",
    "m",
    "events",
    "intervals",
    "wall_s",
    "events_per_sec",
    "allocs_per_event",
]
#: columns compared exactly against the baseline (wall-independent).
COUNTED = ("case", "n", "m", "events", "intervals")


def measure_shape(n: int, m: int, reps: int) -> dict:
    """The ``sweep`` row for an ``n x m`` random computation."""
    comp = random_computation(n, m, seed=SEED, predicate_density=0.0)
    events = comp.total_events()
    walls = []
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        analysis = IntervalAnalysis(comp)
        walls.append(time.perf_counter() - start)
    intervals = sum(analysis.num_intervals(p) for p in range(n))
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    analysis = IntervalAnalysis(comp)
    blocks_after = sys.getallocatedblocks()
    del analysis
    wall = min(walls)
    return {
        "case": "sweep",
        "n": n,
        "m": m,
        "events": events,
        "intervals": intervals,
        "wall_s": round(wall, 6),
        "events_per_sec": round(events / wall, 1),
        "allocs_per_event": round((blocks_after - blocks_before) / events, 3),
    }


def run(shapes, reps: int) -> dict:
    rows: list[dict] = []
    for n, m in shapes:
        row = measure_shape(n, m, reps)
        rows.append(row)
        print(
            f"n={row['n']:4d} m={row['m']:5d} sweep "
            f"wall={row['wall_s']:8.4f}s "
            f"events/s={row['events_per_sec']:11.1f} "
            f"allocs/event={row['allocs_per_event']:7.3f}"
        )
    notes = [
        "wall-dependent columns are informational; counted columns "
        "(events, intervals) are compared exactly against the baseline",
    ]
    result = SimpleNamespace(
        experiment="interval-sweep throughput",
        headers=HEADERS,
        rows=[[row[h] for h in HEADERS] for row in rows],
        fits={},
        notes=notes,
    )
    return structured_result(
        result,
        params={
            "shapes": [list(s) for s in shapes],
            "seed": SEED,
            "reps": reps,
        },
        wall_time_s=sum(row["wall_s"] for row in rows),
    )


def check_against(doc: dict, baseline_path: pathlib.Path) -> None:
    """Counted quantities must match the committed baseline exactly."""
    baseline = load_benchmark_json(baseline_path)
    idx = {name: HEADERS.index(name) for name in COUNTED}

    def counted(payload: dict) -> list[tuple]:
        headers = payload["headers"]
        pick = [headers.index(name) for name in COUNTED]
        return sorted(tuple(row[i] for i in pick) for row in payload["rows"])

    expected = counted(baseline)
    actual = sorted(
        tuple(row[idx[name]] for name in COUNTED) for row in doc["rows"]
    )
    if expected != actual:
        missing = [row for row in expected if row not in actual]
        extra = [row for row in actual if row not in expected]
        raise SystemExit(
            f"counted quantities diverge from {baseline_path}:\n"
            f"  baseline-only: {missing}\n  fresh-only:    {extra}"
        )
    print(f"counted quantities match {baseline_path} ({len(expected)} rows)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shapes",
        default=";".join(f"{n},{m}" for n, m in DEFAULT_SHAPES),
        help="semicolon-separated n,m pairs",
    )
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="BASELINE",
        help="compare counted quantities against a committed baseline",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"re-record the default baseline at {DEFAULT_BASELINE}",
    )
    args = parser.parse_args()
    shapes = tuple(
        tuple(int(v) for v in pair.split(","))
        for pair in args.shapes.split(";")
    )
    doc = run(shapes, args.reps)
    if args.check is not None:
        check_against(doc, args.check)
    out = args.out
    if args.update:
        out = DEFAULT_BASELINE
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
