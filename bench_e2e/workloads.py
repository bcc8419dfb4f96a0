"""Workload definitions for the end-to-end detection benchmark.

A workload is a fixed *cycle* of ``repro`` CLI requests over generated
trace and predicate files.  Everything in a cycle is derived from the
benchmark seed: trace generation seeds, predicate pid subsets, rotation
offsets and the per-request ``--seed`` the simulation receives.  The
program itself only ever sees the generated files and the argv.

This module imports nothing from ``repro`` at module level, so that a
fresh interpreter running it as a script measures the full set-up cost:

    python3 bench_e2e/workloads.py --workload plain --seed 1 --out DIR

imports the CLI and the generators, writes the workload's files into
``DIR`` and prints a JSON line with ``setup_s`` and per-trace
``generate_ms``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fault plan and failure detector of every ``faulty`` request: 5% loss
#: on every channel plus one monitor crash with restart.
FAULTS = "drop:*:0.05,crash:mon-3:30:60"
MEMBERSHIPS = ("heartbeat", "gossip")
DETECTORS = ("token_vc", "direct_dep")
#: Width of every service predicate (pids rotated over the processes).
SERVICE_WIDTH = 8
#: Share of each trace's states at which the local predicate holds.
PREDICATE_DENSITY = 0.2


@dataclass(frozen=True)
class Shape:
    """Trace shape and cycle size of one workload."""

    processes: int
    sends: int
    traces: int


#: Shapes are sized so that one 25 s run holds well over 100 requests
#: on a 2-CPU host (see README.md for the measurements).
SHAPES = {
    "plain": Shape(processes=32, sends=24, traces=48),
    "faulty": Shape(processes=12, sends=16, traces=36),
    "service": Shape(processes=24, sends=16, traces=48),
}
#: Predicate counts of the three kinds of ``service`` request.
SERVICE_SIZES = (48, 24, 12)


@dataclass(frozen=True)
class Request:
    """One CLI request and the predicates whose verdicts it returns.

    ``predicates`` holds ``(pred_id, pids)`` pairs; ``pred_id`` is
    ``None`` for a single-predicate ``detect`` request.
    """

    label: str
    trace: str
    argv: tuple[str, ...]
    predicates: tuple[tuple[str | None, tuple[int, ...]], ...]

    @property
    def verdicts(self) -> int:
        return len(self.predicates)


@dataclass(frozen=True)
class Plan:
    """Everything a run needs: files to generate and the request cycle."""

    shape: Shape
    #: trace file name -> generator seed
    traces: dict[str, int]
    #: predicates file name -> JSON document
    predicate_files: dict[str, list]
    cycle: tuple[Request, ...]


def _pid_arg(pids: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in pids)


def plan(workload: str, seed: int, out_dir: Path) -> Plan:
    """The deterministic plan of ``workload`` for benchmark ``seed``."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(SHAPES)}")
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    n = shape.processes
    traces = {f"trace{t}.json": rng.randrange(2**31) for t in range(shape.traces)}
    predicate_files: dict[str, list] = {}
    cycle: list[Request] = []
    if workload == "service":
        for size in SERVICE_SIZES:
            offset = rng.randrange(n)
            predicate_files[f"preds{size}.json"] = [
                {
                    "id": f"q{i}",
                    "pids": [(offset + i + j) % n for j in range(SERVICE_WIDTH)],
                }
                for i in range(size)
            ]
    for name in traces:
        path = str(out_dir / name)
        if workload == "plain":
            subset = tuple(sorted(rng.sample(range(n), n // 4)))
            for pids, tag in ((tuple(range(n)), "all"), (subset, "quarter")):
                for det in DETECTORS:
                    argv = ["detect", path, "--json", "--detector", det,
                            "--seed", str(rng.randrange(2**31))]
                    if tag != "all":
                        argv += ["--pids", _pid_arg(pids)]
                    cycle.append(
                        Request(f"{det}/{tag}", name, tuple(argv), ((None, pids),))
                    )
        elif workload == "faulty":
            for det in DETECTORS:
                for membership in MEMBERSHIPS:
                    argv = ("detect", path, "--json", "--detector", det,
                            "--seed", str(rng.randrange(2**31)),
                            "--faults", FAULTS, "--self-heal",
                            "--membership", membership)
                    cycle.append(
                        Request(f"{det}/{membership}", name, argv,
                                ((None, tuple(range(n))),))
                    )
        else:
            for pfile, doc in predicate_files.items():
                argv = ("service", path, "--json", "--detector", "token_vc",
                        "--seed", str(rng.randrange(2**31)),
                        "--predicates-file", str(out_dir / pfile))
                preds = tuple(
                    (entry["id"], tuple(sorted(set(entry["pids"])))) for entry in doc
                )
                cycle.append(Request(f"token_vc/P{len(doc)}", name, argv, preds))
    return Plan(shape, traces, predicate_files, tuple(cycle))


def materialize(the_plan: Plan, out_dir: Path) -> list[float]:
    """Generate and write the plan's files; returns per-trace generate ms."""
    from repro.trace.generators import random_computation
    from repro.trace.serialization import dumps

    out_dir.mkdir(parents=True, exist_ok=True)
    shape = the_plan.shape
    generate_ms = []
    for name, gen_seed in the_plan.traces.items():
        t0 = time.perf_counter()
        comp = random_computation(
            shape.processes,
            shape.sends,
            seed=gen_seed,
            predicate_density=PREDICATE_DENSITY,
            plant_final_cut=True,
        )
        generate_ms.append((time.perf_counter() - t0) * 1000.0)
        (out_dir / name).write_text(dumps(comp), encoding="utf-8")
    for name, doc in the_plan.predicate_files.items():
        (out_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    return generate_ms


def _main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401  (the request path's imports are set-up)

    generate_ms = materialize(plan(args.workload, args.seed, args.out), args.out)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "generate_ms": generate_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
