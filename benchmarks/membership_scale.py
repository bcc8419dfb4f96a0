#!/usr/bin/env python
"""Membership-layer traffic scaling: heartbeat O(N²) vs gossip O(N).

Runs :func:`repro.detect.stack.membersim.run_membership_trial` over
monitor-group sizes — every member runs the failure detector, one
member crash-stops, and we record:

* ``liveness_bytes`` — total bytes of pure liveness traffic
  (heartbeats, pings/acks/ping-reqs with piggybacked membership);
* ``max_detection_latency`` — the worst survivor's time from the crash
  to first suspecting the victim;
* the configured detection bound each mode must stay within.

All-to-all heartbeats cost Θ(N²) bytes per interval; SWIM gossip costs
Θ(N) (each member sends O(fanout) bounded-size messages per interval).
The committed snapshot lives at
``benchmarks/results/membership_scale.json``; regenerate with::

    python benchmarks/membership_scale.py --out benchmarks/results/membership_scale.json

With ``--elastic`` the script instead runs the scale-out scenario:
each group *starts* at a quarter of its size and grows to full size by
live joins (:func:`repro.detect.stack.membersim.run_elastic_trial`).
The claim under test is that elasticity is cheap — every joiner pays a
fixed number of dedicated handshake messages (join / welcome /
state-sync), the welcome snapshot is the only size-dependent byte cost
(O(n_start) membership entries), and the epidemic introduction adds
*zero* dedicated dissemination messages.  The output carries an honest
``environment`` block (real ``cpu_count``, measured wall seconds) so a
recorded snapshot can never masquerade as a different machine's.

With ``--check FILE`` every produced row's counted columns
(``liveness_bytes``, ``max_detection_latency``, ``all_detected``) must
equal the row for the same ``n`` and mode in the committed snapshot
``FILE``; any difference, or a row the snapshot lacks, exits 1.  The
simulation is deterministic, so these columns are exact on any host.

Usage: ``python benchmarks/membership_scale.py [--sizes 8,32,128]
[--elastic] [--out FILE] [--check FILE]``
"""

import argparse
import json
import math
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.detect.stack import FailureDetectorConfig  # noqa: E402
from repro.detect.stack.membersim import (  # noqa: E402
    run_elastic_trial,
    run_membership_trial,
)

DEFAULT_SIZES = (8, 32, 128)
DURATION = 60.0
CRASH_AT = 10.0


def detection_bound(config: FailureDetectorConfig, n: int) -> float:
    """The latency every mode must beat for a crash-stop victim.

    Heartbeat: the victim goes silent and every survivor times it out
    after ``suspicion_after`` plus one interval of slack.  Gossip: some
    prober times the victim out within a few probe intervals, then the
    suspicion disseminates epidemically in ``O(log_fanout N)`` rounds;
    ``suspicion_after`` dominates the probe timeout budget.
    """
    interval = config.tick_interval
    if config.membership == "gossip":
        rounds = math.log(max(n, 2), max(config.gossip_fanout, 2))
        return config.suspicion_after + interval * (4 + 2 * rounds)
    return config.suspicion_after + 2 * interval


def run(sizes) -> dict:
    rows = []
    for n in sizes:
        for mode in ("heartbeat", "gossip"):
            config = FailureDetectorConfig(membership=mode)
            trial = run_membership_trial(
                n, config, duration=DURATION, crash_at=CRASH_AT
            )
            bound = detection_bound(config, n)
            row = {
                "n": n,
                "membership": mode,
                "liveness_bytes": trial.liveness_bytes,
                "bytes_per_member": round(trial.liveness_bytes / n, 1),
                "max_detection_latency": trial.max_detection_latency,
                "detection_bound": round(bound, 2),
                "all_detected": trial.all_detected,
            }
            rows.append(row)
            print(
                f"n={n:4d} {mode:9s} bytes={trial.liveness_bytes:9d} "
                f"bytes/member={row['bytes_per_member']:9.1f} "
                f"latency={trial.max_detection_latency:6.1f} "
                f"bound={bound:6.1f} all_detected={trial.all_detected}"
            )
            assert trial.all_detected, f"{mode} n={n}: victim not detected"
            assert trial.max_detection_latency <= bound, (
                f"{mode} n={n}: latency {trial.max_detection_latency} "
                f"exceeds bound {bound}"
            )
    # The scaling claim: gossip bytes-per-member stays ~flat while
    # heartbeat bytes-per-member grows linearly with N.
    by_mode: dict[str, list[dict]] = {"heartbeat": [], "gossip": []}
    for row in rows:
        by_mode[row["membership"]].append(row)
    for mode_rows in by_mode.values():
        mode_rows.sort(key=lambda r: r["n"])
    hb, go = by_mode["heartbeat"], by_mode["gossip"]
    if len(hb) >= 2:
        n_ratio = hb[-1]["n"] / hb[0]["n"]
        hb_growth = hb[-1]["bytes_per_member"] / hb[0]["bytes_per_member"]
        go_growth = go[-1]["bytes_per_member"] / go[0]["bytes_per_member"]
        print(
            f"N x{n_ratio:.0f}: heartbeat bytes/member x{hb_growth:.1f}, "
            f"gossip bytes/member x{go_growth:.1f}"
        )
        assert hb_growth > 0.5 * n_ratio, "heartbeat should scale ~O(N^2)"
        # Gossip bytes/member stays near-constant regardless of N.
        assert go_growth < 2.0, "gossip should scale ~O(N)"
        assert go_growth < hb_growth / 2, "gossip should beat heartbeat"
    return {
        "schema": "repro-membership-scale/1",
        "duration": DURATION,
        "crash_at": CRASH_AT,
        "config": {
            "heartbeat_interval": FailureDetectorConfig().heartbeat_interval,
            "suspicion_after": FailureDetectorConfig().suspicion_after,
            "gossip_fanout": FailureDetectorConfig().gossip_fanout,
        },
        "rows": rows,
    }


#: Columns a deterministic run reproduces exactly on any host.
COUNTED_COLUMNS = ("liveness_bytes", "max_detection_latency", "all_detected")


def check_rows(rows, snapshot: dict) -> list[str]:
    """Differences between ``rows`` and the snapshot's counted columns."""
    committed = {(r["n"], r["membership"]): r for r in snapshot["rows"]}
    problems = []
    for row in rows:
        key = (row["n"], row["membership"])
        pinned = committed.get(key)
        if pinned is None:
            problems.append(f"n={key[0]} {key[1]}: no committed row")
            continue
        for column in COUNTED_COLUMNS:
            if row[column] != pinned[column]:
                problems.append(
                    f"n={key[0]} {key[1]}: {column} {row[column]!r} "
                    f"!= committed {pinned[column]!r}"
                )
    return problems


def run_elastic(sizes) -> dict:
    """The scale-out scenario: grow each group from n//4 to n by joins."""
    config = FailureDetectorConfig(membership="gossip")
    rows = []
    started = time.perf_counter()
    for n in sizes:
        trial = run_elastic_trial(n, config, duration=DURATION)
        row = {
            "n": n,
            "n_start": trial.n_start,
            "joiners": trial.joiners,
            "joined": trial.joined,
            "synced": trial.synced,
            "handshake_bytes": trial.handshake_bytes,
            "handshake_messages": trial.handshake_messages,
            "messages_per_joiner": trial.handshake_messages / trial.joiners,
            "bytes_per_joiner": round(
                trial.handshake_bytes / trial.joiners, 1
            ),
            "liveness_bytes": trial.liveness_bytes,
        }
        rows.append(row)
        print(
            f"n={n:4d} start={trial.n_start:3d} joiners={trial.joiners:3d} "
            f"joined={trial.joined:3d} "
            f"msgs/joiner={row['messages_per_joiner']:.1f} "
            f"bytes/joiner={row['bytes_per_joiner']:8.1f} "
            f"liveness_bytes={trial.liveness_bytes:9d}"
        )
        assert trial.all_joined, (
            f"n={n}: {trial.joined}/{trial.joiners} joined, "
            f"{trial.synced} synced"
        )
    wall_s = time.perf_counter() - started
    # The elasticity claims: the dedicated message count per joiner is a
    # constant of the protocol (the handshake), and the only
    # size-dependent byte cost is the welcome snapshot, which grows with
    # the *seed group* — sub-linearly in the final group size.
    per_joiner = {row["messages_per_joiner"] for row in rows}
    assert len(per_joiner) == 1, (
        f"handshake messages per joiner should be constant, got {per_joiner}"
    )
    if len(rows) >= 2:
        rows_by_n = sorted(rows, key=lambda r: r["n"])
        lo, hi = rows_by_n[0], rows_by_n[-1]
        byte_growth = hi["bytes_per_joiner"] / lo["bytes_per_joiner"]
        seed_growth = hi["n_start"] / lo["n_start"]
        print(
            f"N x{hi['n'] / lo['n']:.0f}: handshake bytes/joiner "
            f"x{byte_growth:.1f} (welcome snapshot x{seed_growth:.0f})"
        )
        assert byte_growth <= 1.5 * seed_growth, (
            "per-joiner handshake bytes should track the welcome "
            "snapshot, not the full group"
        )
    return {
        "schema": "repro-membership-elastic/1",
        "duration": DURATION,
        "config": {
            "gossip_fanout": config.gossip_fanout,
            "suspicion_after": config.suspicion_after,
        },
        "environment": {
            "cpu_count": os.cpu_count() or 1,
            "wall_s": round(wall_s, 3),
        },
        "rows": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)))
    parser.add_argument("--elastic", action="store_true",
                        help="run the scale-out (live join) scenario "
                             "instead of the crash-detection one")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="committed snapshot whose counted columns "
                             "every produced row must equal")
    args = parser.parse_args()
    if args.check is not None and args.elastic:
        parser.error("--check compares crash-detection rows; "
                     "it does not apply to --elastic")
    sizes = tuple(int(s) for s in args.sizes.split(","))
    doc = run_elastic(sizes) if args.elastic else run(sizes)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    if args.check is not None:
        snapshot = json.loads(args.check.read_text(encoding="utf-8"))
        problems = check_rows(doc["rows"], snapshot)
        for problem in problems:
            print(f"check FAILED: {problem}")
        if problems:
            return 1
        print(f"check PASS: {len(doc['rows'])} rows match {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
