"""Golden output of small self-healing fault runs.

Four runs shaped like the end-to-end benchmark's ``faulty`` requests
(5% loss on every channel, one monitor crash with restart, self-heal),
scaled down to six processes.  Each run's ``repro detect --json``
stdout is pinned by its sha256, so a kernel or membership-layer change
that claims to be output-preserving must reproduce every byte: verdict,
first cut, detection time, per-actor and per-kind message counts, and
every channel fault.
"""

import hashlib

import pytest

from repro.cli import main

FAULTS = "drop:*:0.05,crash:mon-3:30:60"

#: sha256 of the ``--json`` stdout per (detector, membership).
GOLDEN = {
    ("token_vc", "heartbeat"):
        "bb261b370542147dc23f5f4acf5816662f932643ebe228116fc5bb21657e269a",
    ("token_vc", "gossip"):
        "de2787d11f9bb31fbcb0311054e7a4414d1fdf4653a49f799e9459281ac157f8",
    ("direct_dep", "heartbeat"):
        "b7a238ba14e633318164fafcfb50cc6f44bc748057e011acc41537c530a5835c",
    ("direct_dep", "gossip"):
        "39eaa87e4fe4adf1b75ecb1bbf8b15e8e10b1e896a29626934fbc15d0bda8d5b",
}


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "trace.json"
    code = main([
        "generate", "--processes", "6", "--sends", "6", "--seed", "11",
        "--density", "0.2", "--plant-final-cut", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.mark.parametrize(("detector", "membership"), sorted(GOLDEN))
def test_self_heal_stdout_is_pinned(trace_file, capsys, detector, membership):
    capsys.readouterr()  # discard the generator's "wrote" line
    code = main([
        "detect", str(trace_file), "--json", "--detector", detector,
        "--seed", "17", "--faults", FAULTS, "--self-heal",
        "--membership", membership,
    ])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[(detector, membership)]
