"""Golden operation streams: workload generation must not drift.

Every timed op of every experiment comes out of ``make_workload``, so a
rewrite of the generators is admissible only if each seeded stream stays
the same op for op.  ``data/golden_streams.json`` holds, per case, a
sha256 over the loaded keys and one over every operation's
``(op_id, kind, key, repr(value), scan_count)``.  The cases cover all
six key families plus the corners of the op generator: pure reads, pure
writes, scans, an empty insert reserve, an exhausted one and no ops.

Regenerate (only when an *intentional* change to the streams lands):

    PYTHONPATH=src python tests/workloads/test_golden_streams.py --regenerate
"""

import hashlib
import json
import os
import sys

import pytest

from repro.workloads.factory import WORKLOAD_NAMES, make_workload

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_streams.json")

N_KEYS = 2000
N_OPS = 6000
SEED = 3

#: Case name -> ``make_workload`` arguments.
CASES = {
    **{
        name: {"name": name, "n_keys": N_KEYS, "n_ops": N_OPS, "seed": SEED}
        for name in WORKLOAD_NAMES
    },
    "IPGEO-read-only": {
        "name": "IPGEO", "n_keys": N_KEYS, "n_ops": N_OPS, "seed": SEED,
        "write_ratio": 0.0,
    },
    "IPGEO-write-only": {
        "name": "IPGEO", "n_keys": N_KEYS, "n_ops": N_OPS, "seed": SEED,
        "write_ratio": 1.0,
    },
    "RS-scans": {
        "name": "RS", "n_keys": N_KEYS, "n_ops": N_OPS, "seed": SEED,
        "scan_ratio": 0.3,
    },
    # Every key is loaded, so no write can be an insert.
    "DE-empty-reserve": {
        "name": "DE", "n_keys": N_KEYS, "n_ops": N_OPS, "seed": SEED,
        "load_fraction": 1.0,
    },
    # ~3000 inserting writes against a 300-key reserve: the reserve runs
    # out early and the remaining inserts fall back to loaded keys.
    "EA-reserve-exhausted": {
        "name": "EA", "n_keys": N_KEYS, "n_ops": N_OPS, "seed": SEED,
        "insert_share_of_writes": 1.0,
    },
    "RD-no-ops": {"name": "RD", "n_keys": N_KEYS, "n_ops": 0, "seed": SEED},
}


def stream_digests(kwargs):
    """sha256 of the loaded keys and of the op stream of one workload."""
    workload = make_workload(**kwargs)
    keys = hashlib.sha256()
    for key in workload.loaded_keys:
        keys.update(repr(key).encode() + b"\n")
    ops = hashlib.sha256()
    for op in workload.operations:
        row = (op.op_id, op.kind.value, op.key, repr(op.value), op.scan_count)
        ops.update(repr(row).encode() + b"\n")
    return {
        "loaded_keys": keys.hexdigest(),
        "operations": ops.hexdigest(),
        "n_ops": workload.n_ops,
    }


def _load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_case():
    assert set(_load_golden()) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_matches_golden(case):
    expected = _load_golden()[case]
    assert stream_digests(CASES[case]) == expected, (
        f"{case}: the generated workload drifted from the golden stream"
    )


def _regenerate():
    golden = {case: stream_digests(kwargs) for case, kwargs in sorted(CASES.items())}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN} ({len(golden)} cases)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
