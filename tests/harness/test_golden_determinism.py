"""Golden end-to-end determinism: the optimisation contract.

The hot-path work in this PR (inlined SOU loop, numpy aggregation,
vectorised bucketing and workload generation, lazy buffer decay) is only
admissible if it is *invisible* in the results.  This module pins that:
``data/golden_full_run.json`` holds the complete, loss-free
:func:`result_to_full_dict` image of seeded DCART and ART runs captured
before the optimisations landed; the test re-runs them and compares
every field — including the full per-op latency array and the complete
node-access counter — for exact equality.

Regenerate (only when an *intentional* semantic change lands):

    PYTHONPATH=src python tests/harness/test_golden_determinism.py --regenerate
"""

import json
import os
import sys
from dataclasses import replace

from repro.core.accelerator import DcartAccelerator
from repro.engines.art_rowex import ArtRowexEngine
from repro.harness.runner import scaled_cpu_costs, scaled_dcart_config
from repro.harness.serialize import result_to_full_dict
from repro.workloads.factory import make_workload

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "golden_full_run.json"
)

#: Small but multi-batch: 4000 ops over 1024-op batches exercises the
#: PCU/dispatch/SOU loop, buffer decay, and the aggregation path 4x.
N_KEYS = 3000
N_OPS = 4000
SEED = 7
BATCH_SIZE = 1024


def golden_runs():
    """The seeded runs the golden file images, as full dicts."""
    workload = make_workload(
        "RS", n_keys=N_KEYS, n_ops=N_OPS, seed=SEED, op_skew=0.99
    )
    config = replace(scaled_dcart_config(N_KEYS), batch_size=BATCH_SIZE)
    runs = {}
    dcart = DcartAccelerator(config=config)
    runs["DCART"] = result_to_full_dict(dcart.run(workload))
    art = ArtRowexEngine(costs=scaled_cpu_costs(N_KEYS))
    runs["ART"] = result_to_full_dict(art.run(workload))
    return runs


class TestGoldenDeterminism:
    def test_runs_match_golden_exactly(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        runs = golden_runs()
        assert set(runs) == set(golden)
        for engine, run in runs.items():
            expected = golden[engine]
            # Field-by-field first, so a mismatch names its field …
            for field in expected:
                assert run[field] == expected[field], (
                    f"{engine}.{field} diverged from golden"
                )
            # … then whole-document, so no field can be silently added.
            assert run == expected

    def test_rerun_is_self_identical(self):
        # The runs must also be deterministic within one process (no
        # iteration-order or id()-dependent behaviour).
        assert golden_runs() == golden_runs()


def _regenerate():
    runs = golden_runs()
    with open(GOLDEN, "w") as handle:
        json.dump(runs, handle, indent=1, sort_keys=True)
    print(f"wrote {GOLDEN}")
    for engine, run in runs.items():
        print(
            f"  {engine}: {run['n_ops']} ops, "
            f"{len(run['latencies_ns'])} latencies, "
            f"{len(run['node_access_counts'])} node counters"
        )


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
