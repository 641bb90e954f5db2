"""Golden images of the DCART paths ``golden_full_run.json`` never reaches.

The default-config golden run (``test_golden_determinism.py``) covers
one value-aware, overlapped, fault-free run of four batches.  It never
takes the LRU Tree_buffer ablation, the serial (no-overlap) timeline, a
Tree_buffer invalidation storm, a failed-over SOU, or the buffer's
renormalisation, which folds the decay multiplier into the stored
values at the 499th decay.  ``data/golden_buffer_paths.json`` holds the
complete :func:`result_to_full_dict` image of one seeded run down each
of those paths; the test re-runs them and compares every field.

Regenerate (only when an *intentional* semantic change lands):

    PYTHONPATH=src python tests/harness/test_golden_buffer_paths.py --regenerate
"""

import json
import os
import sys
from dataclasses import replace

from repro.core.accelerator import DcartAccelerator
from repro.faults import BufferStorm, FaultInjector, FaultSchedule, SouFailStop
from repro.harness.runner import scaled_dcart_config
from repro.harness.serialize import result_to_full_dict
from repro.obs.telemetry import Telemetry
from repro.workloads.factory import make_workload

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "golden_buffer_paths.json"
)

N_KEYS = 3000
N_OPS = 4000
SEED = 7
BATCH_SIZE = 1024

#: 4000 ops in batches of 8 is 500 batches, hence 500 buffer decays:
#: the 499th folds the multiplier into the stored values.
SMALL_BATCH = 8


def _workload():
    return make_workload(
        "RS", n_keys=N_KEYS, n_ops=N_OPS, seed=SEED, op_skew=0.99
    )


def _engines(telemetry=False):
    """One engine per imaged path; ``telemetry`` attaches a registry."""
    base = replace(scaled_dcart_config(N_KEYS), batch_size=BATCH_SIZE)
    schedule = FaultSchedule(
        seed=SEED,
        events=(SouFailStop(batch=1, sou_id=3), BufferStorm(batch=2, fraction=0.5)),
    )
    setups = {
        "lru_tree_buffer": (replace(base, value_aware_tree_buffer=False), None),
        "serial_timeline": (replace(base, enable_overlap=False), None),
        "storm_and_failstop": (base, FaultInjector(schedule)),
        "renormalising_batches": (replace(base, batch_size=SMALL_BATCH), None),
    }
    return {
        name: DcartAccelerator(
            config=config,
            injector=injector,
            telemetry=Telemetry() if telemetry else None,
        )
        for name, (config, injector) in setups.items()
    }


def golden_runs():
    """The seeded runs the golden file images, as full dicts."""
    workload = _workload()
    return {
        name: result_to_full_dict(engine.run(workload))
        for name, engine in _engines().items()
    }


class TestGoldenBufferPaths:
    def test_runs_match_golden_exactly(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        runs = golden_runs()
        assert set(runs) == set(golden)
        for name, run in runs.items():
            expected = golden[name]
            for field in expected:
                assert run[field] == expected[field], (
                    f"{name}.{field} diverged from golden"
                )
            assert run == expected

    def test_paths_are_reached(self):
        # Each image must exercise what it is named for, or it pins
        # nothing: a full buffer, a storm, a failover, a serial timeline
        # and more than 499 decays.
        workload = _workload()
        registries, extras = {}, {}
        for name, engine in _engines(telemetry=True).items():
            extras[name] = engine.run(workload).extra
            registries[name] = engine.telemetry.registry
        for registry in registries.values():
            assert registry.get("tree_buffer.evictions") > 0
        assert extras["storm_and_failstop"]["storm_invalidations"] > 0
        assert extras["storm_and_failstop"]["failover_buckets"] > 0
        lru = registries["lru_tree_buffer"]
        assert lru.get("tree_buffer.rejected_inserts") == 0
        serial = registries["serial_timeline"]
        assert serial.get("run.hidden_pcu_cycles") == 0
        small = registries["renormalising_batches"]
        assert small.get("run.batches") >= 500


def _regenerate():
    runs = golden_runs()
    with open(GOLDEN, "w") as handle:
        json.dump(runs, handle, sort_keys=True)
    print(f"wrote {GOLDEN}")
    for name, run in runs.items():
        print(
            f"  {name}: {run['n_ops']} ops, "
            f"{len(run['latencies_ns'])} latencies, "
            f"{len(run['node_access_counts'])} node counters"
        )


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
