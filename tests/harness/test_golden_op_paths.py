"""Golden images of the op-handling paths the other golden files miss.

``golden_full_run.json`` and ``golden_buffer_paths.json`` pin combined
DCART and ART on a point-op stream.  This module pins the rest of the
code that reads operations:

* every engine (ART, Heart, SMART, CuART, DCART-C, OLC, DCART) on one
  IPGEO stream with range scans, which covers ``collect_records``, SCAN
  in ``apply_operation`` and DCART-C's windows;
* DCART with combining off (round-robin dispatch and the uncombined
  conflict count), today's behaviour pinned as it is;
* the four CPU engines that bill a lock or CAS per write (ART, Heart,
  SMART, OLC) on a DICT stream whose writes change node types, the
  two-acquisition write the IPGEO stream never takes;
* a single-machine serving sweep with a WAL and one crash mid-append:
  each load's ``ServeResult.to_dict()`` and its latency array;
* the bytes of every WAL and checkpoint file a ``repro run --engine
  DCART --durable DIR --keys 2000 --ops 12000 --every 2`` run writes.

``data/golden_op_paths.json`` holds a short sha256 of every field (of
every file, for the durable run), so a mismatch names its field.

Regenerate (only when an *intentional* semantic change lands):

    PYTHONPATH=src python tests/harness/test_golden_op_paths.py --regenerate
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from repro.cli import main as cli_main
from repro.core.accelerator import DcartAccelerator
from repro.engines import (
    ArtRowexEngine,
    CuArtEngine,
    DcartCEngine,
    HeartEngine,
    OlcEngine,
    SmartEngine,
)
from repro.faults import FaultSchedule
from repro.faults.schedule import CrashFault
from repro.harness.resilience import chaos_config
from repro.harness.runner import (
    scaled_cpu_costs,
    scaled_dcart_config,
    scaled_gpu_costs,
)
from repro.harness.serialize import result_to_full_dict
from repro.serve import ServeConfig, ServingSimulator
from repro.workloads.factory import make_workload

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_op_paths.json")

N_KEYS = 2000
N_OPS = 12_000
SEED = 7
SCAN_RATIO = 0.1
#: Six DCART batches and three DCART-C windows over the stream.
BATCH_SIZE = 2048
WINDOW = 4096
#: Pinned serving capacity (ops/s): skips calibration.
SERVE_CAPACITY = 5.0e6
SERVE_LOADS = (0.3, 0.9)
#: Key family whose stream at this size and seed has writes that change
#: a node's type (39 of them), and the engines that bill a lock or CAS
#: for each write.
TYPE_CHANGE_FAMILY = "DICT"
SYNC_ENGINES = ("ART", "Heart", "SMART", "OLC")
#: The durable run docs/PERFORMANCE.md "Durable path" lists.
DURABLE_ARGV = ["--engine", "DCART", "--keys", "2000", "--ops", "12000",
                "--every", "2"]


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _image(document: dict) -> dict:
    return {field: _digest(value) for field, value in document.items()}


def _workload():
    return make_workload(
        "IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=SEED, scan_ratio=SCAN_RATIO
    )


def _engines():
    cpu = scaled_cpu_costs(N_KEYS)
    dcart = replace(scaled_dcart_config(N_KEYS), batch_size=BATCH_SIZE)
    return {
        "ART": ArtRowexEngine(costs=cpu),
        "Heart": HeartEngine(costs=cpu),
        "SMART": SmartEngine(costs=cpu),
        "CuART": CuArtEngine(costs=scaled_gpu_costs(N_KEYS)),
        "DCART-C": DcartCEngine(costs=replace(cpu, window=WINDOW)),
        "OLC": OlcEngine(costs=cpu),
        "DCART": DcartAccelerator(config=dcart),
        "DCART-uncombined": DcartAccelerator(
            config=replace(dcart, enable_combining=False)
        ),
    }


def engine_images():
    workload = _workload()
    return {
        name: _image(result_to_full_dict(engine.run(workload)))
        for name, engine in _engines().items()
    }


def _type_change_workload():
    return make_workload(
        TYPE_CHANGE_FAMILY, n_keys=N_KEYS, n_ops=N_OPS, seed=SEED
    )


def type_change_images():
    workload = _type_change_workload()
    engines = _engines()
    return {
        name: _image(result_to_full_dict(engines[name].run(workload)))
        for name in SYNC_ENGINES
    }


def serve_images():
    schedule = FaultSchedule(
        seed=SEED, events=(CrashFault(3, "wal-mid-append", 5),)
    )
    simulator = ServingSimulator(
        _workload(),
        ServeConfig(batch_size=512, queue_capacity=2048, checkpoint_every=2),
        accel_config=chaos_config(N_KEYS),
        schedule=schedule,
        capacity_ops_per_s=SERVE_CAPACITY,
    )
    images = {}
    with tempfile.TemporaryDirectory(prefix="golden-serve-") as root:
        for index, load in enumerate(SERVE_LOADS):
            row = simulator.run(
                load, seed=SEED, durability_dir=os.path.join(root, f"load-{index}")
            )
            image = _image(row.to_dict())
            image["latencies_us"] = hashlib.sha256(
                np.ascontiguousarray(row.tracker.latencies_us()).tobytes()
            ).hexdigest()[:16]
            images[f"load-{load}"] = image
    return images


def durable_files():
    """sha256 of every file the durable CLI run leaves in its directory."""
    with tempfile.TemporaryDirectory(prefix="golden-durable-") as root:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", "--durable", root] + DURABLE_ARGV)
        assert code == 0
        files = {}
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as handle:
                files[name] = hashlib.sha256(handle.read()).hexdigest()
    return files


def golden_images():
    return {
        "engines": engine_images(),
        "type_changes": type_change_images(),
        "serve": serve_images(),
        "durable_files": durable_files(),
    }


def _assert_matches(actual: dict, expected: dict, where: str) -> None:
    assert set(actual) == set(expected), f"{where}: entries differ"
    for name, fields in expected.items():
        for field, value in fields.items():
            assert actual[name].get(field) == value, (
                f"{where}: {name}.{field} diverged from golden"
            )
        assert actual[name] == fields


class TestGoldenOpPaths:
    def _golden(self):
        with open(GOLDEN) as handle:
            return json.load(handle)

    def test_every_engine_matches_golden(self):
        _assert_matches(engine_images(), self._golden()["engines"], "engines")

    def test_type_changing_writes_match_golden(self):
        _assert_matches(
            type_change_images(), self._golden()["type_changes"], "type_changes"
        )

    def test_serve_crash_sweep_matches_golden(self):
        _assert_matches(serve_images(), self._golden()["serve"], "serve")

    def test_durable_files_match_golden(self):
        expected = self._golden()["durable_files"]
        assert durable_files() == expected

    def test_paths_are_reached(self):
        # Each image must exercise what it is named for, or it pins
        # nothing: scans in the stream, writes that change a node's type,
        # a crash in one serving run, and more than one window and batch.
        workload = _workload()
        kinds = {op.kind.value for op in workload.operations}
        assert "scan" in kinds
        assert N_OPS > 2 * WINDOW and N_OPS > 2 * BATCH_SIZE
        engine = ArtRowexEngine()
        type_workload = _type_change_workload()
        records = engine.collect_records(
            engine.build_tree(type_workload), type_workload
        )
        assert any(
            record.node_type_changed and record.op_kind == "write"
            for record in records
        )
        serve = self._golden()["serve"]
        assert set(serve) == {f"load-{load}" for load in SERVE_LOADS}
        for image in serve.values():
            assert image["crashes"] == _digest(1)


def _regenerate():
    images = golden_images()
    with open(GOLDEN, "w") as handle:
        json.dump(images, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
    for name, sha in images["durable_files"].items():
        print(f"  {sha}  {name}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
