#!/usr/bin/env python
"""Capacity planning for the Tree_buffer with reuse-distance analysis.

    python examples/capacity_planning.py

How big does DCART's Tree_buffer have to be?  Table I says 4 MB for the
paper's 50 M-key trees; this example derives that kind of number from
first principles for a scaled workload: trace the node accesses an
operation stream makes, compute the reuse-distance profile, and read
the miss-ratio curve — then cross-check against the actual value-aware
buffer at a few capacities, and print a full engine comparison.
"""

import numpy as np

from repro import DCARTConfig, DcartAccelerator, make_workload
from repro.art import record_traversal
from repro.engines.base import apply_operation
from repro.harness.formatting import format_table
from repro.harness.runner import default_engines, run_matrix
from repro.memsim.tracer import ReuseDistanceTracer

N_KEYS = 6_000
N_OPS = 30_000


def trace_node_accesses(workload) -> ReuseDistanceTracer:
    """Replay the op stream and trace every node fetch."""
    from repro.engines import SmartEngine

    tree = SmartEngine().build_tree(workload)
    tracer = ReuseDistanceTracer()
    stream = workload.operations
    for kind, key, value, scan_count in zip(
        *stream.gather(np.arange(len(stream)))
    ):
        record = apply_operation(tree, kind, key, value, scan_count)
        for touch in record.touches:
            tracer.access(touch.address, touch.fetch_bytes)
    return tracer


def main() -> None:
    workload = make_workload("IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=13)
    print(workload.summary(), "\n")

    tracer = trace_node_accesses(workload)
    print(
        f"trace: {tracer.n_accesses} line accesses over "
        f"{tracer.n_distinct_lines} distinct lines"
    )
    capacities = [64, 256, 1024, 4096, 16384]
    curve = tracer.miss_ratio_curve(capacities)
    rows = [
        [lines, lines * 64 // 1024, 100 * (1 - miss), 100 * miss]
        for lines, miss in curve.items()
    ]
    print(format_table(
        ["capacity_lines", "KiB", "hit_%", "miss_%"], rows,
        title="Miss-ratio curve (fully-associative LRU bound)",
    ))
    ws = tracer.working_set_lines(0.95)
    print(f"\n95% working set: {ws} lines = {ws * 64 / 1024:.0f} KiB\n")

    # Cross-check: the actual value-aware Tree_buffer at those capacities.
    rows = []
    for kib in (4, 16, 64, 256):
        config = DCARTConfig(
            batch_size=8192,
            tree_buffer_bytes=kib * 1024,
            shortcut_buffer_bytes=8 * 1024,
        )
        result = DcartAccelerator(config=config).run(workload)
        rows.append([
            kib,
            result.extra["tree_buffer_hit_rate"],
            result.elapsed_seconds * 1e3,
        ])
    print(format_table(
        ["tree_buffer_KiB", "hit_rate", "ms"], rows,
        title="Value-aware Tree_buffer, measured",
    ))

    # A full comparison of the engines on the same workload.
    engines = ["ART", "SMART", "CuART", "DCART"]
    matrix = run_matrix(default_engines(N_KEYS, include=engines), [workload])
    per_engine = matrix[workload.name]
    rows = [
        [
            name,
            per_engine[name].elapsed_seconds * 1e3,
            per_engine[name].throughput_mops,
            per_engine[name].energy_joules,
            per_engine[name].p99_latency_us,
        ]
        for name in engines
    ]
    print()
    print(format_table(
        ["engine", "ms", "Mops/s", "energy_J", "p99_us"], rows,
        title=f"IPGEO @ {N_KEYS} keys / {N_OPS} ops",
    ))


if __name__ == "__main__":
    main()
