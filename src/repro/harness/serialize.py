"""Result serialization: RunResult / ExperimentResult → JSON and back.

Long experiment campaigns need their numbers on disk: each figure's
bench writes its rendered table, and this module writes the *data* —
every counter of every run — so downstream analysis (plots, regression
tracking across calibration changes) does not re-run simulations.

Only plain data goes out: the per-op latency array is summarised into
fixed percentiles, and the node-access Counter into its concentration
statistics, keeping files small and diffable.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Union

import numpy as np

from repro.engines.base import RunResult, TimeBreakdown
from repro.errors import SimulationError
from repro.workloads.histogram import concentration

LATENCY_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def result_to_dict(result: RunResult) -> dict:
    """Flatten a RunResult into JSON-safe data."""
    latencies = {}
    if len(result.latencies_ns):
        for pct in LATENCY_PERCENTILES:
            latencies[f"p{pct:g}_us"] = float(
                np.percentile(result.latencies_ns, pct) / 1e3
            )
    access_counts = result.node_access_counts
    spatial = {}
    if access_counts:
        spatial = {
            "distinct_nodes": len(access_counts),
            "top5pct_share": concentration(access_counts.values(), 0.05),
        }
    return {
        "engine": result.engine,
        "workload": result.workload,
        "platform": result.platform,
        "n_ops": result.n_ops,
        "elapsed_seconds": result.elapsed_seconds,
        "throughput_mops": result.throughput_mops,
        "breakdown": {
            "traverse_seconds": result.breakdown.traverse_seconds,
            "sync_seconds": result.breakdown.sync_seconds,
            "other_seconds": result.breakdown.other_seconds,
        },
        "partial_key_matches": result.partial_key_matches,
        "nodes_visited": result.nodes_visited,
        "distinct_nodes_visited": result.distinct_nodes_visited,
        "redundancy_ratio": result.redundancy_ratio,
        "bytes_fetched": result.bytes_fetched,
        "bytes_used": result.bytes_used,
        "cacheline_utilisation": result.cacheline_utilisation,
        "cache_hit_rate": result.cache_hit_rate,
        "lock_acquisitions": result.lock_acquisitions,
        "lock_contentions": result.lock_contentions,
        "energy_joules": result.energy_joules,
        "latency": latencies,
        "spatial": spatial,
        "extra": {k: _jsonable(v) for k, v in result.extra.items()},
    }


def result_to_full_dict(result: RunResult) -> dict:
    """Lossless flatten of a RunResult, for exact (golden) comparison.

    Unlike :func:`result_to_dict` nothing is summarised: the full per-op
    latency array and the complete node-access counter go out verbatim.
    Python's JSON floats round-trip exactly (shortest-repr), so equality
    of two of these dicts is bit-identity of the results.  Intended for
    determinism tests, not for large campaign archives.
    """
    return {
        "engine": result.engine,
        "workload": result.workload,
        "platform": result.platform,
        "n_ops": result.n_ops,
        "elapsed_seconds": result.elapsed_seconds,
        "breakdown": {
            "traverse_seconds": result.breakdown.traverse_seconds,
            "sync_seconds": result.breakdown.sync_seconds,
            "other_seconds": result.breakdown.other_seconds,
        },
        "partial_key_matches": result.partial_key_matches,
        "nodes_visited": result.nodes_visited,
        "distinct_nodes_visited": result.distinct_nodes_visited,
        "bytes_fetched": result.bytes_fetched,
        "bytes_used": result.bytes_used,
        "cache_hit_rate": result.cache_hit_rate,
        "lock_acquisitions": result.lock_acquisitions,
        "lock_contentions": result.lock_contentions,
        "energy_joules": result.energy_joules,
        "latencies_ns": [float(x) for x in result.latencies_ns],
        "node_access_counts": sorted(
            [int(node), int(count)]
            for node, count in result.node_access_counts.items()
        ),
        "extra": {k: _jsonable(v) for k, v in sorted(result.extra.items())},
    }


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a (summary-level) RunResult from :func:`result_to_dict`.

    Per-op latencies and per-node counters are summarised on save, so
    the reloaded result carries their summaries in ``extra`` instead.
    """
    for field in ("engine", "workload", "platform", "n_ops"):
        if field not in data:
            raise SimulationError(f"result record missing {field!r}")
    result = RunResult(
        engine=data["engine"],
        workload=data["workload"],
        platform=data["platform"],
        n_ops=data["n_ops"],
    )
    result.elapsed_seconds = data.get("elapsed_seconds", 0.0)
    b = data.get("breakdown", {})
    result.breakdown = TimeBreakdown(
        traverse_seconds=b.get("traverse_seconds", 0.0),
        sync_seconds=b.get("sync_seconds", 0.0),
        other_seconds=b.get("other_seconds", 0.0),
    )
    for field in (
        "partial_key_matches",
        "nodes_visited",
        "distinct_nodes_visited",
        "bytes_fetched",
        "bytes_used",
        "cache_hit_rate",
        "lock_acquisitions",
        "lock_contentions",
        "energy_joules",
    ):
        if field in data:
            setattr(result, field, data[field])
    result.extra = dict(data.get("extra", {}))
    result.extra.update(data.get("latency", {}))
    result.extra.update(data.get("spatial", {}))
    return result


def save_result(result: RunResult, path_or_file: Union[str, IO]) -> None:
    """Write one RunResult as a JSON document."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            save_result(result, handle)
        return
    json.dump(result_to_dict(result), path_or_file, indent=1)


def load_result(path_or_file: Union[str, IO]) -> RunResult:
    """Read a result written by :func:`save_result`.

    Damaged files surface as :class:`~repro.errors.SimulationError` —
    undecodable JSON, a non-object document, or a record missing its
    identity fields all mean the file is not a saved result.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            return load_result(handle)
    payload = _load_json(path_or_file)
    if not isinstance(payload, dict):
        raise SimulationError(
            f"result file holds {type(payload).__name__}, expected an object"
        )
    return result_from_dict(payload)


def _load_json(handle: IO):
    try:
        return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"corrupt result JSON: {exc}") from exc


def save_matrix(
    matrix: Dict[str, Dict[str, RunResult]], path_or_file: Union[str, IO]
) -> None:
    """Write a run_matrix result as one JSON document."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            save_matrix(matrix, handle)
        return
    payload = {
        workload: {name: result_to_dict(r) for name, r in per_engine.items()}
        for workload, per_engine in matrix.items()
    }
    json.dump(payload, path_or_file, indent=1)


def load_matrix(path_or_file: Union[str, IO]) -> Dict[str, Dict[str, RunResult]]:
    """Read a matrix written by :func:`save_matrix`."""
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            return load_matrix(handle)
    payload = _load_json(path_or_file)
    if not isinstance(payload, dict):
        raise SimulationError(
            f"matrix file holds {type(payload).__name__}, expected an object"
        )
    return {
        workload: {
            name: result_from_dict(record) for name, record in per_engine.items()
        }
        for workload, per_engine in payload.items()
    }
