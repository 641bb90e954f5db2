"""Workload persistence: save and reload generated workloads.

Large experiment grids want to generate each workload once and replay
it everywhere (and a reviewer wants to inspect the exact operation
stream a number came from).  The format is JSON-lines:

* line 1 — a header object (name, key family, seed, metadata);
* one line per loaded key (``{"load": "<hex>"}``);
* one line per operation (``{"id", "op", "key", "value"?, "scan"?}``).

Keys are hex-encoded so any byte string round-trips; values are
restricted to JSON scalars (which is all the generators produce).
"""

from __future__ import annotations

import json
from typing import IO, Iterator, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.ops import CHUNK_OPS, KIND_CODE, OperationStream, OpKind, Workload

FORMAT_VERSION = 1


def save_workload(workload: Workload, path_or_file: Union[str, IO]) -> None:
    """Write a workload as JSON-lines."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            save_workload(workload, handle)
        return
    out = path_or_file
    header = {
        "format": FORMAT_VERSION,
        "name": workload.name,
        "key_family": workload.key_family,
        "seed": workload.seed,
        "description": workload.description,
        "metadata": workload.metadata,
    }
    out.write(json.dumps(header) + "\n")
    for key in workload.loaded_keys:
        out.write(json.dumps({"load": key.hex()}) + "\n")
    stream = workload.operations
    for ids in stream.batches(CHUNK_OPS):
        for op_id, kind, key, value, scan_count in zip(
            ids.tolist(), *stream.gather(ids)
        ):
            record = {"id": op_id, "op": kind.value, "key": key.hex()}
            if value is not None:
                record["value"] = value
            if scan_count:
                record["scan"] = scan_count
            out.write(json.dumps(record) + "\n")


def _lines(handle: IO) -> Iterator[Tuple[int, str]]:
    """``(line number, text)`` for every line of a text or binary file."""
    lines = iter(handle)
    line_number = 0
    while True:
        line_number += 1
        try:
            line = next(lines, None)
            if isinstance(line, bytes):
                line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WorkloadError(
                f"line {line_number}: not valid UTF-8 ({exc.reason})"
            ) from None
        if line is None:
            return
        yield line_number, line


def _record(line_number: int, line: str) -> dict:
    """One JSON-object line, or a WorkloadError naming the line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WorkloadError(
            f"line {line_number}: not valid JSON ({exc.msg})"
        ) from None
    if not isinstance(record, dict):
        raise WorkloadError(
            f"line {line_number}: expected a JSON object, got "
            f"{type(record).__name__}"
        )
    return record


def load_workload(path_or_file: Union[str, IO]) -> Workload:
    """Read a workload written by :func:`save_workload`.

    Malformed input of any kind — a missing file, invalid UTF-8, a line
    that is not a JSON object, a bad hex key, a record missing a field,
    an ``id`` that is not the op's position among the op records, a
    ``scan`` that is not a non-negative integer — raises
    :class:`WorkloadError` naming the offending line.
    """
    if isinstance(path_or_file, str):
        try:
            handle = open(path_or_file, "rb")
        except OSError as exc:
            raise WorkloadError(
                f"cannot read workload file {path_or_file}: {exc.strerror}"
            ) from None
        with handle:
            return load_workload(handle)
    lines = _lines(path_or_file)
    first = next(lines, None)
    if first is None:
        raise WorkloadError("empty workload file")
    header = _record(*first)
    if "name" not in header:
        raise WorkloadError("malformed workload header")
    if header.get("format") != FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported workload format: {header.get('format')!r}"
        )

    loaded_keys = []
    kind_codes = []
    keys = []
    values = []
    scan_counts = []
    for line_number, line in lines:
        if not line.strip():
            continue
        record = _record(line_number, line)
        if "load" in record:
            if keys:
                raise WorkloadError(
                    f"line {line_number}: load key after operations began"
                )
            try:
                loaded_keys.append(bytes.fromhex(record["load"]))
            except (TypeError, ValueError):
                raise WorkloadError(
                    f"line {line_number}: load key is not a hex string"
                ) from None
            continue
        try:
            op_id = record["id"]
            kind = OpKind(record["op"])
            key = bytes.fromhex(record["key"])
        except (KeyError, TypeError, ValueError):
            raise WorkloadError(
                f"line {line_number}: bad operation record"
            ) from None
        # type(...) is int: a bool is an int to isinstance().
        if type(op_id) is not int or op_id != len(keys):
            raise WorkloadError(
                f"line {line_number}: op id {op_id!r} is not the op's "
                f"position {len(keys)}"
            )
        scan_count = record.get("scan", 0)
        if type(scan_count) is not int or not 0 <= scan_count < 2**63:
            raise WorkloadError(
                f"line {line_number}: scan count {scan_count!r} is not a "
                "non-negative 64-bit integer"
            )
        kind_codes.append(KIND_CODE[kind])
        keys.append(key)
        values.append(record.get("value"))
        scan_counts.append(scan_count)
    n = len(keys)
    return Workload(
        name=header["name"],
        key_family=header.get("key_family", "unknown"),
        loaded_keys=loaded_keys,
        operations=OperationStream.from_columns(
            np.array(kind_codes, dtype=np.int8),
            np.fromiter(keys, dtype=object, count=n),
            np.fromiter(values, dtype=object, count=n),
            np.array(scan_counts, dtype=np.int64),
        ),
        seed=header.get("seed", 0),
        description=header.get("description", ""),
        metadata=header.get("metadata", {}),
    )
