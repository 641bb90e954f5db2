"""The single entry point for building the paper's six workloads.

``make_workload(name, ...)`` produces a :class:`~repro.workloads.ops.Workload`:

1. generate the key universe for ``name`` (see :mod:`synthetic` /
   :mod:`realworld`);
2. mark the first ``load_fraction`` of keys as bulk-loaded (the tree the
   timed phase runs against) and keep the rest as an *insert reserve*;
3. generate ``n_ops`` operations: reads and value-updating writes sample
   loaded keys through a Zipf(theta) popularity ranking (a seeded
   permutation decouples popularity from key order), and a configurable
   share of writes are structural inserts drawn from the reserve.

Temporal similarity — the paper's Observation 1 — emerges from the Zipf
popularity; spatial similarity — Observation 2 — from popularity plus the
key sets' own prefix skew.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workloads import realworld, synthetic
from repro.workloads.mixes import DEFAULT_MIX, OperationMix, mix_for_write_ratio
from repro.workloads.ops import KIND_CODE, OperationStream, OpKind, Workload

WORKLOAD_NAMES = ("IPGEO", "DICT", "EA", "DE", "RS", "RD")

# Default operation-popularity skew per workload.  Real-world request
# streams are strongly skewed (Fig. 3); the synthetic integer workloads
# are given the moderate skew of a YCSB-style generator.
# Calibrated so the measured ratio bands straddle the paper's reported
# bands (see docs/PAPER_COMPARISON.md); all within the plausible range of skewed
# key-value request streams (YCSB's default is 0.99, hot production
# streams reach 1.2+).
DEFAULT_OP_SKEW = {
    "IPGEO": 1.20,
    "DICT": 1.15,
    "EA": 1.15,
    "DE": 1.12,
    "RS": 1.15,
    "RD": 1.12,
}

KEY_FAMILY = {
    "IPGEO": "ipv4",
    "DICT": "string",
    "EA": "string",
    "DE": "u64",
    "RS": "u64",
    "RD": "u64",
}

DESCRIPTIONS = {
    "IPGEO": "IP->country records (GeoLite2 equivalent), skewed first octet",
    "DICT": "English-dictionary-like words, skewed first letter",
    "EA": "e-mail addresses, Zipf-distributed providers (domain-reversed)",
    "DE": "dense 8-byte integers, ascending load order",
    "RS": "random sparse 8-byte integers (uniform over 2^64)",
    "RD": "random dense 8-byte integers (dense range, random order)",
}


def make_workload(
    name: str,
    n_keys: int = 100_000,
    n_ops: Optional[int] = None,
    mix: Optional[OperationMix] = None,
    write_ratio: Optional[float] = None,
    seed: int = 1,
    op_skew: Optional[float] = None,
    load_fraction: float = 0.85,
    insert_share_of_writes: float = 0.3,
    scan_ratio: float = 0.0,
    scan_length: int = 50,
) -> Workload:
    """Build one of the paper's six workloads at any scale.

    ``mix`` and ``write_ratio`` are mutually exclusive ways to set the
    read/write split; the default is the paper's 50/50 (mix C).

    ``scan_ratio`` converts that fraction of the *read* operations into
    bounded range scans of up to ``scan_length`` pairs (an extension
    beyond the paper's point-op streams — §V motivates tree indexes with
    range queries, so the harness supports exercising them).
    """
    if name not in WORKLOAD_NAMES:
        raise WorkloadError(
            f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}"
        )
    if mix is not None and write_ratio is not None:
        raise WorkloadError("pass either mix or write_ratio, not both")
    if write_ratio is not None:
        mix = mix_for_write_ratio(write_ratio)
    if mix is None:
        mix = DEFAULT_MIX
    # Every argument is checked before the first draw: generating a
    # large key set takes seconds.
    if n_keys <= 0:
        raise WorkloadError(f"n_keys must be positive: {n_keys}")
    if n_ops is None:
        n_ops = 2 * n_keys
    if n_ops < 0:
        raise WorkloadError(f"n_ops must be >= 0: {n_ops}")
    theta = DEFAULT_OP_SKEW[name] if op_skew is None else op_skew
    if theta < 0:
        raise WorkloadError(f"op_skew must be >= 0: {theta}")
    if not 0 < load_fraction <= 1:
        raise WorkloadError(f"load_fraction must be in (0, 1]: {load_fraction}")
    if not 0 <= insert_share_of_writes <= 1:
        raise WorkloadError(
            f"insert_share_of_writes must be in [0, 1]: {insert_share_of_writes}"
        )
    if not 0 <= scan_ratio <= 1:
        raise WorkloadError(f"scan_ratio must be in [0, 1]: {scan_ratio}")
    if scan_length <= 0:
        raise WorkloadError(f"scan_length must be positive: {scan_length}")

    rng = np.random.default_rng(seed)
    keys = _generate_keys(name, n_keys, rng)
    n_loaded = max(1, int(len(keys) * load_fraction))
    loaded = keys[:n_loaded]
    reserve = keys[n_loaded:]

    operations = _generate_operations(
        loaded, reserve, n_ops, mix, theta, insert_share_of_writes, rng,
        scan_ratio, scan_length,
    )
    return Workload(
        name=name,
        key_family=KEY_FAMILY[name],
        loaded_keys=loaded,
        operations=operations,
        seed=seed,
        description=DESCRIPTIONS[name],
        metadata={
            "mix": mix.name,
            "op_skew": theta,
            "n_reserve": len(reserve),
            "requested_keys": n_keys,
        },
    )


def _generate_keys(name: str, n_keys: int, rng: np.random.Generator):
    if name == "IPGEO":
        return realworld.ipgeo_keys(n_keys, rng)
    if name == "DICT":
        return realworld.dict_keys(n_keys, rng)
    if name == "EA":
        return realworld.email_keys(n_keys, rng)
    if name == "DE":
        return synthetic.dense_keys(n_keys)
    if name == "RS":
        return synthetic.random_sparse_keys(n_keys, rng)
    if name == "RD":
        return synthetic.random_dense_keys(n_keys, rng)
    raise WorkloadError(f"unknown workload {name!r}")


def _generate_operations(
    loaded,
    reserve,
    n_ops: int,
    mix: OperationMix,
    theta: float,
    insert_share_of_writes: float,
    rng: np.random.Generator,
    scan_ratio: float = 0.0,
    scan_length: int = 50,
) -> OperationStream:
    from repro.workloads.zipf import ZipfSampler

    # Popularity ranking: rank r -> loaded[permutation[r]].  The
    # permutation is *partially* correlated with the key generators' own
    # ordering (generators emit keys of hot prefixes first): shuffling
    # within blocks keeps hot ranks on hot prefixes — which is what
    # makes the per-prefix op histogram peak where the key histogram
    # peaks, as in Fig. 3 — and then half of all positions are swapped
    # at random so the peak does not absorb the whole stream.
    n_loaded = len(loaded)
    permutation = np.arange(n_loaded)
    block = max(64, n_loaded // 256)
    for start in range(0, n_loaded, block):
        segment = permutation[start : start + block]
        rng.shuffle(segment)
        permutation[start : start + block] = segment
    swap_from = rng.choice(n_loaded, size=n_loaded // 2, replace=False)
    swap_to = swap_from.copy()
    rng.shuffle(swap_to)
    permutation[swap_from] = permutation[swap_to]
    sampler = ZipfSampler(len(loaded), theta, rng)
    ranks = sampler.sample(n_ops)
    is_write = rng.random(n_ops) < mix.write_ratio
    is_insert = rng.random(n_ops) < insert_share_of_writes

    is_scan = rng.random(n_ops) < scan_ratio
    scan_counts = rng.integers(1, scan_length + 1, size=n_ops)

    # The stream's columns come straight from these arrays.  The first
    # len(reserve) inserting writes, in stream order, take the reserve
    # keys; every other op keeps its loaded key.  A write's value is its
    # op id, so only writes get an int object.
    keys = np.empty(n_loaded, dtype=object)
    keys[:] = loaded
    keys = keys[permutation[ranks]]
    inserts = np.flatnonzero(is_write & is_insert)[: len(reserve)]
    keys[inserts] = reserve[: len(inserts)]
    kind_codes = np.where(
        is_write,
        KIND_CODE[OpKind.WRITE],
        np.where(is_scan, KIND_CODE[OpKind.SCAN], KIND_CODE[OpKind.READ]),
    ).astype(np.int8)
    values = np.full(n_ops, None, dtype=object)
    writes = np.flatnonzero(is_write)
    values[writes] = writes.tolist()
    counts = np.where(is_scan & ~is_write, scan_counts, 0).astype(np.int64)
    return OperationStream.from_columns(kind_codes, keys, values, counts)
