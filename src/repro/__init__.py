"""DCART reproduction: a data-centric accelerator for the Adaptive Radix Tree.

Behavioural/cycle-level reproduction of *"A Data-Centric Hardware
Accelerator for Efficient Adaptive Radix Tree"* (DAC 2025): the full ART
substrate, the five comparison engines, the DCART accelerator model, the
paper's six workloads, and a harness that regenerates every figure and
table of the evaluation.

Quick tour (see ``examples/quickstart.py``):

    from repro import AdaptiveRadixTree, encode_u64
    tree = AdaptiveRadixTree()
    tree.insert(encode_u64(42), "value")

    from repro import make_workload, DcartAccelerator
    workload = make_workload("IPGEO", n_keys=10_000, n_ops=100_000)
    result = DcartAccelerator().run(workload)
    print(result.summary())

    from repro.harness import experiments
    print(experiments.fig9_performance().render())
"""

from repro.art import (
    AdaptiveRadixTree,
    TraversalRecord,
    decode_u64,
    encode_email,
    encode_ipv4,
    encode_str,
    encode_u32,
    encode_u64,
    record_traversal,
)
from repro.core import DCARTConfig, DcartAccelerator
from repro.engines import (
    ArtRowexEngine,
    CuArtEngine,
    DcartCEngine,
    HeartEngine,
    RunResult,
    SmartEngine,
)
from repro.errors import (
    ConfigError,
    DuplicateKeyError,
    KeyEncodingError,
    KeyNotFoundError,
    ReproError,
    SimulationError,
    TreeError,
    WorkloadError,
)
from repro.workloads import (
    MIXES,
    OpKind,
    Operation,
    OperationStream,
    PrefixHistogram,
    WORKLOAD_NAMES,
    Workload,
    make_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveRadixTree",
    "ArtRowexEngine",
    "ConfigError",
    "CuArtEngine",
    "DCARTConfig",
    "DcartAccelerator",
    "DcartCEngine",
    "DuplicateKeyError",
    "HeartEngine",
    "KeyEncodingError",
    "KeyNotFoundError",
    "MIXES",
    "OpKind",
    "Operation",
    "OperationStream",
    "PrefixHistogram",
    "ReproError",
    "RunResult",
    "SimulationError",
    "SmartEngine",
    "TraversalRecord",
    "TreeError",
    "WORKLOAD_NAMES",
    "Workload",
    "WorkloadError",
    "decode_u64",
    "encode_email",
    "encode_ipv4",
    "encode_str",
    "encode_u32",
    "encode_u64",
    "make_workload",
    "record_traversal",
]
