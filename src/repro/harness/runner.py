"""Engine roster construction and grid running.

**Cache scaling.**  The paper's datasets hold 50 M keys against a 64 MB
class LLC, a 40 MB GPU L2, and DCART's 4 MB Tree_buffer.  Our scaled-down
runs would be meaningless against datasheet capacities — a 100 k-key tree
fits entirely in a 64 MB LLC, hiding every locality effect the paper
measures — so the harness scales each cache capacity by
``n_keys / 50e6`` (with small floors), keeping the *working-set-to-cache
ratio* of the original evaluation.  This is the standard methodology for
scaled architecture simulation, and it is what makes the measured ratios
transferable to the paper's scale.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional

from repro.core.accelerator import DcartAccelerator
from repro.core.config import DCARTConfig
from repro.engines import (
    ArtRowexEngine,
    CuArtEngine,
    DcartCEngine,
    HeartEngine,
    OlcEngine,
    SmartEngine,
)
from repro.engines.base import Engine, RunResult
from repro.model.costs import DEFAULT_CPU_COSTS, DEFAULT_GPU_COSTS, CpuCosts, GpuCosts
from repro.workloads.ops import Workload

#: The paper's key-set size every capacity is calibrated against.
DEFAULT_SCALE_REFERENCE = 50_000_000

#: Set-geometry granule: capacities must divide into ways x line bytes.
_GRANULE = 16 * 64

#: The paper's comparison set, in presentation order.
ENGINE_ORDER = ("ART", "Heart", "SMART", "CuART", "DCART-C", "DCART")
#: Extensions available by explicit ``include=`` (not part of Fig. 9).
EXTENSION_ENGINES = ("OLC",)


def _scaled_capacity(
    reference_bytes: int, n_keys: int, floor_bytes: int
) -> int:
    scale = n_keys / DEFAULT_SCALE_REFERENCE
    raw = max(floor_bytes, int(reference_bytes * scale))
    return max(_GRANULE, (raw // _GRANULE) * _GRANULE)


def scaled_cpu_costs(n_keys: int, base: CpuCosts = DEFAULT_CPU_COSTS) -> CpuCosts:
    """CPU cost model with the LLC scaled to the key-set size."""
    return replace(
        base, llc_bytes=_scaled_capacity(base.llc_bytes, n_keys, 64 * 1024)
    )


def scaled_gpu_costs(n_keys: int, base: GpuCosts = DEFAULT_GPU_COSTS) -> GpuCosts:
    """GPU cost model with the L2 scaled to the key-set size."""
    return replace(
        base, l2_bytes=_scaled_capacity(base.l2_bytes, n_keys, 48 * 1024)
    )


def scaled_dcart_config(
    n_keys: int, base: Optional[DCARTConfig] = None
) -> DCARTConfig:
    """DCART config with Table I buffer sizes scaled to the key-set size."""
    if base is None:
        base = DCARTConfig()
    return replace(
        base,
        shortcut_buffer_bytes=_scaled_capacity(
            base.shortcut_buffer_bytes, n_keys, 4 * 1024
        ),
        tree_buffer_bytes=_scaled_capacity(base.tree_buffer_bytes, n_keys, 8 * 1024),
    )


def default_engines(n_keys: int, include: Optional[Iterable[str]] = None) -> List[Engine]:
    """The paper's five comparison systems plus DCART, cache-scaled.

    ``include`` filters by engine name, preserving the canonical order
    ART, Heart, SMART, CuART, DCART-C, DCART.
    """
    cpu = scaled_cpu_costs(n_keys)
    gpu = scaled_gpu_costs(n_keys)
    roster: Dict[str, Engine] = {
        "ART": ArtRowexEngine(costs=cpu),
        "Heart": HeartEngine(costs=cpu),
        "SMART": SmartEngine(costs=cpu),
        "CuART": CuArtEngine(costs=gpu),
        "DCART-C": DcartCEngine(costs=cpu),
        "DCART": DcartAccelerator(config=scaled_dcart_config(n_keys)),
        "OLC": OlcEngine(costs=cpu),
    }
    wanted = list(include) if include is not None else list(ENGINE_ORDER)
    unknown = set(wanted) - set(roster)
    if unknown:
        raise KeyError(f"unknown engines: {sorted(unknown)}")
    order = list(ENGINE_ORDER) + list(EXTENSION_ENGINES)
    return [roster[name] for name in order if name in wanted]


def run_matrix(
    engines: Iterable[Engine], workloads: Iterable[Workload]
) -> Dict[str, Dict[str, RunResult]]:
    """Run every engine on every workload.

    Returns ``results[workload_name][engine_name]``.  The operation-
    centric engines (ART/Heart/SMART/CuART) execute the stream
    identically, so their traversal traces are collected once per
    workload and priced per engine; DCART and DCART-C execute their own
    (shortcut-taking) paths on fresh trees.
    """
    from repro.engines.cpu_common import CpuOperationCentricEngine
    from repro.engines.cuart import CuArtEngine

    engine_list = list(engines)
    results: Dict[str, Dict[str, RunResult]] = {}
    for workload in workloads:
        shared_records = None
        per_engine: Dict[str, RunResult] = {}
        for engine in engine_list:
            if isinstance(engine, (CpuOperationCentricEngine, CuArtEngine)):
                if shared_records is None:
                    tree = engine.build_tree(workload)
                    shared_records = engine.collect_records(tree, workload)
                per_engine[engine.name] = engine.run(
                    workload, records=shared_records
                )
            else:
                per_engine[engine.name] = engine.run(workload)
        results[workload.name] = per_engine
    return results
