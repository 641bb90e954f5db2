"""One entry point per paper figure/table (the per-experiment index).

Every function returns an :class:`ExperimentResult` — headers + rows that
the benchmarks print with :func:`repro.harness.formatting.format_table`,
plus the raw per-engine results for assertions.  All functions share a
memoised engine×workload matrix so a benchmark session runs each
configuration once.

Defaults are scaled down from the paper's 50 M keys (see
``runner.scaled_cpu_costs`` for why ratios survive the scaling); pass
larger ``n_keys``/``n_ops`` to push fidelity.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.accelerator import DcartAccelerator
from repro.core.config import DCARTConfig
from repro.engines.base import RunResult
from repro.errors import SimulationError
from repro.harness.comparison import band, energy_savings, speedups
from repro.harness.formatting import format_table
from repro.harness.runner import (
    ENGINE_ORDER,
    default_engines,
    run_matrix,
    scaled_dcart_config,
)
from repro.workloads import (
    MIXES,
    PrefixHistogram,
    WORKLOAD_NAMES,
    concentration,
    make_workload,
)

#: Default experiment scale (paper: 50 M keys, we default to 10 k — see
#: DESIGN.md §1 on scale substitution).
DEFAULT_KEYS = 10_000
DEFAULT_OPS = 100_000
DEFAULT_SEED = 1

REALWORLD = ("IPGEO", "DICT", "EA")
MOTIVATION_ENGINES = ("ART", "Heart", "SMART")


@dataclass
class ExperimentResult:
    """A figure/table rendered as rows, plus the raw run results."""

    experiment: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""
    raw: Dict[str, Dict[str, RunResult]] = field(default_factory=dict)

    def render(self) -> str:
        table = format_table(self.headers, self.rows, title=self.experiment)
        if self.notes:
            table += f"\n{self.notes}"
        return table


def experiment_to_csv(
    result: ExperimentResult, destination: Union[str, IO, None] = None
) -> str:
    """Write an ExperimentResult as RFC-4180 CSV; returns the CSV text.

    ``destination`` may be a path, a writable file object, or ``None``
    (string only).  ``# experiment:`` and ``# notes:`` comment lines
    carry the title, so the figures can be re-plotted with any external
    tool (the repository itself stays free of plotting dependencies).
    """
    if not result.headers:
        raise SimulationError("experiment has no headers to export")
    buffer = io.StringIO()
    buffer.write(f"# experiment: {result.experiment}\n")
    if result.notes:
        buffer.write(f"# notes: {result.notes}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result.headers)
    for row in result.rows:
        if len(row) != len(result.headers):
            raise SimulationError(
                f"row width {len(row)} != header width {len(result.headers)}"
            )
        writer.writerow(row)
    text = buffer.getvalue()
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            handle.write(text)
    elif destination is not None:
        destination.write(text)
    return text


@functools.lru_cache(maxsize=64)
def _workload(name: str, n_keys: int, n_ops: int, seed: int, write_ratio=None):
    return make_workload(
        name, n_keys=n_keys, n_ops=n_ops, seed=seed, write_ratio=write_ratio
    )


@functools.lru_cache(maxsize=32)
def _matrix(
    names: Tuple[str, ...],
    engines: Tuple[str, ...],
    n_keys: int,
    n_ops: int,
    seed: int,
    write_ratio=None,
) -> Dict[str, Dict[str, RunResult]]:
    workloads = [_workload(n, n_keys, n_ops, seed, write_ratio) for n in names]
    return run_matrix(default_engines(n_keys, include=engines), workloads)


def clear_cache() -> None:
    """Drop memoised workloads/results (tests use this between scales)."""
    _workload.cache_clear()
    _matrix.cache_clear()


# ----------------------------------------------------------------------
# Fig. 2 — motivation study
# ----------------------------------------------------------------------

def fig2a_breakdown(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 2(a): execution-time breakdown of the CPU baselines.

    Paper's claim: >95.82 % of SMART's execution time is tree traversal
    plus synchronisation.
    """
    results = _matrix(WORKLOAD_NAMES, MOTIVATION_ENGINES, n_keys, n_ops, seed)
    rows = []
    for workload in WORKLOAD_NAMES:
        for engine in MOTIVATION_ENGINES:
            r = results[workload][engine]
            rows.append(
                [
                    workload,
                    engine,
                    100 * r.breakdown.share("traverse"),
                    100 * r.sync_share,
                    100 * r.breakdown.share("other"),
                    100 * (r.breakdown.share("traverse") + r.sync_share),
                ]
            )
    return ExperimentResult(
        "Fig. 2(a) - execution-time breakdown (%)",
        ["workload", "engine", "traverse", "sync", "other", "traverse+sync"],
        rows,
        notes="paper: traverse+sync > 95.82 % for SMART on every workload",
        raw=results,
    )


def fig2b_redundancy(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 2(b): share of traversed nodes that are redundant.

    Paper: >77.8 % (SMART), up to 86.1 % (ART) / 82.5 % (Heart).
    """
    results = _matrix(WORKLOAD_NAMES, MOTIVATION_ENGINES, n_keys, n_ops, seed)
    rows = []
    for workload in WORKLOAD_NAMES:
        row = [workload]
        for engine in MOTIVATION_ENGINES:
            row.append(100 * results[workload][engine].redundancy_ratio)
        rows.append(row)
    return ExperimentResult(
        "Fig. 2(b) - redundant traversed nodes (%)",
        ["workload"] + list(MOTIVATION_ENGINES),
        rows,
        notes="paper: ART up to 86.1 %, Heart 82.5 %, SMART > 77.8 %",
        raw=results,
    )


def fig2c_utilisation(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 2(c): cacheline utilisation of traversal (paper: ~20.2 %)."""
    results = _matrix(WORKLOAD_NAMES, MOTIVATION_ENGINES, n_keys, n_ops, seed)
    rows = []
    for workload in WORKLOAD_NAMES:
        row = [workload]
        for engine in MOTIVATION_ENGINES:
            row.append(100 * results[workload][engine].cacheline_utilisation)
        rows.append(row)
    return ExperimentResult(
        "Fig. 2(c) - cacheline utilisation (%)",
        ["workload"] + list(MOTIVATION_ENGINES),
        rows,
        notes="paper: 20.2 % on average",
        raw=results,
    )


def fig2d_sync_vs_ops(
    n_keys: int = DEFAULT_KEYS,
    op_counts: Sequence[int] = (12_500, 25_000, 50_000, 100_000),
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Fig. 2(d): sync share vs. number of concurrent operations (IPGEO).

    Paper: 16.2 % -> 62.1 % for Heart/SMART, 24.1 % -> 71.3 % for ART.
    """
    rows = []
    raw = {}
    for n_ops in op_counts:
        results = _matrix(("IPGEO",), MOTIVATION_ENGINES, n_keys, n_ops, seed)
        raw[f"IPGEO@{n_ops}"] = results["IPGEO"]
        row = [n_ops]
        for engine in MOTIVATION_ENGINES:
            row.append(100 * results["IPGEO"][engine].sync_share)
        rows.append(row)
    return ExperimentResult(
        "Fig. 2(d) - sync share vs #ops, IPGEO (%)",
        ["n_ops"] + list(MOTIVATION_ENGINES),
        rows,
        notes="paper: grows with op count, ART worst (24.1 % -> 71.3 %)",
        raw=raw,
    )


def fig2e_write_ratio(
    n_keys: int = DEFAULT_KEYS,
    n_ops: int = DEFAULT_OPS,
    write_ratios: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Fig. 2(e): baseline throughput vs write ratio (IPGEO).

    Paper: performance deteriorates rapidly as the write ratio grows.
    """
    rows = []
    raw = {}
    for ratio in write_ratios:
        results = _matrix(
            ("IPGEO",), MOTIVATION_ENGINES, n_keys, n_ops, seed, write_ratio=ratio
        )
        raw[f"IPGEO@w{ratio}"] = results["IPGEO"]
        row = [ratio]
        for engine in MOTIVATION_ENGINES:
            row.append(results["IPGEO"][engine].throughput_mops)
        rows.append(row)
    return ExperimentResult(
        "Fig. 2(e) - throughput vs write ratio, IPGEO (Mops/s)",
        ["write_ratio"] + list(MOTIVATION_ENGINES),
        rows,
        notes="paper: throughput collapses as writes (lock traffic) grow",
        raw=raw,
    )


# ----------------------------------------------------------------------
# Fig. 3 — operation distribution
# ----------------------------------------------------------------------

def fig3_distribution(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 3: per-prefix op histograms + the two observations.

    Paper: IPGEO peaks above 24 000 ops at prefix 0x67; >96.65 % of
    traversals touch 5 % of the nodes.
    """
    rows = []
    raw = {}
    for name in REALWORLD:
        workload = _workload(name, n_keys, n_ops, seed, None)
        hist = PrefixHistogram.from_operations(workload.operations)
        # Node-level concentration needs actual traversals: one ART run.
        results = _matrix((name,), ("ART",), n_keys, n_ops, seed)
        raw[name] = results[name]
        node_conc = concentration(
            results[name]["ART"].node_access_counts.values(), 0.05
        )
        prefix, count = hist.hottest
        rows.append(
            [
                name,
                f"0x{prefix:02X}",
                count,
                hist.skew_ratio(),
                100 * hist.top_share(16),
                100 * node_conc,
            ]
        )
    return ExperimentResult(
        "Fig. 3 - operation distribution over 8-bit prefixes",
        [
            "workload",
            "hot_prefix",
            "hot_ops",
            "peak/mean",
            "top16_prefix_share_%",
            "top5%_node_traversal_share_%",
        ],
        rows,
        notes=(
            "paper: IPGEO peak >24000 ops at 0x67; >96.65 % of traversals "
            "on 5 % of nodes"
        ),
        raw=raw,
    )


# ----------------------------------------------------------------------
# Table I — configuration
# ----------------------------------------------------------------------

def table1_config(n_keys: Optional[int] = None) -> ExperimentResult:
    """Table I: DCART parameters (optionally the scaled instance)."""
    config = DCARTConfig() if n_keys is None else scaled_dcart_config(n_keys)
    rows = [
        ["Compute units", f"1 x PCU, 1 x Dispatcher, {config.n_sous} x SOUs"],
        ["Scan_buffer", f"{config.scan_buffer_bytes // 1024} KB"],
        ["Bucket_buffer", f"{config.bucket_buffer_bytes // 1024} KB"],
        ["Shortcut_buffer", f"{config.shortcut_buffer_bytes // 1024} KB"],
        ["Tree_buffer", f"{config.tree_buffer_bytes // 1024} KB"],
        ["Clock", f"{config.costs.clock_hz / 1e6:.0f} MHz"],
        ["Batch size", f"{config.batch_size} ops"],
    ]
    return ExperimentResult(
        "Table I - DCART parameters", ["parameter", "value"], rows
    )


# ----------------------------------------------------------------------
# Figs. 7/8/9/11 — headline comparison
# ----------------------------------------------------------------------

def fig7_contentions(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 7: lock contentions per engine per workload.

    Paper: DCART-C/DCART at 3.2 %-19.7 % of the other solutions.
    """
    results = _matrix(WORKLOAD_NAMES, ENGINE_ORDER, n_keys, n_ops, seed)
    rows = []
    for workload in WORKLOAD_NAMES:
        row = [workload]
        for engine in ENGINE_ORDER:
            row.append(results[workload][engine].lock_contentions)
        dcart = results[workload]["DCART"].lock_contentions
        baseline_min = min(
            results[workload][e].lock_contentions
            for e in ("ART", "Heart", "SMART", "CuART")
        )
        row.append(100 * dcart / baseline_min if baseline_min else 0.0)
        rows.append(row)
    return ExperimentResult(
        "Fig. 7 - lock contentions",
        ["workload"] + list(ENGINE_ORDER) + ["DCART/best_baseline_%"],
        rows,
        notes="paper: DCART(-C) at 3.2-19.7 % of the baselines",
        raw=results,
    )


def fig8_matches(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 8: partial-key matches per engine per workload.

    Paper bands (DCART as % of baseline): ART 3.2-5.7, SMART 6.5-14.3,
    CuART 8.8-15.9.
    """
    results = _matrix(WORKLOAD_NAMES, ENGINE_ORDER, n_keys, n_ops, seed)
    rows = []
    for workload in WORKLOAD_NAMES:
        per = results[workload]
        dcart = per["DCART"].partial_key_matches
        row = [workload]
        for engine in ENGINE_ORDER:
            row.append(per[engine].partial_key_matches)
        for baseline in ("ART", "SMART", "CuART"):
            base = per[baseline].partial_key_matches
            row.append(100 * dcart / base if base else 0.0)
        rows.append(row)
    return ExperimentResult(
        "Fig. 8 - partial-key matches",
        ["workload"]
        + list(ENGINE_ORDER)
        + ["%of_ART", "%of_SMART", "%of_CuART"],
        rows,
        notes="paper: DCART at 3.2-5.7 % of ART, 6.5-14.3 % of SMART, 8.8-15.9 % of CuART",
        raw=results,
    )


def fig9_performance(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 9: execution time and DCART speedups.

    Paper bands: 123.8-151.7x vs ART, 35.9-44.2x vs SMART, 21.1-31.2x
    vs CuART; DCART-C only slightly outperforms the baselines.
    """
    results = _matrix(WORKLOAD_NAMES, ENGINE_ORDER, n_keys, n_ops, seed)
    rows = []
    for workload in WORKLOAD_NAMES:
        per = results[workload]
        ratios = speedups(per)
        row = [workload]
        for engine in ENGINE_ORDER:
            row.append(per[engine].elapsed_seconds * 1e3)
        row.extend(
            [ratios["ART"], ratios["SMART"], ratios["CuART"], ratios["DCART-C"]]
        )
        rows.append(row)
    spd_bands = {
        name: band(
            speedups(results[w])[name] for w in WORKLOAD_NAMES
        )
        for name in ("ART", "SMART", "CuART")
    }
    notes = (
        "measured bands: "
        + ", ".join(
            f"{n} {lo:.1f}x-{hi:.1f}x" for n, (lo, hi) in spd_bands.items()
        )
        + " | paper: ART 123.8-151.7x, SMART 35.9-44.2x, CuART 21.1-31.2x"
    )
    return ExperimentResult(
        "Fig. 9 - execution time (ms) and DCART speedups",
        ["workload"]
        + [f"{e}_ms" for e in ENGINE_ORDER]
        + ["spd_vs_ART", "spd_vs_SMART", "spd_vs_CuART", "spd_vs_DCART-C"],
        rows,
        notes=notes,
        raw=results,
    )


def fig10_throughput_latency(
    n_keys: int = DEFAULT_KEYS,
    op_counts: Sequence[int] = (12_500, 25_000, 50_000, 100_000),
    seed: int = DEFAULT_SEED,
    workloads: Sequence[str] = REALWORLD,
) -> ExperimentResult:
    """Fig. 10: throughput vs P99 latency, varying the op count.

    Paper: DCART reaches both higher throughput and lower P99 latency
    than every baseline on the real-world workloads.
    """
    rows = []
    raw = {}
    for name in workloads:
        for n_ops in op_counts:
            results = _matrix((name,), ENGINE_ORDER, n_keys, n_ops, seed)
            raw[f"{name}@{n_ops}"] = results[name]
            for engine in ENGINE_ORDER:
                r = results[name][engine]
                rows.append(
                    [name, n_ops, engine, r.throughput_mops, r.p99_latency_us]
                )
    return ExperimentResult(
        "Fig. 10 - throughput vs P99 latency",
        ["workload", "n_ops", "engine", "Mops/s", "p99_us"],
        rows,
        notes="paper: DCART achieves higher throughput at lower P99",
        raw=raw,
    )


def fig11_energy(
    n_keys: int = DEFAULT_KEYS, n_ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fig. 11: energy and DCART's savings.

    Paper bands: 315.1-493.5x vs ART, 92.7-148.9x vs SMART, 71.1-126.2x
    vs CuART, 48.1-97.6x vs DCART-C.
    """
    results = _matrix(WORKLOAD_NAMES, ENGINE_ORDER, n_keys, n_ops, seed)
    rows = []
    for workload in WORKLOAD_NAMES:
        per = results[workload]
        savings = energy_savings(per)
        row = [workload]
        for engine in ENGINE_ORDER:
            row.append(per[engine].energy_joules)
        row.extend(
            [savings["ART"], savings["SMART"], savings["CuART"], savings["DCART-C"]]
        )
        rows.append(row)
    return ExperimentResult(
        "Fig. 11 - energy (J) and DCART savings",
        ["workload"]
        + [f"{e}_J" for e in ENGINE_ORDER]
        + ["sav_vs_ART", "sav_vs_SMART", "sav_vs_CuART", "sav_vs_DCART-C"],
        rows,
        notes=(
            "paper: ART 315.1-493.5x, SMART 92.7-148.9x, CuART 71.1-126.2x, "
            "DCART-C 48.1-97.6x"
        ),
        raw=results,
    )


# ----------------------------------------------------------------------
# Fig. 12 — sensitivity
# ----------------------------------------------------------------------

def fig12a_op_sensitivity(
    n_keys: int = DEFAULT_KEYS,
    op_counts: Sequence[int] = (12_500, 25_000, 50_000, 100_000),
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Fig. 12(a): IPGEO performance vs number of concurrent operations.

    Paper: DCART's advantage grows with the operation count.
    """
    rows = []
    raw = {}
    for n_ops in op_counts:
        results = _matrix(("IPGEO",), ENGINE_ORDER, n_keys, n_ops, seed)
        raw[f"IPGEO@{n_ops}"] = results["IPGEO"]
        ratios = speedups(results["IPGEO"])
        row = [n_ops]
        for engine in ENGINE_ORDER:
            row.append(results["IPGEO"][engine].elapsed_seconds * 1e3)
        row.append(ratios["SMART"])
        rows.append(row)
    return ExperimentResult(
        "Fig. 12(a) - execution time (ms) vs #ops, IPGEO",
        ["n_ops"] + [f"{e}_ms" for e in ENGINE_ORDER] + ["spd_vs_SMART"],
        rows,
        notes="paper: DCART's speedup grows with the op count",
        raw=raw,
    )


def fig12b_mix_sensitivity(
    n_keys: int = DEFAULT_KEYS,
    n_ops: int = DEFAULT_OPS,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Fig. 12(b): IPGEO performance across mixes A-E.

    Paper: DCART's improvement grows as the write ratio grows.
    """
    rows = []
    raw = {}
    for mix_name in ("A", "B", "C", "D", "E"):
        ratio = MIXES[mix_name].write_ratio
        results = _matrix(
            ("IPGEO",), ENGINE_ORDER, n_keys, n_ops, seed, write_ratio=ratio
        )
        raw[f"IPGEO@{mix_name}"] = results["IPGEO"]
        ratios = speedups(results["IPGEO"])
        row = [mix_name, ratio]
        for engine in ENGINE_ORDER:
            row.append(results["IPGEO"][engine].elapsed_seconds * 1e3)
        row.append(ratios["SMART"])
        rows.append(row)
    return ExperimentResult(
        "Fig. 12(b) - execution time (ms) across mixes A-E, IPGEO",
        ["mix", "write_ratio"]
        + [f"{e}_ms" for e in ENGINE_ORDER]
        + ["spd_vs_SMART"],
        rows,
        notes="paper: improvement grows with the write ratio",
        raw=raw,
    )


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures; §III design choices)
# ----------------------------------------------------------------------

ABLATIONS = {
    "DCART": {},
    "no-shortcuts": {"enable_shortcuts": False},
    "no-combining": {"enable_combining": False},
    "no-overlap": {"enable_overlap": False},
    "lru-tree-buffer": {"value_aware_tree_buffer": False},
}


def ablation(
    n_keys: int = DEFAULT_KEYS,
    n_ops: int = DEFAULT_OPS,
    seed: int = DEFAULT_SEED,
    workload_name: str = "IPGEO",
    batch_size: int = 4096,
) -> ExperimentResult:
    """Disable each §III design decision in turn and re-measure.

    Uses a smaller batch than Table I's default so a scaled-down run
    still spans many batches (the overlap ablation needs batch count).
    """
    workload = _workload(workload_name, n_keys, n_ops, seed, None)
    rows = []
    raw = {workload_name: {}}
    for label, overrides in ABLATIONS.items():
        config = scaled_dcart_config(
            n_keys,
            DCARTConfig(batch_size=batch_size, **overrides),
        )
        result = DcartAccelerator(config=config).run(workload)
        raw[workload_name][label] = result
        rows.append(
            [
                label,
                result.elapsed_seconds * 1e3,
                result.throughput_mops,
                result.partial_key_matches,
                result.lock_contentions,
                result.extra.get("tree_buffer_hit_rate", 0.0),
            ]
        )
    return ExperimentResult(
        f"Ablation - DCART design choices on {workload_name}",
        ["variant", "ms", "Mops/s", "matches", "contentions", "tree_buf_hit"],
        rows,
        notes="each row reverts one design decision of paper SIII",
        raw=raw,
    )
