"""Campaign execution: expand the spec, run missing cells, persist each.

The runner leans on :mod:`repro.harness.parallel` for everything that is
hard about running grids — process fan-out, the crashed-worker
retry-once path, structured per-cell error documents — and adds what a
*campaign* needs on top:

* **resume** — before running, the store is asked which cells are
  already OK under ``(spec hash, git SHA, mode)``; those are skipped
  outright (zero re-simulation), and each finishing cell is persisted
  via the runner's ``on_result`` hook, so killing a campaign loses at
  most the cells still in flight;
* **dimensions** — cells carry a fault-schedule signature and the
  spec's platform-power model.

The cell worker is module-level (picklable) and derives everything from
the frozen cell value, preserving the grid runner's determinism
contract: a campaign's stored grid is bit-identical for any ``--jobs``.
``repro sweep``, ``repro chaos`` and ``recover --campaign`` are unsaved
campaigns: they run their grids through :func:`run_campaign` into an
in-memory store.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.spec import CRASH_FAULT, NO_FAULT, CampaignSpec, fault_schedule
from repro.experiments.store import ResultStore
from repro.harness.parallel import cell_failed, run_cells
from repro.model.costs import DEFAULT_POWER, PowerModel

@dataclass(frozen=True)
class CampaignCell:
    """One campaign grid cell: the complete recipe for its run."""

    engine: str
    workload: str
    seed: int
    fault: str = NO_FAULT
    n_keys: int = 10_000
    n_ops: int = 100_000
    write_ratio: Optional[float] = None
    op_skew: Optional[float] = None
    power: Optional[Tuple[float, float, float]] = None
    #: Run on the chaos harness even when ``fault`` is ``none``: set for
    #: every cell of a campaign with faults, so that its healthy and
    #: faulted cells run one config and their throughputs compare.
    chaos: bool = False

    def key(self) -> str:
        """The store key: stable, human-readable, unique in the grid."""
        return f"{self.engine}/{self.workload}/seed={self.seed}/{self.fault}"

    def label(self) -> str:
        return self.key()

    def power_model(self) -> PowerModel:
        if self.power is None:
            return DEFAULT_POWER
        cpu, gpu, fpga = self.power
        return PowerModel(cpu_watts=cpu, gpu_watts=gpu, fpga_watts=fpga)


def expand_spec(spec: CampaignSpec) -> List[CampaignCell]:
    """The full grid, in (engine, workload, fault, seed) order."""
    chaos = any(fault != NO_FAULT for fault in spec.faults)
    return [
        CampaignCell(
            engine=engine,
            workload=workload,
            seed=seed,
            fault=fault,
            n_keys=spec.n_keys,
            n_ops=spec.n_ops,
            write_ratio=spec.write_ratio,
            op_skew=spec.op_skew,
            power=spec.power,
            chaos=chaos,
        )
        for engine in spec.engines
        for workload in spec.workloads
        for fault in spec.faults
        for seed in spec.seeds
    ]


def run_campaign_cell(
    cell: CampaignCell, *, collect_metrics: bool = False
) -> Dict[str, object]:
    """Execute one campaign cell and return its result document.

    Module-level (picklable) with deferred imports so worker start-up
    stays cheap.  The document is the summary-level result dict plus
    the cell identity, tree validity and the applied platform power —
    everything the report needs, small enough to archive thousands of.
    A ``crash`` cell runs one crash-recover-validate trial instead: its
    document carries the trial's outcome and no throughput.

    ``collect_metrics`` attaches a telemetry registry to the run and
    returns its contents under ``doc["metrics"]``.  It is deterministic
    for any ``jobs`` count: the registry is filled from the run's own
    counters, never from scheduling state.
    """
    from repro.harness import resilience
    from repro.harness.runner import default_engines
    from repro.harness.serialize import result_to_dict
    from repro.obs import Telemetry
    from repro.workloads import make_workload

    # A fault or crash cell runs DCART on its own config; the engine
    # built here still names the platform its energy is billed on.
    engine = default_engines(cell.n_keys, include=[cell.engine])[0]
    kind = engine.platform.kind
    default_watts = DEFAULT_POWER.watts_for(kind)
    watts = cell.power_model().watts_for(kind)
    tree_valid: Optional[bool] = None
    if cell.fault == CRASH_FAULT:
        outcome = resilience.crash_recover_verify(
            seed=cell.seed,
            workload_name=cell.workload,
            n_keys=cell.n_keys,
            n_ops=cell.n_ops,
            write_ratio=cell.write_ratio,
            op_skew=cell.op_skew,
        )
        doc: Dict[str, object] = dict(asdict(outcome), ok=outcome.ok)
        tree_valid = outcome.validation.ok
    else:
        workload = make_workload(
            cell.workload,
            n_keys=cell.n_keys,
            n_ops=cell.n_ops,
            seed=cell.seed,
            write_ratio=cell.write_ratio,
            op_skew=cell.op_skew,
        )
        telemetry = Telemetry() if collect_metrics else None
        if cell.chaos or cell.fault != NO_FAULT:
            config = resilience.chaos_config(cell.n_keys)
            schedule = fault_schedule(
                cell.fault, config, cell.n_ops, cell.seed
            )
            result, validation = resilience.faulted_run(
                config, workload, schedule, telemetry=telemetry
            )
            tree_valid = validation.ok
        else:
            engine.telemetry = telemetry
            result = engine.run(workload)
        doc = result_to_dict(result)
        if telemetry is not None:
            doc["metrics"] = telemetry.registry.as_dict()
        if watts != default_watts:
            # Energy = power x time (model/costs.py), so re-pricing a run
            # under the spec's power model is an exact linear rescale.
            doc["energy_joules"] = doc["energy_joules"] * watts / default_watts
    doc["cell"] = {
        "engine": cell.engine,
        "workload": cell.workload,
        "seed": cell.seed,
        "fault": cell.fault,
        "n_keys": cell.n_keys,
        "n_ops": cell.n_ops,
        "write_ratio": cell.write_ratio,
        "op_skew": cell.op_skew,
        "platform_kind": kind,
        "platform_watts": watts,
        "tree_valid": tree_valid,
    }
    return doc


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    git_sha: str,
    mode: str = "full",
    jobs: int = 1,
    created_at: str = "",
    worker: Callable[[CampaignCell], Dict[str, object]] = run_campaign_cell,
) -> Dict[str, object]:
    """Run (or resume) a campaign; returns the run summary.

    Every cell already stored OK under ``(spec hash, git_sha, mode)`` is
    skipped without simulation; the rest run through
    :func:`repro.harness.parallel.run_cells` (``jobs`` processes,
    crashed workers retried once) and are persisted *as they complete*,
    so an interrupted campaign resumes from its last committed cell.

    The summary reports ``total``/``reused``/``ran``/``failed`` — the
    acceptance gate for idempotence is ``ran == 0`` on a second
    invocation of an unchanged spec.
    """
    spec_hash = store.register_campaign(spec, created_at=created_at)
    cells = expand_spec(spec)
    keys = [cell.key() for cell in cells]
    if len(set(keys)) != len(keys):  # pragma: no cover - spec forbids dupes
        raise ConfigError("campaign grid has duplicate cell keys")
    done = store.completed_keys(spec_hash, git_sha, mode)
    missing = [cell for cell in cells if cell.key() not in done]

    def persist(cell: CampaignCell, doc: Dict[str, object]) -> None:
        status = "error" if cell_failed(doc) else "ok"
        store.put_cell(
            spec_hash,
            git_sha,
            mode,
            cell.key(),
            cell.engine,
            cell.workload,
            cell.seed,
            cell.fault,
            status,
            doc,
            created_at=created_at,
        )

    results = run_cells(missing, jobs=jobs, worker=worker, on_result=persist)
    failed = sum(1 for doc in results if cell_failed(doc))
    return {
        "spec_hash": spec_hash,
        "git_sha": git_sha,
        "mode": mode,
        "total": len(cells),
        "reused": len(cells) - len(missing),
        "ran": len(missing),
        "failed": failed,
    }


def campaign_status(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    git_sha: str,
    mode: str = "full",
) -> Dict[str, object]:
    """Completion state of a campaign without running anything."""
    spec_hash = spec.content_hash()
    cells = expand_spec(spec)
    counts = store.counts(spec_hash, git_sha, mode)
    done = store.completed_keys(spec_hash, git_sha, mode)
    pending = [cell.key() for cell in cells if cell.key() not in done]
    return {
        "spec_hash": spec_hash,
        "git_sha": git_sha,
        "mode": mode,
        "total": len(cells),
        "ok": counts["ok"],
        "error": counts["error"],
        "pending": len(pending),
        "pending_keys": pending,
        "complete": not pending,
    }
