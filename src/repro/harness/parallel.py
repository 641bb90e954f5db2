"""Parallel grid runner: fan frozen cells over processes.

Experiment grids are embarrassingly parallel — each cell builds its own
workload and tree from its own seed — so the runner uses a
``ProcessPoolExecutor`` with one task per cell.  The campaign platform
(:mod:`repro.experiments.campaign`) is its caller: it supplies the
cells (:class:`~repro.experiments.campaign.CampaignCell`) and the
worker.  Determinism is kept by construction:

* **per-cell seeding** — a cell is a frozen dataclass value and the
  worker derives *everything* (workload, tree, engine) from it; no
  state crosses cells and nothing depends on scheduling order;
* **ordered collection** — futures are collected in submission order
  regardless of completion order.

Consequently ``run_cells(cells, jobs=N, worker=w)`` returns
bit-identical output for every ``N`` (including the in-process
``jobs=1`` path), which the test suite asserts through the lossless
:func:`~repro.harness.serialize.result_to_full_dict` encoding.

A crashed or raising worker does not abort the grid: the cell is
retried exactly once with the same seed (in a fresh single-worker pool,
since a hard crash poisons the shared one), and a second failure
produces a structured per-cell error document in the cell's slot rather
than an exception — 99 healthy cells survive the one that dies.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError

LOG = logging.getLogger(__name__)

#: A grid cell: a frozen dataclass with a ``label()`` method.
Cell = TypeVar("Cell")


def error_doc(
    cell: Cell, first: BaseException, retry: BaseException
) -> Dict[str, object]:
    """The structured slot-filler for a cell that failed twice."""
    return {
        "cell": dataclasses.asdict(cell),
        "error": {
            "type": type(retry).__name__,
            "message": str(retry) or repr(retry),
            "first_type": type(first).__name__,
            "first_message": str(first) or repr(first),
            "retried": True,
        },
    }


def cell_failed(doc: Dict[str, object]) -> bool:
    """True when ``doc`` is a per-cell error slot, not a result."""
    return "error" in doc


def _retry_cell(
    worker: Callable[[Cell], Dict[str, object]],
    cell: Cell,
    first: BaseException,
    in_process: bool,
) -> Dict[str, object]:
    """One retry with the same seed; a fresh pool isolates hard crashes.

    A worker that died mid-cell may have poisoned its pool
    (``BrokenProcessPool`` marks every sibling future), so the retry
    never reuses the original executor.  The in-process path retries
    inline — a plain exception there cannot corrupt shared state.
    """
    LOG.warning("cell %s failed (%s); retrying once", cell.label(), first)
    try:
        if in_process:
            return worker(cell)
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(worker, cell).result()
    except BaseException as again:  # noqa: BLE001 - converted to a doc
        if isinstance(again, (KeyboardInterrupt, SystemExit)):
            raise
        LOG.error("cell %s failed twice; recording error", cell.label())
        return error_doc(cell, first, again)


def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    *,
    worker: Callable[[Cell], Dict[str, object]],
    on_result: Optional[Callable[[Cell, Dict[str, object]], None]] = None,
) -> List[Dict[str, object]]:
    """Run every cell, ``jobs`` at a time, collecting in cell order.

    ``jobs=1`` runs in-process (no pool, easier to debug/profile);
    ``jobs>1`` fans out over processes.  Output is identical either way.

    A cell whose worker raises — or whose worker *process* dies — is
    retried once with the same seed; if the retry also fails its slot
    holds :func:`error_doc` output instead of a result, and every other
    cell still completes.  ``worker`` must be picklable when
    ``jobs > 1``: a module-level function or a ``functools.partial`` of
    one.

    ``on_result`` fires once per cell, in collection (= submission)
    order, as soon as that cell's document is final — including the
    retry and error-document paths.  The experiment platform uses it to
    persist each finished cell before the grid completes, so a killed
    campaign resumes from the last persisted cell instead of from zero.
    An ``on_result`` that raises aborts the run (persistence failing is
    not a per-cell condition).
    """
    if jobs <= 0:
        raise ConfigError(f"jobs must be positive: {jobs}")
    cells = list(cells)
    if jobs == 1 or len(cells) <= 1:
        out = []
        for cell in cells:
            try:
                doc = worker(cell)
            except BaseException as exc:  # noqa: BLE001 - retried below
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                doc = _retry_cell(worker, cell, exc, in_process=True)
            if on_result is not None:
                on_result(cell, doc)
            out.append(doc)
        return out
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(worker, cell) for cell in cells]
        results: List[Dict[str, object]] = []
        for cell, future in zip(cells, futures):
            try:
                doc = future.result()
            except BaseException as exc:  # noqa: BLE001 - retried below
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                doc = _retry_cell(worker, cell, exc, in_process=False)
            if on_result is not None:
                on_result(cell, doc)
            results.append(doc)
    return results
