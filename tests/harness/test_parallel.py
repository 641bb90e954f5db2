"""Parallel grid runner: cross-process determinism and crash robustness.

The load-bearing guarantee is that ``run_cells(cells, jobs=N)`` is
bit-identical for every ``N``: a cell is a frozen value, the worker
derives everything from it, and collection is in submission order.  The
tests here compare the *full* lossless result dicts between the
in-process path (``jobs=1``) and the process-pool path (``jobs=2``),
so any scheduling- or fork-state dependence shows up as a field diff.
"""

import dataclasses
import os

import pytest

from repro.errors import ConfigError
from repro.experiments.campaign import CampaignCell, expand_spec
from repro.experiments.spec import CampaignSpec
from repro.harness.parallel import cell_failed, run_cells

#: Small but non-trivial: two engines x two seeds crosses the batch
#: boundary in every cell and keeps the pool path under a few seconds.
GRID = CampaignSpec(
    name="parallel",
    engines=("ART", "DCART"),
    workloads=("IPGEO",),
    seeds=(1, 2),
    n_keys=500,
    n_ops=2_000,
)


def _full_doc(cell):
    """Run one cell and return its *lossless* result document.

    Module-level so ``jobs=2`` can pickle it.  The campaign worker
    returns a summary; this one keeps every field (per-op latencies
    included), so the bit-identity check below misses nothing.
    """
    from repro.harness.runner import default_engines
    from repro.harness.serialize import result_to_full_dict
    from repro.workloads import make_workload

    workload = make_workload(
        cell.workload,
        n_keys=cell.n_keys,
        n_ops=cell.n_ops,
        seed=cell.seed,
        write_ratio=cell.write_ratio,
        op_skew=cell.op_skew,
    )
    engine = default_engines(cell.n_keys, include=[cell.engine])[0]
    doc = result_to_full_dict(engine.run(workload))
    doc["cell"] = dataclasses.asdict(cell)
    return doc


class TestRunCells:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_cells([], jobs=0, worker=_full_doc)

    def test_cells_are_frozen_values(self):
        cell = expand_spec(GRID)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.seed = 99

    def test_parallel_is_bit_identical_to_serial(self):
        cells = expand_spec(GRID)
        serial = run_cells(cells, jobs=1, worker=_full_doc)
        pooled = run_cells(cells, jobs=2, worker=_full_doc)
        assert len(serial) == len(pooled) == len(cells) == 4
        for cell, one, many in zip(cells, serial, pooled):
            assert one["cell"]["engine"] == cell.engine
            # Field-by-field first so a mismatch names its field …
            for field in one:
                assert one[field] == many[field], (
                    f"{cell.label()}.{field} differs between jobs=1 and "
                    f"jobs=2"
                )
            # … then whole-document, so nothing is silently added.
            assert one == many

    def test_single_cell_short_circuits_pool(self):
        cell = CampaignCell(engine="DCART", workload="IPGEO", seed=3,
                            n_keys=400, n_ops=1_000)
        assert run_cells([cell], jobs=4, worker=_full_doc) == [
            _full_doc(cell)
        ]


# ---------------------------------------------------------------------------
# crashed-worker robustness: retry once, then a structured per-cell error
# ---------------------------------------------------------------------------

#: Flag-file path (via env so forked pool workers see it) marking that
#: the flaky worker has already died once.
_FLAKY_FLAG_ENV = "REPRO_TEST_PARALLEL_FLAKY_FLAG"


def _ok_doc(cell):
    return {
        "cell": {"engine": cell.engine, "workload": cell.workload,
                 "seed": cell.seed},
        "elapsed_seconds": 1e-3,
        "n_ops": cell.n_ops,
        "cache_hit_rate": 0.5,
    }


def _worker_raises_on_seed_2(cell):
    if cell.seed == 2:
        raise ValueError("boom on seed 2")
    return _ok_doc(cell)


def _worker_exits_on_seed_2(cell):
    if cell.seed == 2:
        os._exit(13)  # hard death: no exception, the process is gone
    return _ok_doc(cell)


def _worker_dies_once(cell):
    flag = os.environ[_FLAKY_FLAG_ENV]
    if cell.seed == 2 and not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("died")
        os._exit(13)
    return _ok_doc(cell)


_INLINE_CALLS = {"n": 0}


def _worker_flaky_inline(cell):
    _INLINE_CALLS["n"] += 1
    if _INLINE_CALLS["n"] == 1:
        raise RuntimeError("first call dies")
    return _ok_doc(cell)


def _cells(seeds=(1, 2, 3)):
    return [
        CampaignCell(engine="DCART", workload="IPGEO", seed=s,
                     n_keys=400, n_ops=1_000)
        for s in seeds
    ]


class TestWorkerCrashRobustness:
    def test_persistent_raise_becomes_error_doc_not_exception(self):
        results = run_cells(_cells(), jobs=2, worker=_worker_raises_on_seed_2)
        assert len(results) == 3
        good = [doc for doc in results if not cell_failed(doc)]
        bad = [doc for doc in results if cell_failed(doc)]
        assert [doc["cell"]["seed"] for doc in good] == [1, 3]
        (failure,) = bad
        assert failure["cell"] == dataclasses.asdict(_cells()[1])
        assert failure["error"]["type"] == "ValueError"
        assert "boom" in failure["error"]["message"]
        assert failure["error"]["retried"] is True

    def test_worker_process_death_spares_sibling_cells(self):
        """A hard os._exit poisons the pool; every healthy cell must
        still come back (via the fresh-pool retry), and only the dying
        cell carries an error document."""
        results = run_cells(_cells(), jobs=2, worker=_worker_exits_on_seed_2)
        assert len(results) == 3
        by_seed = {doc["cell"]["seed"]: doc for doc in results}
        assert not cell_failed(by_seed[1])
        assert not cell_failed(by_seed[3])
        assert cell_failed(by_seed[2])
        assert by_seed[2]["error"]["retried"] is True

    def test_worker_dying_on_first_call_recovers_on_retry(self, tmp_path):
        os.environ[_FLAKY_FLAG_ENV] = str(tmp_path / "flaky.flag")
        try:
            results = run_cells(_cells(), jobs=2, worker=_worker_dies_once)
        finally:
            del os.environ[_FLAKY_FLAG_ENV]
        assert [doc["cell"]["seed"] for doc in results] == [1, 2, 3]
        assert not any(cell_failed(doc) for doc in results)

    def test_inline_path_retries_once_with_the_same_cell(self):
        _INLINE_CALLS["n"] = 0
        (doc,) = run_cells(_cells(seeds=(7,)), jobs=1,
                           worker=_worker_flaky_inline)
        assert not cell_failed(doc)
        assert doc["cell"]["seed"] == 7
        assert _INLINE_CALLS["n"] == 2  # original + one retry


class TestOnResultHook:
    """The incremental-persistence hook the campaign store hangs off."""

    def test_fires_per_cell_in_submission_order(self):
        seen = []
        results = run_cells(
            _cells(), jobs=2, worker=_ok_doc,
            on_result=lambda cell, doc: seen.append(
                (cell.seed, doc["cell"]["seed"])
            ),
        )
        assert seen == [(1, 1), (2, 2), (3, 3)]
        assert len(results) == 3

    def test_fires_for_error_docs_too(self):
        """A cell that fails (even after the retry) must still reach the
        hook — the campaign store records failures as resumable cells."""
        seen = {}
        run_cells(
            _cells(), jobs=2, worker=_worker_raises_on_seed_2,
            on_result=lambda cell, doc: seen.__setitem__(
                cell.seed, cell_failed(doc)
            ),
        )
        assert seen == {1: False, 2: True, 3: False}

    def test_inline_path_fires_identically(self):
        serial, parallel = [], []
        run_cells(_cells(), jobs=1, worker=_ok_doc,
                  on_result=lambda c, d: serial.append(c.seed))
        run_cells(_cells(), jobs=2, worker=_ok_doc,
                  on_result=lambda c, d: parallel.append(c.seed))
        assert serial == parallel == [1, 2, 3]
