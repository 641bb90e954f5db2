"""Campaign runner: grid expansion, resume-from-store, kill-and-resume.

The resume contract is the platform's whole point, so it gets the full
adversarial treatment: a campaign killed mid-grid (worker raising
KeyboardInterrupt, exactly what Ctrl-C does) must, on restart, re-run
*only* the unfinished cells and end with a store byte-identical to an
uninterrupted run's.  Workers here are injected fakes — deterministic
documents derived from the cell value — so the suite exercises the
machinery, not the simulator; one real-simulation smoke cell at the end
keeps the integration honest.
"""

import pytest

from repro.core.accelerator import DcartAccelerator
from repro.errors import ConfigError
from repro.experiments.campaign import (
    CampaignCell,
    campaign_status,
    expand_spec,
    run_campaign,
    run_campaign_cell,
)
from repro.experiments.spec import KNOWN_ENGINES, CampaignSpec, fault_schedule
from repro.experiments.store import ResultStore
from repro.harness import resilience
from repro.harness.runner import default_engines
from repro.harness.serialize import result_to_dict
from repro.model.costs import DEFAULT_POWER
from repro.workloads import make_workload


def _spec(**overrides):
    base = dict(
        name="camp-test",
        engines=("ART", "DCART"),
        workloads=("IPGEO", "DICT"),
        seeds=(1, 2),
        n_keys=500,
        n_ops=2_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def _fake_worker(cell):
    """Deterministic stand-in for a simulation run."""
    return {
        "cell": {"engine": cell.engine, "workload": cell.workload,
                 "seed": cell.seed, "fault": cell.fault},
        "throughput_mops": float(cell.seed) * (
            10.0 if cell.engine == "DCART" else 1.0
        ),
        "energy_joules": 0.01,
        "latency": {"p99_us": 40.0},
    }


class TestExpandSpec:
    def test_grid_order_and_keys(self):
        cells = expand_spec(_spec(seeds=(1,), workloads=("IPGEO",)))
        assert [c.key() for c in cells] == [
            "ART/IPGEO/seed=1/none",
            "DCART/IPGEO/seed=1/none",
        ]

    def test_fault_dimension_multiplies(self):
        spec = _spec(engines=("DCART",), workloads=("IPGEO",),
                     faults=("none", "sou-failstop:2"))
        keys = [c.key() for c in expand_spec(spec)]
        assert keys == [
            "DCART/IPGEO/seed=1/none",
            "DCART/IPGEO/seed=2/none",
            "DCART/IPGEO/seed=1/sou-failstop:2",
            "DCART/IPGEO/seed=2/sou-failstop:2",
        ]

    def test_cells_inherit_spec_scale(self):
        cell = expand_spec(_spec(n_keys=777, op_skew=1.3))[0]
        assert cell.n_keys == 777
        assert cell.op_skew == 1.3

    def test_every_known_engine_has_a_platform_kind(self):
        # A cell is billed on the platform of the engine it builds.
        for name in KNOWN_ENGINES:
            (engine,) = default_engines(500, include=[name])
            assert engine.platform.kind in ("cpu", "gpu", "fpga"), name


class TestRunAndResume:
    def test_second_run_reuses_every_cell(self, tmp_path):
        spec = _spec()
        with ResultStore(str(tmp_path / "c.db")) as store:
            first = run_campaign(spec, store, git_sha="unstamped",
                                 worker=_fake_worker)
            assert first["ran"] == 8 and first["reused"] == 0
            second = run_campaign(spec, store, git_sha="unstamped",
                                  worker=_fake_worker)
            assert second["ran"] == 0 and second["reused"] == 8
            assert second["failed"] == 0

    def test_status_reports_pending(self, tmp_path):
        spec = _spec(seeds=(1,))
        with ResultStore(str(tmp_path / "c.db")) as store:
            status = campaign_status(spec, store, git_sha="unstamped")
            assert status["pending"] == 4 and not status["complete"]
            run_campaign(spec, store, git_sha="unstamped",
                         worker=_fake_worker)
            status = campaign_status(spec, store, git_sha="unstamped")
            assert status["complete"] and status["ok"] == 4

    def test_failed_cells_are_recorded_and_retried_on_resume(
        self, tmp_path
    ):
        spec = _spec(seeds=(1,), workloads=("IPGEO",))

        def flaky(cell):
            if cell.engine == "DCART":
                raise ValueError("transient")
            return _fake_worker(cell)

        with ResultStore(str(tmp_path / "c.db")) as store:
            first = run_campaign(spec, store, git_sha="unstamped",
                                 worker=flaky)
            assert first["ran"] == 2 and first["failed"] == 1
            # The failure is stored (status=error), visible in status...
            status = campaign_status(spec, store, git_sha="unstamped")
            assert status["error"] == 1 and status["pending"] == 1
            # ...and a re-run retries exactly that cell.
            second = run_campaign(spec, store, git_sha="unstamped",
                                  worker=_fake_worker)
            assert second["reused"] == 1 and second["ran"] == 1
            assert second["failed"] == 0

    def test_killed_campaign_resumes_bit_for_bit(self, tmp_path):
        """Kill mid-grid, restart, and the final store must equal an
        uninterrupted run's byte-for-byte — with zero completed cells
        re-simulated."""
        spec = _spec()  # 8 cells
        kill_after = 3
        progress = {"n": 0}

        def killer(cell):
            if progress["n"] >= kill_after:
                raise KeyboardInterrupt  # Ctrl-C mid-campaign
            progress["n"] += 1
            return _fake_worker(cell)

        interrupted = str(tmp_path / "interrupted.db")
        with ResultStore(interrupted) as store:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, store, git_sha="unstamped",
                             worker=killer)
        # The kill landed between cells: exactly the committed prefix
        # survives.
        with ResultStore(interrupted) as store:
            h = spec.content_hash()
            done = store.completed_keys(h, "unstamped", "full")
            assert len(done) == kill_after

            ran_keys = []

            def counting(cell):
                ran_keys.append(cell.key())
                return _fake_worker(cell)

            summary = run_campaign(spec, store, git_sha="unstamped",
                                   worker=counting)
            # Completed cells were not re-run...
            assert summary["reused"] == kill_after
            assert summary["ran"] == 8 - kill_after
            assert not (set(ran_keys) & done)
            resumed_dump = store.dump(h, "unstamped", "full")

        # ...and the merged store equals the uninterrupted run's, down
        # to the byte.
        clean = str(tmp_path / "clean.db")
        with ResultStore(clean) as store:
            run_campaign(spec, store, git_sha="unstamped",
                         worker=_fake_worker)
            assert store.dump(h, "unstamped", "full") == resumed_dump

    def test_duplicate_grid_rejected_by_spec(self):
        with pytest.raises(ConfigError):
            _spec(engines=("ART", "ART"))


class TestRealCellExecution:
    """One real simulated cell per path (healthy / fault / power)."""

    def test_healthy_cell_document_shape(self):
        doc = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            n_keys=400, n_ops=1_000,
        ))
        assert doc["cell"]["engine"] == "DCART"
        assert doc["cell"]["tree_valid"] is None  # no fault, no oracle
        assert doc["throughput_mops"] > 0
        assert doc["energy_joules"] > 0

    @pytest.mark.parametrize("engine, kind", [
        ("ART", "cpu"), ("CuART", "gpu"), ("DCART", "fpga"),
    ])
    def test_cell_is_billed_on_its_engines_platform(self, engine, kind):
        doc = run_campaign_cell(CampaignCell(
            engine=engine, workload="IPGEO", seed=1,
            n_keys=400, n_ops=1_000,
        ))
        assert doc["cell"]["platform_kind"] == kind
        assert doc["cell"]["platform_watts"] == DEFAULT_POWER.watts_for(kind)

    def test_fault_cell_runs_and_validates_tree(self):
        doc = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            fault="sou-failstop:2", n_keys=400, n_ops=1_000,
        ))
        assert doc["cell"]["fault"] == "sou-failstop:2"
        assert doc["cell"]["platform_kind"] == "fpga"
        assert doc["cell"]["tree_valid"] is True
        assert doc["throughput_mops"] > 0

    def test_failed_sous_do_not_speed_dcart_up(self):
        # The workloads, scale and first seed of
        # examples/campaigns/faults.toml.  The none cells come from the
        # campaign grid: a hand-built one never sees the campaign's config.
        spec = _spec(engines=("DCART",), seeds=(1,), n_keys=2_000,
                     n_ops=20_000, faults=("none", "sou-failstop:2"))
        with ResultStore(":memory:") as store:
            run_campaign(spec, store, git_sha="unstamped")
            cells = store.get_cells(spec.content_hash(), "unstamped", "full")

        def mops(workload, fault):
            key = f"DCART/{workload}/seed=1/{fault}"
            return cells[key]["payload"]["throughput_mops"]

        for workload in ("IPGEO", "DICT"):
            assert mops(workload, "sou-failstop:2") <= mops(workload, "none")

    def test_fault_campaign_cells_equal_chaos_run(self):
        """A chaos run: ``faulted_run`` beside a healthy run of the same
        (chaos) config is what a fault campaign's two cells hold."""
        spec = _spec(engines=("DCART",), workloads=("IPGEO",), seeds=(5,),
                     n_keys=800, n_ops=6_000,
                     faults=("none", "sou-failstop:3"))
        healthy, faulted = (run_campaign_cell(c) for c in expand_spec(spec))
        config = resilience.chaos_config(800)
        workload = make_workload("IPGEO", n_keys=800, n_ops=6_000, seed=5)
        baseline = DcartAccelerator(config=config).run(workload)
        schedule = fault_schedule("sou-failstop:3", config, 6_000, seed=5)
        run, _ = resilience.faulted_run(config, workload, schedule)
        for doc, result in ((healthy, baseline), (faulted, run)):
            expected = result_to_dict(result)
            assert doc["throughput_mops"] == expected["throughput_mops"]
            assert doc["latency"]["p99_us"] == expected["latency"]["p99_us"]
        assert healthy["cell"]["tree_valid"] is True

    def test_crash_cell_runs_its_own_workload(self):
        cell = CampaignCell(engine="DCART", workload="IPGEO", seed=1,
                            fault="crash", n_keys=800, n_ops=6_000,
                            write_ratio=0.9)
        doc = run_campaign_cell(cell)
        assert "throughput_mops" not in doc
        assert doc["ok"] and doc["cell"]["tree_valid"]

        def trial(write_ratio):
            outcome = resilience.crash_recover_verify(
                seed=1, n_keys=800, n_ops=6_000, write_ratio=write_ratio
            )
            return (outcome.crash_point, outcome.ops_replayed,
                    outcome.uncommitted_ops_skipped)

        stored = (doc["crash_point"], doc["ops_replayed"],
                  doc["uncommitted_ops_skipped"])
        assert stored == trial(0.9)
        assert stored != trial(None)

    def test_power_override_rescales_energy_exactly(self):
        base = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            n_keys=400, n_ops=1_000,
        ))
        doubled = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            n_keys=400, n_ops=1_000,
            power=(135.0, 165.0, 84.0),  # fpga 42 W -> 84 W
        ))
        assert doubled["energy_joules"] == pytest.approx(
            2.0 * base["energy_joules"]
        )
        assert doubled["cell"]["platform_watts"] == 84.0
        # Energy is the only number the power dimension may touch.
        assert doubled["throughput_mops"] == base["throughput_mops"]
