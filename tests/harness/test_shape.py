"""Fidelity shape tests (DESIGN.md §4).

We do not assert the paper's absolute numbers — the substrate is a
simulator and the runs are scaled down 5000× — but the *shape* of every
result must hold: who wins, in roughly what proportion, and in which
direction each sensitivity moves.  The tighter per-band numbers are
printed by the benchmarks at their larger default scale and recorded in
docs/PAPER_COMPARISON.md.
"""

import pytest

from repro.harness import experiments as ex
from repro.harness.comparison import speedups
from repro.harness.runner import ENGINE_ORDER
from repro.workloads import WORKLOAD_NAMES

# The full engine x workload matrix takes minutes: tier-1 skips it.
pytestmark = pytest.mark.slow

KEYS = 10_000
OPS = 100_000


@pytest.fixture(scope="module")
def matrix():
    return ex._matrix(WORKLOAD_NAMES, ENGINE_ORDER, KEYS, OPS, 1)


class TestOrdering:
    def test_execution_time_order_every_workload(self, matrix):
        for workload in WORKLOAD_NAMES:
            per = matrix[workload]
            assert (
                per["DCART"].elapsed_seconds
                < per["CuART"].elapsed_seconds
                < per["SMART"].elapsed_seconds
                < per["Heart"].elapsed_seconds
                < per["ART"].elapsed_seconds
            ), f"ordering broken on {workload}"

    def test_dcart_c_in_best_baseline_class(self, matrix):
        # Fig. 9: DCART-C "only slightly outperforms" the baselines —
        # it must sit in SMART's class, far from the accelerator.
        for workload in WORKLOAD_NAMES:
            per = matrix[workload]
            ratio = per["DCART-C"].elapsed_seconds / per["SMART"].elapsed_seconds
            assert 0.25 < ratio < 1.5, f"DCART-C off-class on {workload}: {ratio}"
            assert per["DCART-C"].elapsed_seconds > 5 * per["DCART"].elapsed_seconds

    def test_energy_order(self, matrix):
        for workload in WORKLOAD_NAMES:
            per = matrix[workload]
            assert per["DCART"].energy_joules < per["CuART"].energy_joules
            assert per["CuART"].energy_joules < per["SMART"].energy_joules


class TestSpeedupBands:
    """Generous windows around the paper's Fig. 9 bands."""

    def band_over_workloads(self, matrix, engine):
        return [speedups(matrix[w])[engine] for w in WORKLOAD_NAMES]

    def test_vs_art(self, matrix):
        values = self.band_over_workloads(matrix, "ART")
        mean = sum(values) / len(values)
        assert 60 <= mean <= 250  # paper band: 123.8-151.7x
        assert min(values) > 30

    def test_vs_smart(self, matrix):
        values = self.band_over_workloads(matrix, "SMART")
        mean = sum(values) / len(values)
        assert 15 <= mean <= 70  # paper band: 35.9-44.2x
        assert min(values) > 8

    def test_vs_cuart(self, matrix):
        values = self.band_over_workloads(matrix, "CuART")
        mean = sum(values) / len(values)
        assert 10 <= mean <= 50  # paper band: 21.1-31.2x
        assert min(values) > 5


class TestCounterBands:
    def test_matches_fig8(self, matrix):
        for workload in WORKLOAD_NAMES:
            per = matrix[workload]
            dcart = per["DCART"].partial_key_matches
            assert dcart < 0.15 * per["ART"].partial_key_matches  # paper 3.2-5.7%
            assert dcart < 0.25 * per["SMART"].partial_key_matches  # paper 6.5-14.3%
            assert dcart < 0.25 * per["CuART"].partial_key_matches  # paper 8.8-15.9%

    def test_contentions_fig7(self, matrix):
        for workload in WORKLOAD_NAMES:
            per = matrix[workload]
            baseline_min = min(
                per[e].lock_contentions for e in ("ART", "Heart", "SMART", "CuART")
            )
            for ctt in ("DCART", "DCART-C"):
                ratio = per[ctt].lock_contentions / baseline_min
                assert 0 < ratio <= 0.20, (
                    f"{ctt} contention ratio {ratio:.3f} on {workload}"
                )  # paper: 3.2-19.7%

    def test_energy_ratio_tracks_power_ratio(self, matrix):
        # Energy saving = power ratio x speedup; with CPU/FPGA = 135/42,
        # the energy ratio must exceed the speedup by ~3.2x.
        for workload in WORKLOAD_NAMES:
            per = matrix[workload]
            spd = speedups(per)["ART"]
            sav = per["ART"].energy_joules / per["DCART"].energy_joules
            assert sav / spd == pytest.approx(135 / 42, rel=1e-6)


class TestSensitivityDirections:
    def test_fig12a_dcart_advantage_grows_with_ops(self):
        small = ex._matrix(("IPGEO",), ENGINE_ORDER, KEYS, 10_000, 1)["IPGEO"]
        large = ex._matrix(("IPGEO",), ENGINE_ORDER, KEYS, OPS, 1)["IPGEO"]
        assert speedups(large)["SMART"] > speedups(small)["SMART"]

    def test_fig12b_dcart_advantage_grows_with_writes(self):
        read_heavy = ex._matrix(
            ("IPGEO",), ENGINE_ORDER, KEYS, 50_000, 1, 0.0
        )["IPGEO"]
        write_heavy = ex._matrix(
            ("IPGEO",), ENGINE_ORDER, KEYS, 50_000, 1, 1.0
        )["IPGEO"]
        assert speedups(write_heavy)["SMART"] > speedups(read_heavy)["SMART"]
