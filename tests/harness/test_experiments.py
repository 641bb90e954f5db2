"""Tests for the per-figure experiment entry points (small scale)."""

import csv
import io

import pytest

from repro.errors import SimulationError

from repro.harness import experiments as ex

KEYS = 2000
OPS = 10_000


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    ex.clear_cache()
    yield
    ex.clear_cache()


class TestMotivationFigures:
    def test_fig2a_shape(self):
        result = ex.fig2a_breakdown(n_keys=KEYS, n_ops=OPS)
        assert len(result.rows) == 6 * 3  # workloads x engines
        for row in result.rows:
            shares = row[2:5]
            assert sum(shares) == pytest.approx(100.0, abs=0.5)

    def test_fig2b_redundancy_high(self):
        result = ex.fig2b_redundancy(n_keys=KEYS, n_ops=OPS)
        for row in result.rows:
            for share in row[1:]:
                assert share > 50.0  # the paper's >77.8% at full scale

    def test_fig2c_utilisation_low(self):
        result = ex.fig2c_utilisation(n_keys=KEYS, n_ops=OPS)
        for row in result.rows:
            for share in row[1:]:
                assert 5.0 < share < 45.0  # paper: ~20.2%

    def test_fig2d_sync_grows_with_ops(self):
        result = ex.fig2d_sync_vs_ops(n_keys=KEYS, op_counts=(1000, 4000, 16_000))
        art_shares = [row[1] for row in result.rows]
        assert art_shares[-1] > art_shares[0]

    def test_fig2e_throughput_drops_with_writes(self):
        result = ex.fig2e_write_ratio(
            n_keys=KEYS, n_ops=OPS, write_ratios=(0.0, 0.5, 1.0)
        )
        for column in range(1, 4):
            series = [row[column] for row in result.rows]
            assert series[-1] < series[0]

    def test_fig3_observations(self):
        result = ex.fig3_distribution(n_keys=KEYS, n_ops=OPS)
        by_name = {row[0]: row for row in result.rows}
        assert by_name["IPGEO"][1] == "0x67"
        for row in result.rows:
            assert row[3] > 2.0  # skewed peak
            assert row[5] > 50.0  # node concentration


class TestHeadlineFigures:
    def test_table1(self):
        result = ex.table1_config()
        rendered = result.render()
        assert "16 x SOUs" in rendered
        assert "230 MHz" in rendered

    def test_fig7_contentions_reduced(self):
        result = ex.fig7_contentions(n_keys=KEYS, n_ops=OPS)
        for row in result.rows:
            assert row[-1] < 50.0  # DCART under half of the best baseline

    def test_fig8_matches_reduced(self):
        result = ex.fig8_matches(n_keys=KEYS, n_ops=OPS)
        for row in result.rows:
            pct_art = row[-3]
            assert pct_art < 30.0

    def test_fig9_ordering(self):
        result = ex.fig9_performance(n_keys=KEYS, n_ops=OPS)
        for row in result.rows:
            art_ms, heart_ms, smart_ms, cuart_ms, dcartc_ms, dcart_ms = row[1:7]
            assert dcart_ms < cuart_ms < smart_ms < heart_ms < art_ms

    def test_fig10_dcart_dominates(self):
        result = ex.fig10_throughput_latency(
            n_keys=KEYS, op_counts=(2000, 8000), workloads=("IPGEO",)
        )
        by_engine = {}
        for _, n_ops, engine, mops, p99 in result.rows:
            by_engine.setdefault(engine, []).append((mops, p99))
        best_baseline_mops = max(m for m, _ in by_engine["SMART"])
        assert all(m > best_baseline_mops for m, _ in by_engine["DCART"])

    def test_fig11_energy_ordering(self):
        result = ex.fig11_energy(n_keys=KEYS, n_ops=OPS)
        for row in result.rows:
            savings = row[7:]
            assert all(s > 1.0 for s in savings)

    def test_fig12a_advantage_grows(self):
        result = ex.fig12a_op_sensitivity(n_keys=KEYS, op_counts=(1000, 16_000))
        assert result.rows[-1][-1] > result.rows[0][-1]

    def test_fig12b_advantage_grows_with_writes(self):
        result = ex.fig12b_mix_sensitivity(n_keys=KEYS, n_ops=OPS)
        speedup_a = result.rows[0][-1]
        speedup_e = result.rows[-1][-1]
        assert speedup_e > speedup_a

    def test_ablation_rows(self):
        result = ex.ablation(n_keys=KEYS, n_ops=OPS)
        variants = [row[0] for row in result.rows]
        assert variants == [
            "DCART", "no-shortcuts", "no-combining", "no-overlap", "lru-tree-buffer",
        ]
        base = result.rows[0]
        no_combining = result.rows[2]
        assert no_combining[4] > base[4]  # more contentions

    def test_render_produces_table(self):
        result = ex.table1_config()
        assert "parameter" in result.render()


def _read_csv(text):
    """Data rows of experiment CSV, the ``#`` comment lines skipped."""
    return list(
        csv.reader(line for line in text.splitlines() if not line.startswith("#"))
    )


class TestCsvExport:
    def make_result(self):
        return ex.ExperimentResult(
            experiment="Fig. X",
            headers=["workload", "value"],
            rows=[["IPGEO", 1.5], ["DICT", 2]],
            notes="a note",
        )

    def test_round_trip(self):
        text = ex.experiment_to_csv(self.make_result())
        assert _read_csv(text) == [
            ["workload", "value"], ["IPGEO", "1.5"], ["DICT", "2"],
        ]

    def test_comment_lines(self):
        text = ex.experiment_to_csv(self.make_result())
        assert text.startswith("# experiment: Fig. X")
        assert "# notes: a note" in text

    def test_write_to_file_object(self):
        buffer = io.StringIO()
        text = ex.experiment_to_csv(self.make_result(), buffer)
        assert buffer.getvalue() == text
        assert "IPGEO" in text

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "fig.csv"
        text = ex.experiment_to_csv(self.make_result(), str(path))
        assert path.read_text() == text
        assert len(_read_csv(path.read_text())) == 3

    def test_bad_rows_rejected(self):
        bad = ex.ExperimentResult("X", ["a", "b"], [["only-one"]])
        with pytest.raises(SimulationError):
            ex.experiment_to_csv(bad)

    def test_headerless_experiment_rejected(self):
        with pytest.raises(SimulationError):
            ex.experiment_to_csv(ex.ExperimentResult("X", [], []))
