"""Benchmarking layer: trajectory file, regression gate, measurement.

The regression check is the piece CI leans on, so it gets synthetic
histories covering: improvement, within-threshold noise, a real
regression, mode separation (quick entries never judged against full
ones), and the no-baseline case.  The measurement path runs against a
monkeypatched tiny spec so the unit tests stay fast.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.harness import benchmarking
from repro.harness.benchmarking import (
    append_entry,
    bench_engine,
    bench_workload,
    check_regression,
    format_entry,
    git_sha,
    load_trajectory,
    run_bench,
)
from tests.strategies import damaged

TINY_SPEC = {
    "name": "IPGEO",
    "n_keys": 400,
    "n_ops": 1_000,
    "seed": 5,
    "op_skew": 0.99,
}


def _entry(mode="full", **rates):
    return {
        "git_sha": "0" * 40,
        "timestamp": "2026-08-06T00:00:00Z",
        "mode": mode,
        "workload": dict(TINY_SPEC),
        "engines": {
            name: {
                "sim_ops_per_sec": rate,
                "wall_seconds": 1.0,
                "peak_rss_bytes": 1,
                "sim_throughput_mops": 1.0,
            }
            for name, rate in rates.items()
        },
    }


class TestCheckRegression:
    def test_improvement_passes(self):
        ok, messages = check_regression(
            _entry(DCART=150_000.0), [_entry(DCART=50_000.0)]
        )
        assert ok
        assert any("3.00x" in line for line in messages)

    def test_noise_within_threshold_passes(self):
        ok, _ = check_regression(
            _entry(DCART=81_000.0), [_entry(DCART=100_000.0)]
        )
        assert ok

    def test_real_regression_fails(self):
        ok, messages = check_regression(
            _entry(DCART=79_000.0), [_entry(DCART=100_000.0)]
        )
        assert not ok
        assert any("REGRESSION" in line for line in messages)

    def test_compared_against_best_prior_not_latest(self):
        history = [_entry(DCART=100_000.0), _entry(DCART=60_000.0)]
        ok, _ = check_regression(_entry(DCART=79_000.0), history)
        assert not ok

    def test_modes_never_cross_compare(self):
        # A slow quick entry must not be judged against a full baseline.
        ok, messages = check_regression(
            _entry(mode="quick", DCART=10_000.0), [_entry(DCART=100_000.0)]
        )
        assert ok
        assert any("no quick baseline" in line for line in messages)

    def test_mixed_schema_history_is_skipped_not_crashed(self):
        # A real trajectory accumulates entries across schema epochs:
        # pre-sim_ops_per_sec samples, failed samples recorded as None,
        # and even non-dict junk.  The gate must judge against the valid
        # entries only and say what it skipped.
        history = [
            _entry(DCART=100_000.0),
            {  # older schema: engine sample lacks sim_ops_per_sec
                "git_sha": "1" * 40,
                "mode": "full",
                "engines": {"DCART": {"ops_per_sec": 999_999.0}},
            },
            {  # failed sample: rate recorded as None
                "git_sha": "2" * 40,
                "mode": "full",
                "engines": {"DCART": {"sim_ops_per_sec": None}},
            },
            {"mode": "full", "engines": "not-a-dict"},
            "not-even-a-dict",
        ]
        ok, messages = check_regression(_entry(DCART=95_000.0), history)
        assert ok
        assert any("skipped 2" in line for line in messages)
        # The judged baseline is the one valid entry, not the junk.
        assert any("100,000" in line for line in messages)

    def test_new_engine_has_no_baseline(self):
        ok, messages = check_regression(
            _entry(SMART=5.0), [_entry(DCART=100_000.0)]
        )
        assert ok
        assert any("no full baseline" in line for line in messages)


class TestTrajectoryFile:
    def test_missing_file_is_empty_history(self, tmp_path):
        doc = load_trajectory(str(tmp_path / "absent.json"))
        assert doc == {"schema": 1, "history": []}

    def test_append_round_trips(self, tmp_path):
        path = str(tmp_path / "BENCH_speed.json")
        append_entry(path, _entry(DCART=1.0))
        append_entry(path, _entry(DCART=2.0))
        doc = load_trajectory(path)
        rates = [
            e["engines"]["DCART"]["sim_ops_per_sec"] for e in doc["history"]
        ]
        assert rates == [1.0, 2.0]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigError):
            load_trajectory(str(path))

    def test_append_fsyncs_before_rename(self, tmp_path, monkeypatch):
        # DUR01: the tmp file must hit the platter before os.replace
        # publishes it, else a crash can tear the trajectory.
        import os as os_mod

        events = []
        real_fsync, real_replace = os_mod.fsync, os_mod.replace
        monkeypatch.setattr(
            benchmarking.os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            benchmarking.os, "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        append_entry(str(tmp_path / "BENCH_speed.json"), _entry(DCART=1.0))
        assert events == ["fsync", "replace"]

    def test_corrupt_file_is_config_error_not_traceback(self, tmp_path):
        # A truncated/torn BENCH_speed.json (e.g. a pre-fsync crash on
        # an older build) must surface as ConfigError with a recovery
        # hint, not leak json.JSONDecodeError to the caller.
        path = tmp_path / "BENCH_speed.json"
        path.write_text('{"schema": 1, "history": [{"git_sha')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_trajectory(str(path))

    def test_non_list_history_rejected(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        path.write_text(json.dumps({"schema": 1, "history": {"a": 1}}))
        with pytest.raises(ConfigError):
            load_trajectory(str(path))

    def test_invalid_utf8_is_config_error(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        path.write_bytes(b'{"schema": 1, "history": ["\xff"]}')
        with pytest.raises(ConfigError, match="corrupt"):
            load_trajectory(str(path))

    def test_directory_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_trajectory(str(tmp_path))


@pytest.fixture(scope="module")
def trajectory_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("trajectory") / "BENCH_speed.json"
    append_entry(str(path), _entry(DCART=1.0, ART=2.0))
    append_entry(str(path), _entry(mode="quick", DCART=3.0))
    return path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_trajectory_loads_or_raises_config_error(trajectory_path, data):
    saved = trajectory_path.read_bytes()
    path = trajectory_path.with_name("damaged.json")
    path.write_bytes(data.draw(damaged(saved)))
    try:
        doc = load_trajectory(str(path))
    except ConfigError:
        return
    assert isinstance(doc["history"], list)


class TestMeasurement:
    @pytest.fixture(autouse=True)
    def tiny_spec(self, monkeypatch):
        monkeypatch.setattr(benchmarking, "QUICK_SPEC", dict(TINY_SPEC))

    def test_bench_engine_measures(self):
        workload = bench_workload(quick=True)
        sample = bench_engine("DCART", workload, TINY_SPEC["n_keys"])
        assert sample.wall_seconds > 0.0
        assert sample.sim_ops_per_sec > 0.0
        assert sample.peak_rss_bytes > 0
        assert sample.sim_throughput_mops > 0.0

    def test_repeats_must_be_positive(self):
        workload = bench_workload(quick=True)
        with pytest.raises(ConfigError):
            bench_engine("DCART", workload, TINY_SPEC["n_keys"], repeats=0)

    def test_best_of_n_keeps_a_single_run(self):
        workload = bench_workload(quick=True)
        sample = bench_engine(
            "DCART", workload, TINY_SPEC["n_keys"], repeats=3
        )
        # Best-of-3 reports ONE run's wall time, not a sum of three.
        single = bench_engine("DCART", workload, TINY_SPEC["n_keys"])
        assert sample.wall_seconds <= single.wall_seconds * 2

    def test_workload_cache_round_trips(self, tmp_path):
        fresh = bench_workload(quick=True, cache_dir=str(tmp_path))
        cached = bench_workload(quick=True, cache_dir=str(tmp_path))
        assert len(list(tmp_path.glob("bench-quick-*.jsonl"))) == 1
        assert [op.key for op in fresh.operations] == [
            op.key for op in cached.operations
        ]
        assert [op.kind for op in fresh.operations] == [
            op.kind for op in cached.operations
        ]

    def test_run_bench_entry_shape(self, tmp_path):
        entry = run_bench(
            engines=("DCART",), quick=True, cache_dir=str(tmp_path)
        )
        assert entry["mode"] == "quick"
        assert entry["workload"] == TINY_SPEC
        assert set(entry["engines"]) == {"DCART"}
        assert entry["git_sha"] == git_sha() != "unknown"
        rendered = format_entry(entry)
        assert "DCART" in rendered
        assert entry["git_sha"][:12] in rendered
