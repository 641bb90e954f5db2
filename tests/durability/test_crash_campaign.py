"""The crash–recover–validate loop (acceptance criterion of the issue).

The smoke class pins every kill point of the matrix once at small scale;
the chaos-marked campaign runs the full >= 50 seeded random crash points
and demands EXACT recovery on every single one.
"""

import os
import tempfile

import pytest

from repro.experiments import CampaignSpec, ResultStore, build_report, run_campaign
from repro.harness import resilience


class TestCrashMatrixSmoke:
    @pytest.mark.parametrize("point", resilience.CRASH_MATRIX)
    def test_each_point_recovers_exactly(self, point):
        outcome = resilience.crash_recover_verify(
            seed=11,
            crash_point=point,
            crash_batch=2,
            n_keys=800,
            n_ops=6_000,
            checkpoint_every=2,
        )
        assert outcome.crashed, point
        assert outcome.validation.ok, outcome.summary()
        assert outcome.state_matches, outcome.summary()
        assert outcome.ok

    def test_wal_crashes_lose_only_the_tail(self):
        # A WAL-protocol crash in batch 2 must keep batches 0..1.
        outcome = resilience.crash_recover_verify(
            seed=11,
            crash_point="wal-pre-commit",
            crash_batch=2,
            n_keys=800,
            n_ops=6_000,
            checkpoint_every=2,
        )
        assert outcome.committed_through == 1
        assert outcome.uncommitted_ops_skipped > 0

    def test_torn_commit_is_detected(self):
        outcome = resilience.crash_recover_verify(
            seed=11,
            crash_point="wal-torn-commit",
            crash_batch=1,
            n_keys=800,
            n_ops=6_000,
            checkpoint_every=2,
        )
        assert outcome.torn_tail_detected
        assert outcome.ok

    def test_scratch_directory_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        outcome = resilience.crash_recover_verify(
            seed=11, n_keys=800, n_ops=6_000
        )
        assert outcome.ok
        assert not os.listdir(tmp_path)
        # A directory the caller names is the caller's: it is kept.
        kept = str(tmp_path / "kept")
        resilience.crash_recover_verify(
            seed=11, directory=kept, n_keys=800, n_ops=6_000
        )
        assert os.listdir(kept)


@pytest.mark.chaos
class TestCrashCampaign:
    def test_fifty_random_crash_points_all_exact(self):
        spec = CampaignSpec(
            name="crash-fifty", engines=("DCART",), workloads=("IPGEO",),
            seeds=tuple(range(1, 51)), n_keys=resilience.DEFAULT_KEYS,
            n_ops=resilience.DEFAULT_OPS, faults=("crash",),
        )
        with ResultStore(":memory:") as store:
            run_campaign(spec, store, git_sha="unstamped")
            report = build_report(spec, store, git_sha="unstamped")
        assert report["complete"]
        (row,) = report["rows"]
        verdict = row["verdict"]
        assert verdict["trials"] == 50
        assert verdict["ok"], verdict
        assert verdict["tree_valid"] == 50, verdict
        assert verdict["exact"] == 50, verdict
        # The seeded draw must exercise the whole matrix, not one corner.
        points = {run["crash_point"] for run in verdict["runs"]}
        assert points == set(resilience.CRASH_MATRIX)
