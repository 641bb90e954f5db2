"""Benchmarking layer: trajectory file, git stamp and the paired A/B driver.

The driver is tested with a fake runner in place of perfbench, so no
test here runs a real benchmark: run order, verdicts on constructed
values, failed runs, moved digests, ``--record`` and the worktree's
lifecycle in a throwaway git repository.
"""

import json
import os
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.harness import benchmarking
from repro.harness.benchmarking import (
    REPO_ROOT,
    Run,
    RunFailed,
    ab_compare,
    append_entry,
    git_sha,
    load_trajectory,
    parse_run,
    run_pairs,
    verdict,
    worse_verdicts,
)
from tests.fakebench import (
    END_TO_END,
    WORKLOADS,
    FakeRunner,
    commit,
    git,
    make_repo,
    perfbench_stdout,
    worktree_count,
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


def test_git_sha_stamps_the_checkout_not_the_working_directory(
    tmp_path, monkeypatch
):
    # Started outside the repository, the stamp still names the code
    # that is running, never another repository's HEAD.  A source export
    # (no .git) is not a checkout, and there the stamp is "unknown".
    monkeypatch.chdir(tmp_path)
    top = subprocess.run(
        ["git", "-C", REPO_ROOT, "rev-parse", "--show-toplevel"],
        capture_output=True, text=True,
    )
    in_checkout = top.returncode == 0 and (
        os.path.realpath(top.stdout.strip()) == os.path.realpath(REPO_ROOT)
    )
    if not in_checkout:
        assert git_sha() == "unknown"
        return
    want = git(REPO_ROOT, "rev-parse", "HEAD")
    if git(REPO_ROOT, "status", "--porcelain"):
        want += "-dirty"
    assert git_sha() == want


def test_git_sha_outside_a_checkout_is_unknown(tmp_path):
    assert git_sha(str(tmp_path)) == "unknown"


class TestVerdict:
    def test_higher_is_better_drop_beyond_the_bound_is_worse(self):
        spec = END_TO_END["sim_ops_per_s"]
        parent = [100.0, 101.0, 99.0, 100.0, 100.0]
        assert verdict(parent, [70.0] * 5, spec["better"], spec["bound"]) \
            == "worse"
        assert verdict(parent, [80.0] * 5, spec["better"], spec["bound"]) \
            == "same"

    def test_lower_is_better_metric(self):
        spec = END_TO_END["setup_s"]
        assert spec["better"] == "lower"
        parent = [2.0, 2.02, 1.98, 2.0, 2.01, 1.99, 2.0, 2.0, 2.03, 1.97]
        faster = [1.4] * 9 + [2.5]
        assert verdict(parent, faster, "lower", spec["bound"]) == "gain"
        slower = [p * 1.3 for p in parent]
        assert verdict(parent, slower, "lower", spec["bound"]) == "worse"
        # The same drop in a higher-is-better metric is worse.
        assert verdict(parent, faster, "higher", spec["bound"]) == "worse"

    def test_tied_pairs_count_for_neither_side(self):
        parent = [10.0] * 10
        assert verdict(parent, list(parent), "higher", 0.2) == "same"
        assert benchmarking.wins(parent, list(parent), "higher") == 0
        # 8 wins and 2 ties is below 9/10: not a gain.
        change = [11.0] * 8 + [10.0] * 2
        assert benchmarking.wins(parent, change, "higher") == 8
        assert verdict(parent, change, "higher", 0.2) == "same"
        assert verdict(parent, [11.0] * 9 + [10.0], "higher", 0.2) == "gain"

    def test_gain_must_clear_the_parent_iqr(self):
        parent = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 103.0, 97.0, 101.0, 99.0]
        change = [p + 1.0 for p in parent]
        assert benchmarking.wins(parent, change, "higher") == 10
        assert verdict(parent, change, "higher", 0.25) == "same"
        assert verdict(parent, [p + 10 for p in parent], "higher", 0.25) \
            == "gain"

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [50.0, 100.0, 150.0, 100.0, 60.0, 140.0, 55.0, 145.0, 90.0, 110.0]
        assert verdict(parent, [110.0] * 10, "higher", 0.25) == "unresolved"
        # Unless every change run beats every parent run.
        assert verdict(parent, [170.0] * 10, "higher", 0.25) == "gain"

    def test_fewer_than_ten_pairs_never_gain(self):
        # Winning 3 of 3 pairs meets "9 of 10" but is what noise does
        # one time in eight.
        parent = [100.0, 101.0, 99.0]
        assert verdict(parent, [150.0] * 3, "higher", 0.25) == "same"
        assert verdict(parent * 3, [150.0] * 9, "higher", 0.25) == "same"
        parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
        change = [150.0] * 9 + [90.0]
        assert benchmarking.wins(parent, change, "higher") == 9
        assert verdict(parent, change, "higher", 0.25) == "gain"

    def test_worse_is_tried_first(self):
        parent = [50.0, 100.0, 150.0, 100.0]
        assert verdict(parent, [10.0] * 4, "higher", 0.25) == "worse"


class TestParseRun:
    def test_reads_metrics_and_digest(self):
        run = parse_run(0, perfbench_stdout(digest="abc", sim_ops_per_s=5.0), "")
        assert run.problem == ""
        assert run.digest == "abc"
        assert run.metrics["sim_ops_per_s"] == 5.0

    @pytest.mark.parametrize("code, out, err, problem", [
        (1, "", "Traceback\nValueError: boom\n", "exit 1: ValueError: boom"),
        (0, perfbench_stdout(correct=False), "", "correct: false"),
        (0, perfbench_stdout(failed=3), "", "3 failed ops"),
        (0, "no json here\n", "", "unreadable perfbench output"),
    ])
    def test_runs_that_do_not_count(self, code, out, err, problem):
        assert parse_run(code, out, err).problem == problem


def test_first_side_alternates_and_a_workloads_runs_are_adjacent():
    calls = []

    def runner(tree, workload):
        calls.append((tree, workload))
        return Run({}, "d")

    run_pairs({"parent": "P", "change": "C"}, ["a", "b"], 3, runner)
    assert calls == [
        ("P", "a"), ("C", "a"), ("P", "b"), ("C", "b"),
        ("C", "a"), ("P", "a"), ("C", "b"), ("P", "b"),
        ("P", "a"), ("C", "a"), ("P", "b"), ("C", "b"),
    ]


@pytest.fixture
def repo(tmp_path):
    return make_repo(tmp_path / "repo")


class TestAbCompare:
    def test_entry_has_every_workload_and_metric(self, repo):
        runner = FakeRunner(repo, change={"sim_ops_per_s": 2.0})
        entry = ab_compare("HEAD", 10, runner=runner, root=str(repo))
        assert entry["schema"] == 2
        assert entry["base_sha"] == git(repo, "rev-parse", "HEAD")
        assert entry["git_sha"] == git_sha(str(repo))
        assert entry["pairs"] == 10
        assert list(entry["workloads"]) == WORKLOADS
        for doc in entry["workloads"].values():
            assert list(doc["metrics"]) == list(END_TO_END)
            ops = doc["metrics"]["sim_ops_per_s"]
            assert ops["parent"] == [1.0] * 10 and ops["change"] == [2.0] * 10
            assert ops["ratio"] == 2.0 and ops["wins"] == 10
            assert ops["verdict"] == "gain"
        assert worse_verdicts(entry) == []

    def test_worktree_is_gone_after_a_pass(self, repo):
        runner = FakeRunner(repo)
        ab_compare("HEAD", 1, runner=runner, root=str(repo))
        assert sorted(runner.trees) == ["change", "parent"]
        for (tree,) in runner.trees.values():
            assert not os.path.exists(os.path.dirname(tree))
        assert worktree_count(repo) == 1

    def test_sides_run_in_sibling_trees_of_equal_length(self, repo):
        # Peak RSS moves with the length of the tree's path, so neither
        # side may run from a shorter one.
        runner = FakeRunner(repo)
        ab_compare("HEAD", 2, runner=runner, root=str(repo))
        (parent,) = runner.trees["parent"]
        (change,) = runner.trees["change"]
        assert len(parent) == len(change)
        assert os.path.dirname(parent) == os.path.dirname(change)

    def test_uncommitted_work_reaches_the_change_tree_only(self, repo):
        with open(repo / "perfbench" / "run.py", "w") as handle:
            handle.write("edited\n")
        with open(repo / "untracked.txt", "w") as handle:
            handle.write("new\n")
        git(repo, "add", "perfbench/run.py")  # one staged, one not
        status = git(repo, "status", "--porcelain")
        branches = git(repo, "branch", "--list")
        seen = {}

        def runner(tree, workload):
            side = os.path.basename(tree)
            with open(os.path.join(tree, "perfbench", "run.py")) as handle:
                edited = handle.read()
            untracked = os.path.exists(os.path.join(tree, "untracked.txt"))
            seen[side] = (edited, untracked)
            return parse_run(0, perfbench_stdout(), "")

        ab_compare("HEAD", 1, runner=runner, root=str(repo))
        assert seen == {"parent": ("", False), "change": ("edited\n", True)}
        assert git(repo, "status", "--porcelain") == status
        assert git(repo, "branch", "--list") == branches
        assert git(repo, "stash", "list") == ""
        assert worktree_count(repo) == 1

    def test_worktree_is_gone_after_a_runner_exception(self, repo):
        trees = []

        def runner(tree, workload):
            trees.append(tree)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ab_compare("HEAD", 1, runner=runner, root=str(repo))
        assert not os.path.exists(os.path.dirname(trees[0]))
        assert worktree_count(repo) == 1

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_an_incorrect_run_on_either_side_fails(self, repo, side):
        runner = FakeRunner(repo, **{side: {"correct": False}})
        with pytest.raises(RunFailed, match=f"{side} run of .*correct: false"):
            ab_compare("HEAD", 1, runner=runner, root=str(repo))
        assert worktree_count(repo) == 1

    def test_slower_change_is_worse(self, repo):
        runner = FakeRunner(repo, change={"sim_ops_per_s": 0.5})
        entry = ab_compare("HEAD", 1, runner=runner, root=str(repo))
        assert worse_verdicts(entry) == [f"{w} sim_ops_per_s" for w in WORKLOADS]

    def test_bad_input_is_config_error(self, repo, tmp_path):
        runner = FakeRunner(repo)
        with pytest.raises(ConfigError, match="--pairs"):
            ab_compare("HEAD", 0, runner=runner, root=str(repo))
        with pytest.raises(ConfigError, match="does not resolve"):
            ab_compare("no-such-rev", 1, runner=runner, root=str(repo))
        with pytest.raises(ConfigError, match="git checkout"):
            ab_compare("HEAD", 1, runner=runner, root=str(tmp_path))
        os.remove(repo / "perfbench" / "run.py")
        commit(repo, "no perfbench")
        with pytest.raises(ConfigError, match="has no perfbench"):
            ab_compare("HEAD", 1, runner=runner, root=str(repo))
        assert not runner.trees
        assert worktree_count(repo) == 1
