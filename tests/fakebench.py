"""A throwaway git checkout and a fake perfbench, for ``repro bench --ab``.

The fake runner returns constructed perfbench output, so tests of the
A/B driver run no real benchmark.
"""

import json
import os
import shutil
import subprocess

from repro.harness.benchmarking import REPO_ROOT, parse_run

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: The end-to-end metric specs of BENCHMARK.json, by name.
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def git(root, *args):
    return subprocess.run(
        ["git", "-C", str(root), *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def commit(root, message):
    git(root, "add", "-A")
    git(root, "-c", "user.name=t", "-c", "user.email=t@t",
        "commit", "-q", "-m", message)


def make_repo(root):
    """A committed checkout at ``root`` with BENCHMARK.json and perfbench."""
    os.makedirs(os.path.join(root, "perfbench"))
    with open(os.path.join(root, "perfbench", "run.py"), "w"):
        pass
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), root)
    git(root, "init", "-q")
    commit(root, "base")
    return root


def worktree_count(root):
    return git(root, "worktree", "list", "--porcelain").count("worktree ")


def perfbench_stdout(digest="d1", correct=True, failed=0, **metrics):
    """Output shaped like ``perfbench/run.py --trace 0``; metrics default 1."""
    values = {name: 1.0 for name in END_TO_END}
    values.update(metrics)
    doc = {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
    }
    return (
        "perfbench w seed=1 trace=0 reps=3 (0 traced)\n"
        f"  digest {digest}\n"
        + json.dumps(doc) + "\n"
    )


class FakeRunner:
    """Stands in for perfbench: per-side output of :func:`perfbench_stdout`.

    Each side runs in its own worktree outside the checkout at ``root``,
    named after the side and holding perfbench; ``trees`` records them.
    """

    def __init__(self, root, change=None, parent=None):
        self.root = str(root)
        self.out = {"change": change or {}, "parent": parent or {}}
        self.trees = {}

    def __call__(self, tree, workload):
        side = os.path.basename(tree)
        assert os.path.isfile(os.path.join(tree, "perfbench", "run.py"))
        assert not tree.startswith(self.root)
        self.trees.setdefault(side, set()).add(tree)
        return parse_run(0, perfbench_stdout(**self.out[side]), "")
