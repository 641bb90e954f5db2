"""Simulator speed, measured one way: paired A/B runs of perfbench.

This is about how fast the *simulator itself* runs, not the modelled
hardware throughput.  :func:`ab_compare` (``repro bench --ab REV``)
checks REV and a snapshot of the checkout out into two sibling git
worktrees and runs ``perfbench/run.py`` on every ``BENCHMARK.json``
workload in both trees, pair after pair; :func:`verdict` judges each
end-to-end metric by its ``better`` and ``bound`` there.
``BENCH_speed.json`` at the repo root is the append-only trajectory of
recorded comparisons (schema-2 entries; entries without a ``schema``
key are schema-1 samples of a retired timer).  docs/PERFORMANCE.md has
the method and the schema.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError

BENCH_FILENAME = "BENCH_speed.json"

#: The root of the checkout that holds this package (src/repro/harness).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)))

#: The two trees of a comparison; pair 0 runs them in this order.
SIDES = ("parent", "change")

#: Fewest pairs from which a metric can read ``gain``.
MIN_GAIN_PAIRS = 10


class RunFailed(ReproError):
    """A perfbench run on either side failed or reported a wrong output."""


@dataclass(frozen=True)
class Run:
    """One perfbench invocation: its end-to-end metrics and digest.

    ``problem`` is empty for a run that counts; otherwise it says why
    the run does not (non-zero exit, ``correct: false``, failed ops).
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    problem: str = ""


#: ``runner(tree, workload)``: one perfbench run of ``workload`` in the
#: checkout rooted at ``tree``.
Runner = Callable[[str, str], Run]


def peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes.

    Prefers ``VmHWM`` from ``/proc/self/status``; falls back to
    ``ru_maxrss`` where procfs is unavailable.  ``ru_maxrss`` is
    kilobytes on Linux and bytes on macOS; normalise to bytes.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":  # pragma: no cover - linux CI
        return maxrss
    return maxrss * 1024


def _git(
    repo_dir: str, *args: str, env: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """Stripped stdout of ``git -C repo_dir ARGS``, or None if it fails."""
    try:
        proc = subprocess.run(
            ["git", "-C", repo_dir, *args],
            capture_output=True, text=True, timeout=60, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _is_checkout(repo_dir: str) -> bool:
    """True when ``repo_dir`` is the top level of a git work tree."""
    top = _git(repo_dir, "rev-parse", "--show-toplevel")
    return top is not None and os.path.realpath(top) == os.path.realpath(repo_dir)


def git_sha(repo_dir: Optional[str] = None) -> str:
    """The commit of ``repo_dir`` (default: the checkout running this code).

    Git never runs in the working directory, so the stamp is the same
    wherever the command was started; ``"unknown"`` when ``repo_dir`` is
    not the top of a git checkout (an installed package).  A ``-dirty``
    suffix marks uncommitted changes, so an entry never claims a commit
    whose code it did not run.
    """
    repo_dir = REPO_ROOT if repo_dir is None else repo_dir
    sha = _git(repo_dir, "rev-parse", "HEAD") if _is_checkout(repo_dir) else None
    if sha is None:
        return "unknown"
    if _git(repo_dir, "status", "--porcelain"):
        sha += "-dirty"
    return sha


def utc_stamp() -> str:
    """The current UTC time as an ISO-8601 string.

    The one sanctioned wall-clock read for harness stamping (this module
    is DET02's whitelisted home for host-side time): trajectory entries
    and campaign-store rows both stamp through here, and deterministic
    modes (``--no-stamp``) simply never call it.
    """
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_trajectory(path: str) -> Dict[str, Any]:
    """Read ``BENCH_speed.json`` (empty trajectory if absent).

    A torn or otherwise undecodable file surfaces as
    :class:`~repro.errors.ConfigError`, not a raw ``JSONDecodeError``
    traceback — the CLI turns it into a one-line message and exit 2, and
    the fix path (delete or restore the file) is the same either way.
    """
    if not os.path.exists(path):
        return {"schema": 1, "history": []}
    try:
        with open(path, "rb") as handle:
            doc = json.loads(handle.read().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(
            f"{path} is corrupt (not valid JSON: {exc}); delete it or "
            f"restore it from version control"
        ) from exc
    if not isinstance(doc, dict) or "history" not in doc:
        raise ConfigError(f"{path} is not a bench trajectory file")
    if not isinstance(doc["history"], list):
        raise ConfigError(f"{path} history is not a list")
    return doc


def append_entry(path: str, entry: Dict[str, Any]) -> None:
    """Append one entry to the trajectory file (atomic rewrite).

    Follows the fsync-before-rename protocol (reprolint DUR01): the
    temp file is flushed and fsynced before ``os.replace`` publishes it,
    so a crash leaves either the old complete trajectory or the new one
    — never a torn file at the final name.
    """
    doc = load_trajectory(path)
    doc["history"].append(entry)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def parse_run(returncode: int, stdout: str, stderr: str) -> Run:
    """Read one perfbench invocation's exit code and output.

    The metrics come from the JSON object on the last line; the digest
    from the human-readable ``digest`` line above it.
    """
    if returncode != 0:
        last = (stderr.strip().splitlines() or ["no output on stderr"])[-1]
        return Run(problem=f"exit {returncode}: {last}")
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        metrics = {k: float(m["value"]) for k, m in doc["metrics"].items()}
        digest = next(line.split(None, 1)[1] for line in map(str.strip, lines)
                      if line.startswith("digest "))
        correct, failed = doc["correct"], doc["failed"]
    except (IndexError, KeyError, TypeError, ValueError, StopIteration):
        return Run(problem="unreadable perfbench output")
    if not correct:
        return Run(metrics, digest, "correct: false")
    if failed:
        return Run(metrics, digest, f"{failed} failed ops")
    return Run(metrics, digest)


def perfbench_runner(command: Sequence[str], seconds: float) -> Runner:
    """Run ``command`` (BENCHMARK.json's) under this interpreter.

    ``PYTHONPATH`` is dropped from the child's environment: perfbench
    puts its own tree's ``src`` on the path, and an inherited entry
    could make one side import the other's code.
    """
    argv = [sys.executable, *command[1:]]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def run(tree: str, workload: str) -> Run:
        proc = subprocess.run(
            argv + ["--workload", workload, "--seconds", f"{seconds:g}",
                    "--trace", "0"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        return parse_run(proc.returncode, proc.stdout, proc.stderr)

    return run


def run_pairs(
    trees: Dict[str, str], workloads: Sequence[str], pairs: int, runner: Runner,
    progress: Callable[[str], None] = lambda line: None,
) -> Dict[str, Dict[str, List[Run]]]:
    """``pairs`` paired runs per workload: ``{workload: {side: [Run]}}``.

    The two runs of a workload are back to back, and the side that goes
    first alternates from pair to pair.  The first run that does not
    count raises :class:`RunFailed`.
    """
    runs = {w: {s: [] for s in SIDES} for w in workloads}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = runner(trees[side], workload)
                where = f"{side} run of {workload} in pair {pair + 1}/{pairs}"
                if run.problem:
                    raise RunFailed(f"{where} failed: {run.problem}")
                runs[workload][side].append(run)
                progress(f"{where}: digest {run.digest}")
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (inclusive method; one value: itself)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs the change wins; a tie counts for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """Judge paired values of one metric; the first matching rule wins.

    1. ``worse``: the change median is worse than the parent median by
       more than ``bound`` times the parent median.
    2. ``unresolved``: the parent's IQR exceeds ``bound`` times its
       median, and not every change run beats every parent run.
    3. ``gain``: at least ten pairs ran, the change wins at least 9 of
       10 of them, and the medians differ by more than the parent's IQR
       in the better direction.  With fewer pairs 9/10 means every pair,
       which noise meets too often to support a claim.
    4. ``same``: none of the above.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(p_med) and not beats_all:
        return "unresolved"
    if len(parent) >= MIN_GAIN_PAIRS \
            and 10 * wins(parent, change, better) >= 9 * len(parent) \
            and sign * (c_med - p_med) > q3 - q1:
        return "gain"
    return "same"


def summarize(
    runs: Dict[str, Dict[str, List[Run]]], end_to_end: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Per workload: both sides' digests and every metric's verdict."""
    out: Dict[str, Any] = {}
    for workload, sides in runs.items():
        metrics = {}
        for spec in end_to_end:
            name, better = spec["name"], spec["better"]
            parent = [r.metrics[name] for r in sides["parent"]]
            change = [r.metrics[name] for r in sides["change"]]
            p_med = statistics.median(parent)
            metrics[name] = {
                "parent": parent,
                "change": change,
                "ratio": statistics.median(change) / p_med if p_med else None,
                "wins": wins(parent, change, better),
                "verdict": verdict(parent, change, better, spec["bound"]),
            }
        digests = {s: " ".join(sorted({r.digest for r in sides[s]})) for s in SIDES}
        out[workload] = {"digest": digests, "metrics": metrics}
    return out


def snapshot(root: str, index: str) -> str:
    """Commit the checkout at ``root`` as it stands, leaving it untouched.

    ``git add -A`` into a temporary index at ``index`` takes uncommitted
    edits and untracked, non-ignored files; ``write-tree`` and
    ``commit-tree`` on HEAD make a commit no ref points to.  The user's
    index, stash and branches do not change.
    """
    env = dict(
        os.environ, GIT_INDEX_FILE=index,
        GIT_AUTHOR_NAME="repro bench", GIT_AUTHOR_EMAIL="repro-bench@localhost",
        GIT_COMMITTER_NAME="repro bench",
        GIT_COMMITTER_EMAIL="repro-bench@localhost",
    )
    tree = None
    if _git(root, "add", "-A", env=env) is not None:
        tree = _git(root, "write-tree", env=env)
    sha = None
    if tree:
        sha = _git(
            root, "commit-tree", tree, "-p", "HEAD", "-m", "repro bench change",
            env=env,
        )
    if not sha:
        raise ConfigError(f"cannot snapshot the checkout at {root}")
    return sha


@contextmanager
def ab_trees(root: str, parent_sha: str) -> Iterator[Dict[str, str]]:
    """``{side: tree}``: sibling worktrees ``<scratch>/parent`` and ``/change``.

    The parent tree checks ``parent_sha`` out; the change tree checks out
    a :func:`snapshot` of the checkout.  Both paths have the same length,
    since perfbench's peak RSS moves with the length of the tree's path.
    Both worktrees and their directory are removed on every exit path.
    """
    scratch = tempfile.mkdtemp(prefix="repro-bench-")
    trees = {side: os.path.join(scratch, side) for side in SIDES}
    try:
        shas = {
            "parent": parent_sha,
            "change": snapshot(root, os.path.join(scratch, "index")),
        }
        for side in SIDES:
            path = trees[side]
            if _git(root, "worktree", "add", "--detach", path, shas[side]) is None:
                raise ConfigError(f"cannot check {shas[side][:12]} out into {path}")
        yield trees
    finally:
        for path in trees.values():
            _git(root, "worktree", "remove", "--force", path)
        shutil.rmtree(scratch, ignore_errors=True)
        _git(root, "worktree", "prune")


def ab_compare(
    rev: str,
    pairs: int,
    runner: Optional[Runner] = None,
    root: Optional[str] = None,
    progress: Callable[[str], None] = lambda line: None,
) -> Dict[str, Any]:
    """Compare the checkout at ``root`` (the change) with ``rev``.

    Returns the schema-2 trajectory entry.  Bad input raises
    :class:`ConfigError` before any run; a run that does not count
    raises :class:`RunFailed`.
    """
    root = REPO_ROOT if root is None else root
    if pairs < 1:
        raise ConfigError(f"--pairs must be >= 1: {pairs}")
    if not _is_checkout(root):
        raise ConfigError(f"--ab needs a git checkout; {root} is not one")
    sha = _git(root, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if sha is None:
        raise ConfigError(f"{rev!r} does not resolve to a commit")
    if _git(root, "cat-file", "-e", f"{sha}:perfbench/run.py") is None:
        raise ConfigError(f"{rev} ({sha[:12]}) has no perfbench/run.py")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if runner is None:
        runner = perfbench_runner(bench["command"], bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    change_sha = git_sha(root)
    with ab_trees(root, sha) as trees:
        runs = run_pairs(trees, workloads, pairs, runner, progress)
    return {
        "schema": 2,
        "git_sha": change_sha,
        "base_sha": sha,
        "timestamp": utc_stamp(),
        "pairs": pairs,
        "run_seconds": bench["run_seconds"],
        "workloads": summarize(runs, bench["end_to_end"]),
    }


def worse_verdicts(entry: Dict[str, Any]) -> List[str]:
    """``workload metric`` for every ``worse`` verdict of a schema-2 entry."""
    return [
        f"{workload} {name}"
        for workload, doc in entry["workloads"].items()
        for name, metric in doc["metrics"].items()
        if metric["verdict"] == "worse"
    ]


def render(entry: Dict[str, Any]) -> str:
    """A schema-2 entry as a Markdown table plus one digest line a workload."""

    def spread(values: List[float]) -> str:
        q1, q3 = quartiles(values)
        return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"

    change = entry["git_sha"]
    lines = [
        # [40:] keeps a "-dirty" suffix after the 40-hex SHA.
        f"parent {entry['base_sha'][:12]}, change {change[:12]}{change[40:]}: "
        f"{entry['pairs']} pairs, {entry['run_seconds']} s a run",
        "",
        "| workload | metric | parent median [q1, q3] "
        "| change median [q1, q3] | ratio | change wins | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    digests = []
    for workload, doc in entry["workloads"].items():
        for name, m in doc["metrics"].items():
            ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
            lines.append(
                f"| {workload} | {name} | {spread(m['parent'])} "
                f"| {spread(m['change'])} | {ratio} "
                f"| {m['wins']}/{len(m['parent'])} | {m['verdict']} |"
            )
        parent, change = doc["digest"]["parent"], doc["digest"]["change"]
        digests.append(
            f"digest {workload}: parent {parent}, change {change}"
            + ("" if parent == change else "  (moved)")
        )
    return "\n".join(lines + [""] + digests)
