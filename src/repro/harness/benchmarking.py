"""Simulator-speed benchmarking and the perf-regression trajectory.

This module measures how fast the *simulator itself* runs — wall-clock
sim-ops/second, not the modelled hardware throughput — so hot-path
regressions are caught before they merge.  The canonical artefact is
``BENCH_speed.json`` at the repo root: an append-only trajectory of
samples, one per recorded invocation, each stamped with the git SHA and
a timestamp.  CI runs ``repro bench --quick --check`` and fails when any
engine's sim-ops/sec drops more than :data:`REGRESSION_THRESHOLD` below
the best previous entry of the same mode.

Two workload specs are defined:

* the **reference** spec — the ISSUE's 1 M-op reference workload,
  used for recorded full runs;
* the **quick** spec — a 100 k-op slice of the same distribution for
  CI, where a full run would dominate the job.

Regression comparison only ever compares entries of the same mode, so a
quick CI sample is never judged against a full local one.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.harness.runner import default_engines
from repro.workloads import make_workload
from repro.workloads.ops import Workload

#: Fractional sim-ops/sec drop (vs the best prior same-mode entry) that
#: counts as a regression.  20 % leaves headroom for CI-runner noise.
REGRESSION_THRESHOLD = 0.20

#: The ISSUE's reference workload: 1 M ops, Zipf 0.99, 16 SOUs.
REFERENCE_SPEC = {
    "name": "IPGEO",
    "n_keys": 100_000,
    "n_ops": 1_000_000,
    "seed": 42,
    "op_skew": 0.99,
}

#: CI-sized slice of the same distribution.
QUICK_SPEC = {
    "name": "IPGEO",
    "n_keys": 20_000,
    "n_ops": 100_000,
    "seed": 42,
    "op_skew": 0.99,
}

#: Engines benchmarked by default: the pure-Python traversal engine and
#: the full accelerator model (the two extremes of the hot path).
DEFAULT_BENCH_ENGINES = ("ART", "DCART")

BENCH_FILENAME = "BENCH_speed.json"


@dataclass(frozen=True)
class BenchSample:
    """One engine's measurement inside one bench entry."""

    engine: str
    sim_ops_per_sec: float
    wall_seconds: float
    peak_rss_bytes: int
    sim_throughput_mops: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "sim_ops_per_sec": self.sim_ops_per_sec,
            "wall_seconds": self.wall_seconds,
            "peak_rss_bytes": self.peak_rss_bytes,
            "sim_throughput_mops": self.sim_throughput_mops,
        }


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS watermark for this process.

    Writing ``"5"`` to ``/proc/self/clear_refs`` zeroes ``VmHWM``, so
    the next :func:`peak_rss_bytes` reports the peak *since this reset*
    rather than the process-lifetime high-water mark — without it every
    engine benchmarked after the first inherits its predecessors' peak.
    A no-op where the procfs knob does not exist (macOS, restricted
    containers); there the lifetime fallback still applies.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:  # reprolint: disable=DUR01 -- procfs knob, not durable state; there is no file to tear
            handle.write("5")
    except OSError:  # pragma: no cover - non-linux / restricted
        pass


def peak_rss_bytes() -> int:
    """Peak resident set size in bytes since the last reset.

    Prefers ``VmHWM`` from ``/proc/self/status`` (resettable via
    :func:`reset_peak_rss`, so each engine's sample is its own); falls
    back to ``ru_maxrss`` where procfs is unavailable — a lifetime
    number that can only overstate.  ``ru_maxrss`` is kilobytes on
    Linux and bytes on macOS; normalise to bytes.
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


def git_sha(repo_dir: Optional[str] = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a checkout.

    A ``-dirty`` suffix marks measurements taken with uncommitted
    changes, so a trajectory entry never silently claims to describe a
    commit whose code it did not actually run.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:  # pragma: no cover - git missing
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    sha = out.stdout.strip()
    if status.returncode == 0 and status.stdout.strip():
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


def bench_workload(
    quick: bool = False, cache_dir: Optional[str] = None
) -> Workload:
    """Build (or load from ``cache_dir``) the benchmark workload.

    The cache keys on the spec values, so a stale cache from a different
    spec can never be replayed silently.
    """
    spec = QUICK_SPEC if quick else REFERENCE_SPEC
    if cache_dir is not None:
        from repro.workloads.trace import load_workload, save_workload

        tag = "quick" if quick else "full"
        stamp = "-".join(
            f"{key}={spec[key]}" for key in sorted(spec)
        ).replace("/", "_")
        path = os.path.join(cache_dir, f"bench-{tag}-{stamp}.jsonl")
        if os.path.exists(path):
            return load_workload(path)
        workload = make_workload(**spec)
        os.makedirs(cache_dir, exist_ok=True)
        save_workload(workload, path)
        return workload
    return make_workload(**spec)


def bench_engine(
    engine_name: str,
    workload: Workload,
    n_keys: int,
    repeats: int = 1,
) -> BenchSample:
    """Time one engine's timed phase on a prebuilt tree.

    Tree construction is excluded — the regression gate watches the
    per-operation hot path, and build time would dilute it.

    ``repeats`` runs the timed phase that many times and keeps the
    fastest wall time (best-of-N).  On shared or cgroup-throttled
    machines individual wall times can swing far more than any real
    code change; the minimum is the standard robust estimator because
    only slowdowns (scheduler preemption, throttling) perturb a run —
    nothing makes code run faster than it can.
    """
    engine = default_engines(n_keys, include=[engine_name])[0]
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1: {repeats}")
    reset_peak_rss()
    wall = None
    result = None
    for _ in range(repeats):
        tree = engine.build_tree(workload)
        start = time.perf_counter()
        result = engine.run(workload, tree=tree)
        elapsed = time.perf_counter() - start
        if wall is None or elapsed < wall:
            wall = elapsed
    n_ops = len(workload.operations)
    return BenchSample(
        engine=engine_name,
        sim_ops_per_sec=n_ops / wall if wall > 0 else 0.0,
        wall_seconds=wall,
        peak_rss_bytes=peak_rss_bytes(),
        sim_throughput_mops=result.throughput_mops,
    )


def run_bench(
    engines: Iterable[str] = DEFAULT_BENCH_ENGINES,
    quick: bool = False,
    cache_dir: Optional[str] = None,
    repeats: int = 1,
) -> Dict[str, object]:
    """Benchmark ``engines`` on the reference (or quick) workload.

    Returns one trajectory entry: git SHA, timestamp, mode, workload
    spec, and a per-engine sample dict.
    """
    spec = QUICK_SPEC if quick else REFERENCE_SPEC
    workload = bench_workload(quick=quick, cache_dir=cache_dir)
    samples = {}
    for name in engines:
        samples[name] = bench_engine(
            name, workload, spec["n_keys"], repeats=repeats
        ).to_dict()
    return {
        "git_sha": git_sha(),
        "timestamp": utc_stamp(),
        "mode": "quick" if quick else "full",
        "workload": dict(spec),
        "engines": samples,
    }


def load_trajectory(path: str) -> Dict[str, object]:
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


def append_entry(path: str, entry: Dict[str, object]) -> None:
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


def check_regression(
    entry: Dict[str, object],
    history: List[Dict[str, object]],
    threshold: float = REGRESSION_THRESHOLD,
) -> Tuple[bool, List[str]]:
    """Compare ``entry`` against the best same-mode history entries.

    For each engine in ``entry``, find the best prior sim-ops/sec among
    history entries of the same mode that measured that engine; flag a
    regression when the new number is more than ``threshold`` below it.
    Returns ``(ok, messages)`` where messages describe each comparison.

    History entries from an older schema — or failed samples that never
    recorded a rate — are skipped with a message rather than crashing
    the gate mid-check: a decade-old trajectory must never be able to
    take down today's CI run.
    """
    mode = entry["mode"]
    messages: List[str] = []
    ok = True
    for engine, sample in entry["engines"].items():
        best = None
        skipped = 0
        for prior in history:
            if not isinstance(prior, dict) or prior.get("mode") != mode:
                continue
            engines = prior.get("engines")
            if not isinstance(engines, dict):
                continue
            prior_sample = engines.get(engine)
            if prior_sample is None:
                continue
            rate = (
                prior_sample.get("sim_ops_per_sec")
                if isinstance(prior_sample, dict)
                else None
            )
            if not isinstance(rate, (int, float)):
                skipped += 1
                continue
            if best is None or rate > best:
                best = rate
        if skipped:
            messages.append(
                f"{engine}: skipped {skipped} history "
                f"entr{'y' if skipped == 1 else 'ies'} without "
                f"sim_ops_per_sec (older schema or failed sample)"
            )
        new_rate = sample["sim_ops_per_sec"]
        if best is None:
            messages.append(
                f"{engine}: {new_rate:,.0f} sim-ops/s (no {mode} baseline)"
            )
            continue
        ratio = new_rate / best if best > 0 else float("inf")
        line = (
            f"{engine}: {new_rate:,.0f} sim-ops/s vs best {best:,.0f} "
            f"({ratio:.2f}x)"
        )
        if ratio < 1.0 - threshold:
            ok = False
            line += f"  REGRESSION (> {threshold:.0%} below best)"
        messages.append(line)
    return ok, messages


def format_entry(entry: Dict[str, object]) -> str:
    """Human-readable rendering of one trajectory entry."""
    lines = [
        f"bench @ {entry['git_sha'][:12]} ({entry['mode']}, "
        f"{entry['timestamp']})"
    ]
    spec = entry["workload"]
    lines.append(
        f"  workload {spec['name']}: {spec['n_keys']:,} keys, "
        f"{spec['n_ops']:,} ops, seed {spec['seed']}, "
        f"skew {spec['op_skew']}"
    )
    for engine, sample in entry["engines"].items():
        lines.append(
            f"  {engine:8s} {sample['sim_ops_per_sec']:>12,.0f} sim-ops/s  "
            f"{sample['wall_seconds']:8.2f} s wall  "
            f"{sample['peak_rss_bytes'] / 2**20:8.0f} MB peak RSS  "
            f"({sample['sim_throughput_mops']:.2f} modelled Mops/s)"
        )
    return "\n".join(lines)
