"""Run one benchmark workload of the DCART simulator and print its metrics.

Run from the root of a checkout (the simulator is imported from
``src/``; nothing is installed or built):

    python3 perfbench/run.py --workload ipgeo-hot --seed 42 --seconds 10 --trace 0

One invocation repeats *set up, run, check* until the simulated phases
add up to ``--seconds``, then reports medians.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics, which come from the
traced ones.  Phases are timed in process CPU seconds, not wall seconds:
the process is single-threaded and does no real I/O, and CPU time leaves
out the periods in which a shared host runs something else.  The
end-to-end times are then scaled by the host's speed during the
invocation, as a fixed reference task gauges it (``hostspeed.py``).  Metric names
and units are read from ``BENCHMARK.json``.
Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Stop starting repetitions once this much wall time has passed, so an
#: invocation ends well inside three minutes even on a slow host.
WALL_BUDGET_S = 120.0

#: Repetitions per invocation at least, whatever ``--seconds`` says.
MIN_REPS = {0: 3, 1: 2}

#: The benchmark's own root spans; their inclusive times add up to the
#: traced time.
ROOT_SPANS = ("bench.setup", "bench.run")

#: Every span the benchmark opens around its own code rather than a layer
#: entry point; their self time is the unattributed remainder.
OWN_SPANS = ROOT_SPANS + ("serve.calibrate",)

#: ``(metric, span)``: layer self times, in seconds per repetition.
SELF_TIME_METRICS = (
    ("workloads.generate_s", "workloads.generate"),
    ("art.build_s", "art.build"),
    ("core.accelerator.open_s", "core.accelerator.open"),
    ("core.accelerator.finalize_s", "core.accelerator.run"),
    ("core.session.self_s", "core.session"),
    ("core.pcu.combine_s", "core.pcu.combine"),
    ("core.dispatcher.dispatch_s", "core.dispatcher.dispatch"),
    ("core.sou.bucket_s", "core.sou.bucket"),
    ("durability.wal_s", "durability.wal"),
    ("durability.checkpoint_s", "durability.checkpoint"),
    ("cluster.route_self_s", "cluster.route"),
    ("cluster.ship_s", "cluster.ship"),
    ("cluster.replication_apply_s", "cluster.replication_apply"),
    ("serve.loop_self_s", "serve.loop"),
)


@dataclass
class Rep:
    """One repetition: its phase times and what the check found."""

    traced: bool
    setup_s: float = 0.0
    run_s: float = 0.0
    #: ``None`` when setup or run raised.
    output: Optional[object] = None
    error: str = ""
    #: Host probe times before setup, between setup and run, after run.
    probes: List[float] = field(default_factory=list)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the workload's own)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_metric_specs() -> Dict[str, List[Dict[str, object]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_rep(scenario, seed: int, workdir: str, tracer) -> Rep:
    """Set up, run and check once; ``tracer`` is None when untraced.

    The host probe runs before, between and after the two phases, outside
    every span.
    """
    from hostspeed import probe
    from repro.errors import ReproError
    from spans import span_or_null

    rep = Rep(tracer is not None)
    try:
        rep.probes.append(probe())
        start = time.process_time()
        with span_or_null(tracer, "bench.setup"):
            prepared = scenario.setup(seed, tracer)
        rep.setup_s = time.process_time() - start
        rep.probes.append(probe())
        if tracer is not None:
            # Calibration opens sessions too; count the run phase only.
            tracer.counts.clear()
            tracer.sessions.clear()
        start = time.process_time()
        with span_or_null(tracer, "bench.run"):
            result = scenario.run(prepared, workdir)
        rep.run_s = time.process_time() - start
        rep.probes.append(probe())
    except ReproError as exc:
        rep.error = f"{type(exc).__name__}: {exc}"
        return rep
    if tracer is not None:
        tracer.fold_sessions()
    rep.output = scenario.finish(prepared, result)
    return rep


def measure(scenario, seed: int, seconds: float, trace: int):
    """Repeat until the run phases add up to ``seconds``.

    Returns the repetitions and, when tracing, the merged tracer of the
    traced ones.  With ``trace`` set, odd repetitions are traced, so the
    traced and untraced run phases interleave and see the same host.
    """
    from spans import SpanTracer, installed, installed_wrappers

    reps: List[Rep] = []
    totals = SpanTracer()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        while True:
            measured = sum(rep.run_s for rep in reps)
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS[trace] and measured >= seconds:
                break
            if reps and elapsed * (len(reps) + 1) / len(reps) > WALL_BUDGET_S:
                break
            workdir = os.path.join(scratch, f"rep-{len(reps)}")
            if trace and len(reps) % 2 == 1:
                tracer = SpanTracer()
                with installed(tracer):
                    reps.append(run_rep(scenario, seed, workdir, tracer))
                if reps[-1].output is not None:
                    totals.merge(tracer)
            else:
                leaked = installed_wrappers()
                if leaked:
                    raise RuntimeError(f"span wrappers left installed: {leaked}")
                reps.append(run_rep(scenario, seed, workdir, None))
            shutil.rmtree(workdir, ignore_errors=True)
    return reps, totals


def peak_rss_mib() -> float:
    from repro.harness.benchmarking import peak_rss_bytes

    return peak_rss_bytes() / 2**20


def host_slowdown(reps: List[Rep]) -> float:
    """How much slower than the reference host this invocation ran.

    The median over every probe of the invocation: single probes scatter
    from moment to moment, while the drift it corrects lasts minutes.
    """
    from hostspeed import REFERENCE_S

    return statistics.median(p for rep in reps for p in rep.probes) / REFERENCE_S


def end_to_end(reps: List[Rep], model: Dict[str, float]) -> Dict[str, float]:
    """Medians over the repetitions, times at the reference host's speed."""
    ok = [rep for rep in reps if rep.output is not None]
    slowdown = host_slowdown(ok)
    return {
        "setup_s": statistics.median(rep.setup_s for rep in ok) / slowdown,
        "sim_ops_per_s": statistics.median(
            rep.output.sim_ops / rep.run_s for rep in ok
        ) * slowdown,
        "peak_rss_mb": peak_rss_mib(),
        **model,
    }


def per_layer(reps: List[Rep], totals) -> Dict[str, float]:
    """Per-repetition means over the traced repetitions."""
    traced = [rep for rep in reps if rep.traced and rep.output is not None]
    untraced = [rep for rep in reps if not rep.traced and rep.output is not None]
    n = len(traced)
    self_ns, calls, counts = totals.self_ns, totals.calls, totals.counts
    layers: Dict[str, float] = {}
    for metric, span in SELF_TIME_METRICS:
        if calls[span]:
            layers[metric] = self_ns[span] / n / 1e9
    if calls["serve.calibrate"]:
        layers["serve.calibrate_s"] = totals.incl_ns["serve.calibrate"] / n / 1e9
    sou_ops = counts["sou.ops"]
    layers["core.sou.us_per_op"] = self_ns["core.sou.bucket"] / sou_ops / 1e3
    layers["core.sou.shortcut_hit_share"] = counts["sou.shortcut_hits"] / sou_ops
    layers["core.sou.traversals"] = counts["sou.traversals"] / n
    layers["model.offchip_lines"] = counts["session.offchip_lines"] / n
    lookups = counts["session.tree_buffer_hits"] + counts["session.tree_buffer_misses"]
    layers["model.tree_buffer_hit_rate"] = counts["session.tree_buffer_hits"] / lookups
    layers["model.sync_cycles"] = counts["session.sync_cycles"] / n
    if counts["session.durability_cycles"]:
        layers["model.durability_cycles"] = counts["session.durability_cycles"] / n
    layers.update(traced[0].output.counts)
    traced_ns = sum(totals.incl_ns[name] for name in ROOT_SPANS)
    attributed_ns = sum(ns for name, ns in self_ns.items() if name not in OWN_SPANS)
    unattributed_ns = sum(self_ns[name] for name in OWN_SPANS)
    if attributed_ns + unattributed_ns != traced_ns:
        raise RuntimeError("layer self times do not add up to the traced time")
    layers["trace.unattributed_s"] = unattributed_ns / n / 1e9
    layers["trace.traced_s"] = traced_ns / n / 1e9
    # Summed over the repetitions, not a ratio of medians: with two to
    # four repetitions a median is one repetition's scatter.
    untraced_rate = sum(r.output.sim_ops for r in untraced) / sum(r.run_s for r in untraced)
    traced_rate = sum(r.output.sim_ops for r in traced) / sum(r.run_s for r in traced)
    layers["trace.overhead_share"] = untraced_rate / traced_rate - 1.0
    return layers


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import scenarios
    except ImportError as exc:
        print(
            f"perfbench: cannot import the simulator from {ROOT}/src ({exc}); "
            "run from the root of a complete checkout",
            file=sys.stderr,
        )
        return 2
    args = parse_args(argv, sorted(scenarios.WORKLOADS))
    specs = load_metric_specs()
    scenario = scenarios.WORKLOADS[args.workload]
    seed = scenario.default_seed if args.seed is None else args.seed

    reps, totals = measure(scenario, seed, args.seconds, args.trace)
    outputs = [rep.output for rep in reps if rep.output is not None]
    if not outputs or (args.trace and not any(r.traced and r.output for r in reps)):
        for rep in reps:
            print(f"repetition failed: {rep.error}", file=sys.stderr)
        return 1

    attempted = sum(
        rep.output.sim_ops if rep.output else scenario.offered_ops for rep in reps
    )
    failed = sum(
        rep.output.failed_ops if rep.output else scenario.offered_ops for rep in reps
    )
    digests = sorted({output.digest for output in outputs})
    first = outputs[0]
    correct = failed == 0 and len(digests) == 1

    print(
        f"perfbench {args.workload} seed={seed} trace={args.trace} "
        f"reps={len(reps)} ({sum(r.traced for r in reps)} traced)"
    )
    for rep in reps:
        status = rep.error or (rep.output.failure if rep.output.failed_ops else "ok")
        probes = " ".join(f"{p:.4f}" for p in rep.probes)
        print(
            f"  rep {'T' if rep.traced else '-'} setup {rep.setup_s:8.4f} s  "
            f"run {rep.run_s:8.4f} s  probes {probes} s  {status}"
        )
    print(f"  failed_ops_share {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for name in ("model_shed_share", "model_rto_us"):
        print(f"  {name} {first.model.get(name, 'n/a (closed loop)')}")
    print(f"  notes {json.dumps(first.notes, sort_keys=True)}")
    print(f"  digest {' '.join(digests)}{'' if len(digests) == 1 else '  MISMATCH'}")
    ok = [rep for rep in reps if rep.output is not None]
    print(f"  host_slowdown {host_slowdown(ok):.4f} (end-to-end times are divided by it)")

    if args.trace:
        values = per_layer(reps, totals)
        wanted = specs["per_layer"]
        print("  layers " + json.dumps(
            {name: round(value, 6) for name, value in sorted(values.items())}
        ))
    else:
        values = end_to_end(reps, first.model)
        wanted = specs["end_to_end"]
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"  {name:32s} {values[name]:16.6f} {spec['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
