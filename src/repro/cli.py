"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures`` — regenerate paper figures/tables and print them
  (``--only fig9 fig11`` to select, ``--keys/--ops`` to scale,
  ``--save DIR`` to also write the tables and raw JSON).
* ``run`` — one engine on one workload, printing the result summary;
  ``--metrics PATH`` writes the run's MetricsRegistry as JSON and
  ``--trace PATH`` (DCART only) writes a Chrome/Perfetto ``trace_event``
  timeline (PCU / per-SOU / sync / HBM / durability spans per batch)
  and prints a per-track summary table.  ``--durable DIR`` (DCART only)
  attaches the write-ahead log and a checkpoint every ``--every N``
  batches, written to DIR; ``--fault SIG`` (DCART only) runs under a
  campaign fault string such as ``sou-failstop:2+buffer-storm:0.5``.
* ``workload`` — generate a workload and write it as JSON-lines
  (replayable with ``run --replay``).
* ``chaos`` — an unsaved fault campaign: DCART healthy and under each
  ``--fault SIG`` (default: the 1..15 failed-SOU degradation curve),
  each fault row judged graceful or not against the healthy run.
  ``--json [PATH]`` emits the campaign report as JSON, to stdout or PATH.
* ``recover`` — rebuild the tree from a durability directory (latest
  valid checkpoint + committed WAL tail) and validate it; or, with
  ``--campaign N``, run N seeded ``crash`` cells as an unsaved campaign.
* ``sweep`` — run an (engine × workload × seed) grid as an unsaved
  campaign (in-memory store) over ``--jobs N`` worker processes and
  print its campaign report (``--jobs 1`` and ``--jobs N`` are
  bit-identical).
* ``serve`` — open-loop serving simulation: seeded arrivals at a
  fraction of closed-loop capacity, admission control, size-or-deadline
  batching, and a latency-vs-offered-load sweep with SLO/knee/RTO
  reporting (``--fault SIG`` lands a fault string at ``--fault-batch``
  mid-traffic; ``--shards N`` serves through a cluster).
* ``cluster`` — a closed-loop run of N DCART shards behind one router,
  with replication, failover and rebalancing (``--fault SIG`` lands a
  shard fault string such as ``shard-failstop:1`` at ``--fault-batch``).
* ``bench`` — simulator speed as a paired A/B comparison: ``--ab REV``
  runs perfbench on every ``BENCHMARK.json`` workload in this checkout
  and in REV (a temporary worktree), ``--pairs N`` times with the first
  side alternating, and prints a verdict per end-to-end metric (exit 1
  on ``worse``); ``--record`` appends the comparison to
  ``BENCH_speed.json``.
* ``campaign`` — declarative experiment campaigns (docs/EXPERIMENTS.md):
  ``run`` executes a TOML/JSON spec's grid into the SQLite result store,
  skipping every already-completed cell (kill it, re-run it, it
  resumes); ``status`` shows grid completion; ``report`` regenerates
  the campaign's Markdown/HTML report from the store.  ``--no-stamp``
  makes all output byte-deterministic.
* ``lint`` — run reprolint, the AST-based determinism & invariant
  analyzer (rules DET01–03, COST01, PAR01, DUR01; see
  docs/STATIC_ANALYSIS.md), over ``src/repro`` or the given paths.
  Exits 1 on findings, 2 on unparseable files.

Every subcommand exits non-zero when its validation oracle fails: a
broken tree after ``run``, a non-graceful or invalid fault row of
``chaos``, a recovery that diverges, a ``serve`` fault that never fired.
Bad input (a ``ConfigError`` or ``WorkloadError``, including a fault
string its run cannot fire) exits 2 with one line on stderr; a run
aborted by its faults (a ``FaultError``: watchdog, every SOU dead)
exits 3.  Status
lines (``wrote ...``) go to stderr, so ``--json`` on stdout is JSON.

``--log-level`` (before the subcommand) turns on fault/event logging;
the library stays silent by default.

Examples:

    python -m repro figures --only fig9 --keys 10000 --ops 100000
    python -m repro run --engine DCART --workload IPGEO --ops 50000
    python -m repro workload --name DICT --keys 5000 --out dict.jsonl
    python -m repro run --engine SMART --replay dict.jsonl
    python -m repro run --engine DCART --fault sou-failstop:4 --seed 1
    python -m repro chaos --fault sou-failstop:4 hbm-throttle:0.5
    python -m repro --log-level INFO chaos --json curve.json
    python -m repro run --engine DCART --durable /tmp/dcart-state --every 4
    python -m repro recover --dir /tmp/dcart-state --json
    python -m repro recover --campaign 50 --seed 1
    python -m repro sweep --engines ART DCART --seeds 1 2 --jobs 4
    python -m repro serve --load-sweep 0.25 0.5 1.0 --json report.json
    python -m repro serve --fault crash --admission drop-tail --json -
    python -m repro serve --shards 4 --fault shard-failstop:1 --fault-batch 2
    python -m repro cluster --fault replication-slowdown:8
    python -m repro run --engine DCART --metrics metrics.json
    python -m repro run --engine DCART --keys 2000 --ops 20000 --trace trace.json
    python -m repro bench --ab HEAD~1 --pairs 5 --record
    python -m repro lint
    python -m repro lint src/repro/core --json -
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ConfigError, FaultError, WorkloadError
from repro.harness import experiments
from repro.harness.runner import default_engines
from repro.harness.serialize import result_to_dict, save_matrix
from repro.workloads import WORKLOAD_NAMES, make_workload
from repro.workloads.trace import load_workload, save_workload

FIGURES = {
    "fig2a": experiments.fig2a_breakdown,
    "fig2b": experiments.fig2b_redundancy,
    "fig2c": experiments.fig2c_utilisation,
    "fig2d": experiments.fig2d_sync_vs_ops,
    "fig2e": experiments.fig2e_write_ratio,
    "fig3": experiments.fig3_distribution,
    "table1": experiments.table1_config,
    "fig7": experiments.fig7_contentions,
    "fig8": experiments.fig8_matches,
    "fig9": experiments.fig9_performance,
    "fig10": experiments.fig10_throughput_latency,
    "fig11": experiments.fig11_energy,
    "fig12a": experiments.fig12a_op_sensitivity,
    "fig12b": experiments.fig12b_mix_sensitivity,
    "ablation": experiments.ablation,
}

ENGINE_NAMES = ("ART", "Heart", "SMART", "CuART", "DCART-C", "DCART")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DCART (DAC 2025) reproduction harness"
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="enable library logging at LEVEL (DEBUG/INFO/WARNING/...); "
             "default: silent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures/tables")
    figures.add_argument(
        "--only", nargs="*", choices=sorted(FIGURES), default=None,
        help="subset of figures (default: all)",
    )
    figures.add_argument("--keys", type=int, default=experiments.DEFAULT_KEYS)
    figures.add_argument("--ops", type=int, default=experiments.DEFAULT_OPS)
    figures.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    figures.add_argument("--save", metavar="DIR", default=None)

    run = sub.add_parser("run", help="run one engine on one workload")
    run.add_argument("--engine", choices=ENGINE_NAMES, required=True)
    run.add_argument("--workload", choices=WORKLOAD_NAMES, default="IPGEO")
    run.add_argument("--keys", type=int, default=10_000)
    run.add_argument("--ops", type=int, default=100_000)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--write-ratio", type=float, default=None)
    run.add_argument("--replay", metavar="FILE", default=None,
                     help="replay a saved workload instead of generating")
    run.add_argument("--json", action="store_true", help="emit JSON")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="attach a MetricsRegistry and write it as JSON "
                          "to PATH ('-' for stdout)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="DCART only: attach a BatchTracer and write a "
                          "Chrome trace_event timeline to PATH (load it at "
                          "chrome://tracing or ui.perfetto.dev)")
    run.add_argument("--durable", default=None, metavar="DIR",
                     help="DCART only: attach the write-ahead log and "
                          "checkpoints, written to DIR (created if missing; "
                          "rebuild with 'recover --dir DIR')")
    run.add_argument("--every", type=int, default=None, metavar="N",
                     help="with --durable: checkpoint every N batches "
                          "(default: 4)")
    run.add_argument("--fault", default=None, metavar="SIG",
                     help="DCART only: run under the closed-loop fault SIG, "
                          "a campaign fault string such as sou-failstop:4 "
                          "or sou-failstop:2+buffer-storm:0.5")

    workload = sub.add_parser("workload", help="generate + save a workload")
    workload.add_argument("--name", choices=WORKLOAD_NAMES, required=True)
    workload.add_argument("--keys", type=int, default=10_000)
    workload.add_argument("--ops", type=int, default=None)
    workload.add_argument("--seed", type=int, default=1)
    workload.add_argument("--write-ratio", type=float, default=None)
    workload.add_argument("--out", required=True)

    chaos = sub.add_parser(
        "chaos", help="fault campaign: DCART under each fault, judged "
                      "against the healthy run"
    )
    chaos.add_argument("--fault", nargs="+", default=None, metavar="SIG",
                       help="fault strings to run beside 'none' (default: "
                            "sou-failstop:1 .. sou-failstop:15, the "
                            "degradation curve)")
    chaos.add_argument("--workload", choices=WORKLOAD_NAMES, default="IPGEO")
    chaos.add_argument("--keys", type=int, default=None)
    chaos.add_argument("--ops", type=int, default=None)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the campaign-report/v1 document as JSON "
                            "(to PATH, or stdout when bare)")

    recover = sub.add_parser(
        "recover",
        help="rebuild + validate from a durability directory, or --campaign",
    )
    recover.add_argument("--dir", default=None, metavar="DIR",
                         help="durability directory to recover from")
    recover.add_argument("--campaign", type=int, default=None, metavar="N",
                         help="run the seeded crash-recover-validate loop "
                              "over N random crash points instead")
    recover.add_argument("--seed", type=int, default=1)
    recover.add_argument("--keys", type=int, default=None)
    recover.add_argument("--ops", type=int, default=None)
    recover.add_argument("--workload", choices=WORKLOAD_NAMES,
                         default="IPGEO")
    recover.add_argument("--json", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="emit JSON (to PATH, or stdout when bare)")

    sweep = sub.add_parser(
        "sweep", help="run an (engine x workload x seed) grid, optionally "
                      "in parallel"
    )
    sweep.add_argument("--engines", nargs="+", choices=ENGINE_NAMES,
                       default=["ART", "DCART"])
    sweep.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                       default=["IPGEO"])
    sweep.add_argument("--seeds", nargs="+", type=int, default=[1])
    sweep.add_argument("--keys", type=int, default=10_000)
    sweep.add_argument("--ops", type=int, default=100_000)
    sweep.add_argument("--write-ratio", type=float, default=None)
    sweep.add_argument("--op-skew", type=float, default=None)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the campaign-report/v1 document as JSON")
    sweep.add_argument("--metrics", default=None, metavar="PATH",
                       help="collect a per-cell MetricsRegistry and write "
                            "all of them as JSON to PATH ('-' for stdout)")

    from repro.serve.admission import ADMISSION_NAMES
    from repro.serve.arrivals import ARRIVAL_NAMES

    serve = sub.add_parser(
        "serve", help="open-loop serving sweep: arrivals, admission, SLO/RTO"
    )
    serve.add_argument("--engine", choices=ENGINE_NAMES, default="DCART")
    serve.add_argument("--workload", choices=WORKLOAD_NAMES, default="IPGEO")
    serve.add_argument("--keys", type=int, default=None)
    serve.add_argument("--ops", type=int, default=None)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--arrival", choices=ARRIVAL_NAMES, default="poisson")
    serve.add_argument("--admission", choices=ADMISSION_NAMES,
                       default="drop-tail")
    serve.add_argument("--load-sweep", nargs="+", type=float, default=None,
                       metavar="LOAD",
                       help="offered loads as fractions of closed-loop "
                            "capacity (default: 0.25 0.5 0.75 1.0 1.5)")
    serve.add_argument("--batch-size", type=int, default=None,
                       help="serving batch size (default: 512)")
    serve.add_argument("--deadline-us", type=float, default=None,
                       help="batch-forming deadline (default: 100)")
    serve.add_argument("--queue-capacity", type=int, default=None,
                       help="ingest queue bound (default: 8192)")
    serve.add_argument("--slo-us", type=float, default=None,
                       help="latency SLO (default: derived from the "
                            "lowest swept load)")
    serve.add_argument("--fault", default="none", metavar="SIG",
                       help="fire the fault string SIG mid-traffic and "
                            "report RTO: crash or machine-level kinds on "
                            "one accelerator, shard kinds with --shards")
    serve.add_argument("--fault-batch", type=int, default=9,
                       help="serving batch index the fault lands on")
    serve.add_argument("--shards", type=int, default=None, metavar="N",
                       help="serve through an N-shard cluster instead of "
                            "one accelerator")
    serve.add_argument("--replicas", type=int, default=1, choices=(0, 1),
                       help="replicas per shard with --shards (default: 1)")
    serve.add_argument("--partitioning", choices=("hash", "range"),
                       default="hash",
                       help="key-space partitioning with --shards")
    serve.add_argument("--rebalance", action="store_true",
                       help="enable the skew-driven bucket rebalancer "
                            "with --shards")
    serve.add_argument("--dir", default=None, metavar="DIR",
                       help="durability directory for --fault crash, "
                            "kept after the run (default: a scratch "
                            "directory, removed)")
    serve.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the serve-sweep/v1 report as JSON")

    cluster = sub.add_parser(
        "cluster",
        help="closed-loop sharded cluster run: routing, replication, "
             "failover, rebalancing",
    )
    cluster.add_argument("--shards", type=int, default=4, metavar="N",
                         help="number of DCART shards (default: 4)")
    cluster.add_argument("--replicas", type=int, default=1, choices=(0, 1),
                         help="replicas per shard (default: 1)")
    cluster.add_argument("--partitioning", choices=("hash", "range"),
                         default="hash",
                         help="key-space partitioning (default: hash)")
    cluster.add_argument("--rebalance", action="store_true",
                         help="enable the skew-driven bucket rebalancer")
    cluster.add_argument("--workload", choices=WORKLOAD_NAMES,
                         default="IPGEO")
    cluster.add_argument("--keys", type=int, default=None)
    cluster.add_argument("--ops", type=int, default=None)
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument("--batch-size", type=int, default=1024,
                         help="cluster batch size (default: 1024)")
    cluster.add_argument("--fault", default="none", metavar="SIG",
                         help="shard-level fault string to inject mid-run, "
                              "e.g. shard-failstop:1 or "
                              "replication-slowdown:8")
    cluster.add_argument("--fault-batch", type=int, default=2,
                         help="batch index the fault lands on")
    cluster.add_argument("--json", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="emit the cluster-run/v1 report as JSON")

    bench = sub.add_parser(
        "bench",
        help="paired A/B speed comparison with REV over the perfbench "
             "workloads; record it in BENCH_speed.json",
    )
    bench.add_argument("--ab", required=True, metavar="REV",
                       help="git revision to compare this checkout with "
                            "(checked out into a temporary worktree)")
    bench.add_argument("--pairs", type=int, default=10, metavar="N",
                       help="pairs of runs per workload, first side "
                            "alternating (default: 10; with fewer no "
                            "metric can read gain)")
    bench.add_argument("--record", action="store_true",
                       help="append the comparison to the trajectory file "
                            "as a schema-2 entry")
    bench.add_argument("--file", default=None, metavar="PATH",
                       help="trajectory file (default: BENCH_speed.json "
                            "at the repo root)")

    campaign = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns: run/status/report over a "
             "SQLite result store",
    )
    campaign.add_argument("action", choices=["run", "status", "report"],
                          help="run the spec's grid (resumable), show "
                               "completion, or regenerate the report")
    campaign.add_argument("--spec", required=True, metavar="FILE",
                          help="campaign spec (.toml on Python >= 3.11, "
                               "or .json)")
    campaign.add_argument("--store", default=None, metavar="PATH",
                          help="SQLite result store (default: campaigns.db "
                               "in the current directory)")
    campaign.add_argument("--mode", default="full", metavar="NAME",
                          help="store namespace label, e.g. full/smoke "
                               "(default: full)")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes (1 = in-process)")
    campaign.add_argument("--no-stamp", action="store_true",
                          help="deterministic output: store under git SHA "
                               "'unstamped' with no timestamps")
    campaign.add_argument("--md", default=None, metavar="PATH",
                          help="report: write the Markdown report to PATH "
                               "(default: stdout, unless --json is there)")
    campaign.add_argument("--html", default=None, metavar="PATH",
                          help="report: also write a standalone HTML report")
    campaign.add_argument("--json", nargs="?", const="-", default=None,
                          metavar="PATH",
                          help="emit the run summary / status / report "
                               "document as JSON")

    lint = sub.add_parser(
        "lint", help="reprolint: AST determinism & invariant analyzer"
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to scan (default: the "
                           "installed repro package source)")
    lint.add_argument("--pyproject", default=None, metavar="FILE",
                      help="pyproject.toml with [tool.reprolint] overrides "
                           "(default: auto-detect at the repo root)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule code and one-line summary")
    lint.add_argument("--json", nargs="?", const="-", default=None,
                      metavar="PATH",
                      help="emit findings as JSON (to PATH, or stdout)")
    lint.add_argument("--sarif", default=None, metavar="PATH",
                      help="additionally write findings as SARIF 2.1.0 "
                           "(CI code-scanning annotations)")
    lint.add_argument("--cache", default=None, metavar="PATH",
                      help="incremental-cache DB path (default: "
                           ".reprolint-cache.json next to the detected "
                           "pyproject)")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the content-hash incremental cache")
    lint.add_argument("--update-schemas", action="store_true",
                      help="regenerate the SCHEMA01 lockfile "
                           "(lint/schemas.lock) from the current tree, "
                           "then lint")
    return parser


def _emit_json(payload, dest: str) -> None:
    """Write ``payload`` as JSON to stdout (``-``) or a file path."""
    import json

    text = json.dumps(payload, indent=1)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote JSON to {dest}", file=sys.stderr)


def _cmd_figures(args) -> int:
    names = args.only if args.only else sorted(FIGURES)
    for name in names:
        fn = FIGURES[name]
        if name == "table1":
            result = fn()
        elif name in ("fig2d", "fig10", "fig12a"):
            result = fn(n_keys=args.keys, seed=args.seed)
        elif name == "fig2e":
            result = fn(n_keys=args.keys, n_ops=args.ops, seed=args.seed)
        else:
            result = fn(n_keys=args.keys, n_ops=args.ops, seed=args.seed)
        print(result.render())
        print()
        if args.save:
            os.makedirs(args.save, exist_ok=True)
            with open(os.path.join(args.save, f"{name}.txt"), "w") as handle:
                handle.write(result.render() + "\n")
            experiments.experiment_to_csv(
                result, os.path.join(args.save, f"{name}.csv")
            )
            if result.raw:
                save_matrix(result.raw, os.path.join(args.save, f"{name}.json"))
    return 0


def _check_run_flags(args) -> None:
    """Reject flag combinations ``run`` cannot honour, before any work."""
    from repro.experiments.spec import CRASH_FAULT, NO_FAULT, parse_fault

    for flag, value in (("--trace", args.trace), ("--durable", args.durable),
                        ("--fault", args.fault)):
        if value is not None and args.engine != "DCART":
            raise ConfigError(
                f"{flag} needs --engine DCART, the accelerator model "
                f"({args.engine} is not)"
            )
    if args.durable is not None and args.fault is not None:
        raise ConfigError(
            "--durable and --fault do not combine: a crash under the WAL "
            "is a recovery trial ('recover --campaign N')"
        )
    if args.every is not None and args.durable is None:
        raise ConfigError("--every needs --durable DIR")
    if args.fault in (NO_FAULT, CRASH_FAULT):
        raise ConfigError(
            f"--fault {args.fault} is not a fault to run: 'none' is the "
            "plain run and 'crash' a recovery trial ('recover --campaign N')"
        )
    if args.fault is not None:
        parse_fault(args.fault)


def _cmd_run(args) -> int:
    from repro.art.validate import validate_tree
    from repro.harness import resilience

    _check_run_flags(args)
    if args.replay:
        workload = load_workload(args.replay)
        n_keys = workload.n_keys
    else:
        workload = make_workload(
            args.workload,
            n_keys=args.keys,
            n_ops=args.ops,
            seed=args.seed,
            write_ratio=args.write_ratio,
        )
        n_keys = args.keys
    telemetry = None
    if args.metrics is not None or args.trace is not None:
        from repro.obs import Telemetry

        telemetry = Telemetry() if args.trace is None else Telemetry.with_tracer()
    schedule = None
    if args.fault is not None:
        from repro.experiments.spec import fault_schedule

        config = resilience.chaos_config(n_keys)
        schedule = fault_schedule(args.fault, config, workload.n_ops, args.seed)
        result, validation = resilience.faulted_run(
            config, workload, schedule, telemetry=telemetry
        )
    else:
        durability = None
        if args.durable is not None:
            from repro.core.accelerator import DcartAccelerator
            from repro.durability import DurabilityManager

            every = args.every if args.every is not None else 4
            durability = DurabilityManager(args.durable, checkpoint_every=every)
            engine = DcartAccelerator(
                config=resilience.chaos_config(n_keys), durability=durability
            )
        else:
            engine = default_engines(n_keys, include=[args.engine])[0]
        engine.telemetry = telemetry
        tree = engine.build_tree(workload)
        try:
            result = engine.run(workload, tree=tree)
        finally:
            if durability is not None:
                durability.close()
        validation = validate_tree(tree)
    if args.metrics is not None:
        _emit_json(telemetry.registry.as_dict(), args.metrics)
    if args.json:
        import json

        print(json.dumps(result_to_dict(result), indent=1))
    else:
        print(workload.summary())
        print(result.summary())
        print(
            f"p99 latency: {result.p99_latency_us:.1f} us, "
            f"redundancy {100 * result.redundancy_ratio:.1f} %, "
            f"cacheline utilisation {100 * result.cacheline_utilisation:.1f} %"
        )
        if schedule is not None:
            print(schedule.describe())
            print(f"schedule signature: {schedule.signature()}")
        if args.durable is not None:
            print(f"durable state in {args.durable}:")
            for key, value in sorted(result.extra.items()):
                if key.startswith(("wal_", "checkpoint")) or key == "durability_cycles":
                    print(f"  {key}: {value}")
        if args.trace is not None:
            print(telemetry.tracer.summary_table())
    if args.trace is not None:
        n_events = telemetry.tracer.write(args.trace)
        print(f"wrote {n_events} trace events to {args.trace}", file=sys.stderr)
    if not validation.ok:
        print(f"tree validation FAILED: {validation.summary()}", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments.spec import CRASH_FAULT, NO_FAULT, CampaignSpec
    from repro.harness import resilience

    n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
    faults = args.fault
    if faults is None:
        n_sous = resilience.chaos_config(n_keys).n_sous
        faults = [f"sou-failstop:{k}" for k in range(1, n_sous)]
    spec = CampaignSpec(
        name="chaos", engines=("DCART",), workloads=(args.workload,),
        seeds=(args.seed,), n_keys=n_keys,
        n_ops=args.ops if args.ops is not None else resilience.DEFAULT_OPS,
        faults=(NO_FAULT, *faults),
    )
    report = _run_unsaved(spec, args.json)
    ok = all(
        row["verdict"]["ok" if row["fault"] == CRASH_FAULT else "graceful"]
        for row in report["rows"]
        if row["fault"] != NO_FAULT
    )
    return 0 if report["complete"] and ok else 1


def _cmd_recover(args) -> int:
    from repro.durability import recover
    from repro.errors import RecoveryError
    from repro.harness import resilience

    if args.campaign is not None:
        from repro.experiments.spec import CRASH_FAULT, CampaignSpec

        spec = CampaignSpec(
            name="crash-recover", engines=("DCART",), workloads=(args.workload,),
            seeds=tuple(range(args.seed, args.seed + args.campaign)),
            n_keys=args.keys if args.keys is not None else resilience.DEFAULT_KEYS,
            n_ops=args.ops if args.ops is not None else resilience.DEFAULT_OPS,
            faults=(CRASH_FAULT,),
        )
        report = _run_unsaved(spec, args.json)
        ok = all(row["verdict"]["ok"] for row in report["rows"])
        return 0 if report["complete"] and ok else 1

    if args.dir is None:
        print("recover: --dir (or --campaign N) is required", file=sys.stderr)
        return 2
    try:
        recovery = recover(args.dir)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    if args.json is not None:
        _emit_json(recovery.to_dict(), args.json)
    else:
        print(recovery.summary())
    if not recovery.ok:
        print(
            f"recovered tree FAILED validation: {recovery.validation.summary()}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_workload(args) -> int:
    workload = make_workload(
        args.name,
        n_keys=args.keys,
        n_ops=args.ops,
        seed=args.seed,
        write_ratio=args.write_ratio,
    )
    save_workload(workload, args.out)
    print(f"wrote {workload.summary()} to {args.out}", file=sys.stderr)
    return 0


def _run_unsaved(spec, dest: Optional[str], jobs: int = 1,
                 metrics: Optional[str] = None) -> dict:
    """Run ``spec`` as an unsaved campaign, print its report, return it.

    Same cells, worker and report as ``repro campaign``, in an in-memory
    store under git SHA "unstamped" (deterministic output).
    """
    import functools

    from repro.experiments import campaign as campaign_mod
    from repro.experiments import report as report_mod
    from repro.experiments.store import ResultStore

    worker = campaign_mod.run_campaign_cell
    if metrics is not None:
        worker = functools.partial(worker, collect_metrics=True)
    with ResultStore(":memory:") as store:
        summary = campaign_mod.run_campaign(
            spec, store, git_sha="unstamped", jobs=jobs, worker=worker
        )
        if metrics is not None:
            stored = store.get_cells(
                summary["spec_hash"], summary["git_sha"], summary["mode"]
            )
            docs = [
                stored[cell.key()]["payload"]
                for cell in campaign_mod.expand_spec(spec)
            ]
            _emit_json(
                [
                    {"cell": doc["cell"], "metrics": doc.get("metrics")}
                    for doc in docs
                ],
                metrics,
            )
        report = report_mod.build_report(spec, store, git_sha="unstamped")
    if dest is not None:
        _emit_json(report, dest)
    else:
        print(report_mod.render_markdown(report), end="")
    return report


def _cmd_sweep(args) -> int:
    from repro.experiments.spec import CampaignSpec

    spec = CampaignSpec(
        name="sweep",
        engines=tuple(args.engines),
        workloads=tuple(args.workloads),
        seeds=tuple(args.seeds),
        n_keys=args.keys,
        n_ops=args.ops,
        write_ratio=args.write_ratio,
        op_skew=args.op_skew,
    )
    report = _run_unsaved(spec, args.json, jobs=args.jobs, metrics=args.metrics)
    return 0 if report["complete"] else 1


#: Default offered-load fractions for ``repro serve --load-sweep``.
SERVE_DEFAULT_LOADS = (0.25, 0.5, 0.75, 1.0, 1.5)


def _place_fault(args, accel_config, n_ops: int, cluster):
    """``--fault SIG`` landing at ``--fault-batch``, checked against the
    run: ``(terms, schedule)``, with no schedule for ``none``."""
    from repro.experiments.spec import NO_FAULT, fault_schedule, parse_fault

    terms = parse_fault(args.fault)
    if NO_FAULT in terms:
        return terms, None
    return terms, fault_schedule(
        args.fault, accel_config, n_ops, args.seed, at_batch=args.fault_batch,
        n_shards=cluster.n_shards if cluster else 0,
        replicas=cluster.replicas if cluster else 0,
    )


def _cmd_serve(args) -> int:
    import contextlib
    import tempfile

    from repro.experiments.spec import CRASH_FAULT
    from repro.harness import resilience
    from repro.serve import ServeConfig, load_sweep

    n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
    n_ops = args.ops if args.ops is not None else resilience.DEFAULT_OPS
    accel_config = resilience.chaos_config(n_keys)
    overrides = {
        "arrival": args.arrival,
        "admission": args.admission,
        "slo_us": args.slo_us,
    }
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.deadline_us is not None:
        overrides["deadline_us"] = args.deadline_us
    if args.queue_capacity is not None:
        overrides["queue_capacity"] = args.queue_capacity
    serve_config = ServeConfig(**overrides)
    cluster_config = None
    if args.shards is not None:
        from repro.cluster import ClusterConfig

        cluster_config = ClusterConfig(
            n_shards=args.shards,
            replicas=args.replicas,
            partitioning=args.partitioning,
            rebalance=args.rebalance,
            seed=args.seed,
        )
    terms, schedule = _place_fault(args, accel_config, n_ops, cluster_config)
    workload = make_workload(
        args.workload, n_keys=n_keys, n_ops=n_ops, seed=args.seed
    )
    loads = (
        args.load_sweep if args.load_sweep is not None
        else list(SERVE_DEFAULT_LOADS)
    )
    # A crash run needs durable state: under --dir it is kept,
    # otherwise it lives in a scratch directory removed afterwards.
    if CRASH_FAULT not in terms:
        state = contextlib.nullcontext(None)
    elif args.dir is not None:
        state = contextlib.nullcontext(args.dir)
    else:
        state = tempfile.TemporaryDirectory(prefix="dcart-serve-")
    with state as durability_dir:
        report = load_sweep(
            workload, serve_config, loads, seed=args.seed,
            engine=args.engine, accel_config=accel_config,
            schedule=schedule, durability_dir=durability_dir,
            cluster_config=cluster_config,
        )

    if args.json is not None:
        _emit_json(report, args.json)
    else:
        knee = (
            f"knee at {report['knee_load']}x"
            if report["knee_load"] is not None
            else "knee below the lowest swept load"
        )
        print(
            f"{args.engine} on {workload.name}: closed-loop capacity "
            f"{report['capacity_ops_per_s'] / 1e6:.2f} Mops/s, "
            f"SLO {report['slo_us']:.1f} us, {knee}"
        )
        header = (
            "load", "p50 us", "p99 us", "goodput", "shed", "lost",
            "peak q", "crashes", "RTO cyc",
        )
        rows = [header]
        for row in report["rows"]:
            rows.append((
                f"{row['offered_load']:g}",
                f"{row['p50_us']:.1f}",
                f"{row['p99_us']:.1f}",
                f"{row['goodput_mops']:.2f}",
                str(row["shed_ops"]),
                str(row["lost_ops"]),
                str(row["queue_peak"]),
                str(row["crashes"]),
                "-" if row["rto_cycles"] is None else str(row["rto_cycles"]),
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            print("  ".join(col.rjust(w) for col, w in zip(r, widths)))
        if CRASH_FAULT in terms and args.dir is not None:
            print(f"durable state under {args.dir}")

    swept = report["rows"]
    if schedule is not None and all(r["rto_cycles"] is None for r in swept):
        if not any(row["fault_cycles"] for row in swept):
            formed = ", ".join(
                f"load {row['offered_load']:g} formed {row['n_batches']} "
                "batches" for row in swept
            )
            print(
                f"serve: the fault at batch {args.fault_batch} never fired "
                f"({formed})", file=sys.stderr,
            )
        else:
            print(
                "serve: tail latency never re-entered the SLO after the "
                "fault (no RTO)", file=sys.stderr,
            )
        return 1
    return 0


def _cmd_cluster(args) -> int:
    from repro.cluster import ClusterConfig, ClusterCoordinator
    from repro.errors import FaultError, SimulationError, TreeError
    from repro.harness import resilience

    n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
    n_ops = args.ops if args.ops is not None else resilience.DEFAULT_OPS
    cluster_config = ClusterConfig(
        n_shards=args.shards,
        replicas=args.replicas,
        partitioning=args.partitioning,
        rebalance=args.rebalance,
        seed=args.seed,
    )
    accel_config = resilience.chaos_config(n_keys)
    terms, schedule = _place_fault(args, accel_config, n_ops, cluster_config)
    workload = make_workload(
        args.workload, n_keys=n_keys, n_ops=n_ops, seed=args.seed
    )
    try:
        coordinator = ClusterCoordinator(
            workload,
            cluster_config,
            accel_config=accel_config,
            schedule=schedule,
        )
        report = coordinator.run(batch_size=args.batch_size)
    except FaultError as exc:
        print(f"cluster unrecoverable: {exc}", file=sys.stderr)
        return 1

    if args.json is not None:
        _emit_json(report, args.json)
    else:
        print(
            f"{args.shards}-shard {args.partitioning} cluster on "
            f"{workload.name}: {report['completed_ops']}/{report['n_ops']} "
            f"ops in {report['makespan_cycles']} cycles "
            f"({report['throughput_mops']:.2f} Mops/s)"
        )
        shares = (
            ("route", report["route_cycles"]),
            ("shards", report["shard_cycles"]),
            ("admin", report["admin_cycles"]),
        )
        makespan = max(1, report["makespan_cycles"])
        print("  " + ", ".join(
            f"{name} {cycles} cyc ({100 * cycles / makespan:.1f}%)"
            for name, cycles in shares
        ))
        for record in report["failovers"]:
            print(
                f"  failover shard {record['shard_id']}: died batch "
                f"{record['died_batch']}, RTO {record['rto_cycles']} cyc, "
                f"catch-up {record['catchup_ops']} ops, handoff "
                f"{record['handoff_ops']} ops"
            )
        migration = report["migration"]
        if migration["bucket_moves"]:
            print(
                f"  rebalanced {migration['bucket_moves']} buckets "
                f"({migration['keys_moved']} keys, "
                f"{migration['cycles']} cyc)"
            )

    try:
        coordinator.validate_trees()
        # After the report: the replicas' catch-up drains their lag.
        coordinator.check_replicas()
    except (SimulationError, TreeError) as exc:
        print(f"cluster: {exc}", file=sys.stderr)
        return 1
    if "shard-failstop" in terms and not report["failovers"]:
        print(
            "cluster: the fail-stopped shard never failed over",
            file=sys.stderr,
        )
        return 1
    if report["completed_ops"] != report["n_ops"]:
        print(
            f"cluster: {report['n_ops'] - report['completed_ops']} ops "
            "never completed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args) -> int:
    from repro.harness import benchmarking

    path = args.file or os.path.join(
        benchmarking.REPO_ROOT, benchmarking.BENCH_FILENAME
    )
    if args.record:
        # A torn trajectory fails now, not after an hour of runs.
        benchmarking.load_trajectory(path)
    try:
        entry = benchmarking.ab_compare(
            args.ab, args.pairs,
            progress=lambda line: print(line, file=sys.stderr, flush=True),
        )
    except benchmarking.RunFailed as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 1
    print(benchmarking.render(entry))
    if args.record:
        benchmarking.append_entry(path, entry)
        print(f"recorded in {path}")
    worse = benchmarking.worse_verdicts(entry)
    if worse:
        print(f"repro bench: worse: {', '.join(worse)}", file=sys.stderr)
        return 1
    return 0


def _cmd_campaign(args) -> int:
    from repro.experiments import campaign as campaign_mod
    from repro.experiments import report as report_mod
    from repro.experiments.spec import load_spec
    from repro.experiments.store import ResultStore, default_store_path
    from repro.harness import benchmarking

    # Spec problems (missing file, bad TOML, unknown engine) and store
    # problems (version skew, corrupt payload) are configuration errors:
    # one line on stderr, exit 2.
    try:
        spec = load_spec(args.spec)
    except ConfigError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    if args.no_stamp:
        sha, created = "unstamped", ""
    else:
        sha, created = benchmarking.git_sha(), benchmarking.utc_stamp()
    # With the JSON document on stdout, the summary line goes to stderr
    # and the Markdown report only to --md.
    text_out = sys.stderr if args.json == "-" else sys.stdout
    try:
        with ResultStore(args.store or default_store_path()) as store:
            if args.action == "run":
                summary = campaign_mod.run_campaign(
                    spec, store, git_sha=sha, mode=args.mode,
                    jobs=args.jobs, created_at=created,
                )
                print(
                    f"campaign {spec.name} [{summary['spec_hash']}] "
                    f"mode={args.mode}: {summary['total']} cells - "
                    f"{summary['reused']} reused, {summary['ran']} ran, "
                    f"{summary['failed']} failed", file=text_out,
                )
                if args.json:
                    _emit_json(summary, args.json)
                return 1 if summary["failed"] else 0
            if args.action == "status":
                status = campaign_mod.campaign_status(
                    spec, store, git_sha=sha, mode=args.mode
                )
                print(
                    f"campaign {spec.name} [{status['spec_hash']}] "
                    f"mode={args.mode}: {status['ok']}/{status['total']} ok, "
                    f"{status['error']} failed, {status['pending']} pending",
                    file=text_out,
                )
                if args.json:
                    _emit_json(status, args.json)
                return 0 if status["complete"] else 1
            doc = report_mod.build_report(
                spec, store, git_sha=sha, mode=args.mode, created_at=created
            )
            markdown = report_mod.render_markdown(doc)
            if args.md:
                with open(args.md, "w") as handle:
                    handle.write(markdown)
                print(f"wrote Markdown report to {args.md}", file=sys.stderr)
            elif text_out is sys.stdout:
                print(markdown, end="")
            if args.html:
                with open(args.html, "w") as handle:
                    handle.write(report_mod.render_html(doc))
                print(f"wrote HTML report to {args.html}", file=sys.stderr)
            if args.json:
                _emit_json(doc, args.json)
            return 0 if doc["complete"] else 1
    except ConfigError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2


def _cmd_lint(args) -> int:
    from repro.analysis import reprolint

    paths = args.paths
    package_root = os.path.dirname(os.path.abspath(__file__))
    if not paths:
        paths = [package_root]
    pyproject = args.pyproject
    if pyproject is None:
        # src/repro -> src -> repo root
        candidate = os.path.join(
            os.path.dirname(os.path.dirname(package_root)), "pyproject.toml"
        )
        if os.path.isfile(candidate):
            pyproject = candidate
    cache = args.cache
    if cache is None and not args.no_cache:
        cache_root = os.path.dirname(pyproject) if pyproject else os.getcwd()
        cache = os.path.join(cache_root, ".reprolint-cache.json")
    if args.no_cache:
        cache = None
    return reprolint.main(
        paths,
        pyproject=pyproject,
        json_out=args.json,
        list_rules=args.list_rules,
        sarif_out=args.sarif,
        cache=cache,
        update_schemas=args.update_schemas,
    )


_COMMANDS = {
    "figures": _cmd_figures,
    "run": _cmd_run,
    "workload": _cmd_workload,
    "chaos": _cmd_chaos,
    "recover": _cmd_recover,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "bench": _cmd_bench,
    "campaign": _cmd_campaign,
    "lint": _cmd_lint,
}


#: Options naming a file a command writes ('-' and a bare ``--json``
#: mean stdout).
_OUTPUT_OPTIONS = ("json", "metrics", "trace", "out", "md", "html", "sarif")


def _check_output_dirs(args) -> None:
    """Fail before any work on an empty output path or a missing directory."""
    for option in _OUTPUT_OPTIONS:
        path = getattr(args, option, None)
        if not isinstance(path, str) or path == "-":
            continue
        if not path:
            raise ConfigError(f"--{option}: empty path")
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise ConfigError(
                f"--{option} {path}: directory {parent} does not exist"
            )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.log_level is not None:
        from repro.log import configure

        try:
            configure(args.log_level)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2
    # Bad input that no command-specific handler caught (a zero key
    # count, an out-of-range ratio, a corrupt workload file) is still
    # bad input: one line on stderr and exit 2, never a traceback.
    try:
        _check_output_dirs(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, WorkloadError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except FaultError as exc:
        # The machine was broken past what it can absorb (a watchdog
        # abort, every SOU dead): the run's outcome, not a crash.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
