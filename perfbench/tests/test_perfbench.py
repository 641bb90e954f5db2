"""Self-tests of the benchmark harness, on workloads small enough for seconds.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402

TINY_HOT = scenarios.ClosedLoop(
    dataset="IPGEO", n_keys=2_000, n_ops=20_000, op_skew=0.99,
    write_ratio=0.5, durable=False, default_seed=3,
)
TINY_DURABLE = scenarios.ClosedLoop(
    dataset="RS", n_keys=4_000, n_ops=20_000, op_skew=0.6,
    write_ratio=0.5, durable=True, default_seed=3,
)
TINY_SERVE = scenarios.ServeFailover(
    n_keys=4_000, n_ops=12_000, op_skew=0.8, loads=(0.5, 0.9), fail_batch=8, default_seed=3,
)


class CorruptingLoop(scenarios.ClosedLoop):
    """Seeded mutation: one tree value is wrong after the run."""

    def run(self, prepared, workdir):
        result = super().run(prepared, workdir)
        _, tree = prepared
        key, value = next(tree.items())
        tree.update(key, ("corrupted", value))
        return result


def traced_rep(scenario, tmp_path):
    tracer = spans.SpanTracer()
    with spans.installed(tracer):
        rep = run.run_rep(scenario, scenario.default_seed, str(tmp_path), tracer)
    return rep, tracer


def run_main(monkeypatch, scenario, trace):
    monkeypatch.setattr(scenarios, "WORKLOADS", {"tiny": scenario})
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", "tiny", "--seconds", "0", "--trace", str(trace)]
        )
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_wrappers_exist_only_inside_the_traced_block():
    originals = {}
    for _, module_name, path in spans.LAYER_ENTRY_POINTS:
        owner, attr = spans._resolve(module_name, path)
        originals[(module_name, path)] = vars(owner)[attr]
    assert spans.installed_wrappers() == {}
    with spans.installed(spans.SpanTracer()):
        assert len(spans.installed_wrappers()) == len(spans.LAYER_ENTRY_POINTS)
    assert spans.installed_wrappers() == {}
    for (module_name, path), original in originals.items():
        owner, attr = spans._resolve(module_name, path)
        assert vars(owner)[attr] is original


def test_untraced_repetition_refuses_leaked_wrappers():
    with spans.installed(spans.SpanTracer()):
        with pytest.raises(RuntimeError, match="left installed"):
            run.measure(TINY_HOT, 1, seconds=0.0, trace=0)


def test_traced_run_alternates_and_leaves_nothing_installed():
    reps, totals = run.measure(TINY_HOT, 1, seconds=0.0, trace=1)
    assert [rep.traced for rep in reps] == [False, True]
    assert totals.calls["core.sou.bucket"] > 0
    assert spans.installed_wrappers() == {}


@pytest.mark.parametrize("scenario", [TINY_HOT, TINY_DURABLE, TINY_SERVE])
def test_self_times_add_up_to_the_traced_time(scenario, tmp_path):
    rep, tracer = traced_rep(scenario, tmp_path)
    assert rep.output.failed_ops == 0, rep.output.failure
    roots = sum(tracer.incl_ns[name] for name in run.ROOT_SPANS)
    assert sum(tracer.self_ns.values()) == roots
    assert tracer.calls["core.sou.bucket"] > 0


def test_durable_loop_reaches_wal_and_checkpoint(tmp_path):
    _, tracer = traced_rep(TINY_DURABLE, tmp_path)
    assert tracer.calls["durability.wal"] > 0
    assert tracer.calls["durability.checkpoint"] > 0


def test_serve_loop_reaches_cluster_layers(tmp_path):
    rep, tracer = traced_rep(TINY_SERVE, tmp_path)
    for span in ("serve.loop", "serve.calibrate", "cluster.route",
                 "cluster.ship", "cluster.replication_apply"):
        assert tracer.calls[span] > 0, span
    assert rep.output.counts["cluster.failovers"] == len(TINY_SERVE.loads)


@pytest.mark.parametrize("scenario", [TINY_HOT, TINY_SERVE])
def test_modelled_outputs_repeat_bit_for_bit(scenario, tmp_path):
    first = run.run_rep(scenario, 5, str(tmp_path / "a"), None).output
    second = run.run_rep(scenario, 5, str(tmp_path / "b"), None).output
    other_seed = run.run_rep(scenario, 6, str(tmp_path / "c"), None).output
    assert first.digest == second.digest
    assert first.model == second.model
    assert other_seed.digest != first.digest


def test_phase_times_scale_by_the_host_probe():
    ref = hostspeed.REFERENCE_S
    output = scenarios.RepOutput(600, 0, "", {}, {}, "", {})
    # The median probe says the host ran twice as slow as the reference.
    reps = [
        run.Rep(False, setup_s=4.0, run_s=3.0, output=output,
                probes=[2 * ref, 2 * ref, 5 * ref]),
        run.Rep(False, setup_s=4.0, run_s=3.0, output=output,
                probes=[ref, 2 * ref, 2 * ref]),
    ]
    metrics = run.end_to_end(reps, {})
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["sim_ops_per_s"] == pytest.approx(400.0)
    assert 0 < hostspeed.probe() < 60


def test_one_corrupted_value_fails_the_output_check(monkeypatch, tmp_path):
    fields = {name: getattr(TINY_HOT, name) for name in TINY_HOT.__dataclass_fields__}
    corrupting = CorruptingLoop(**fields)
    rep = run.run_rep(corrupting, corrupting.default_seed, str(tmp_path), None)
    assert rep.output.failed_ops == corrupting.n_ops
    assert "differ from the dict replay" in rep.output.failure
    result = run_main(monkeypatch, corrupting, trace=0)
    assert result["failed"] > 0 and result["correct"] is False


def test_main_prints_the_metric_sets_of_benchmark_json(monkeypatch):
    specs = run.load_metric_specs()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_main(monkeypatch, TINY_SERVE, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [spec["name"] for spec in specs[key]]
        for spec in specs[key]:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert metric["value"] != 0, spec["name"]
