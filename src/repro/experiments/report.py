"""Campaign reports: regenerate EXPERIMENTS.md (and HTML) from the store.

The report is built in two stages so it stays testable and the lint
schema contract stays honest:

* :func:`build_report` — pure data: reads the campaign's cells out of
  the store and folds the seed-repeats of every (engine, workload,
  fault) group into one row — best-of-N throughput (with the winning
  seed named, so any single cell is re-runnable), median across
  repeats, energy and p99 at the best run, and a Mann–Whitney
  significance verdict against the spec's baseline engine
  (:mod:`repro.experiments.stats`), plus a fault row's ``verdict``;
* :func:`render_markdown` / :func:`render_html` — formatting only, no
  store access and no arithmetic beyond printf.

Determinism: the report document contains nothing wall-clock unless the
caller stamps it (``created_at``/``git_sha`` are inputs), so under
``--no-stamp`` the same store produces byte-identical Markdown and HTML
— which is what lets CI diff a regenerated EXPERIMENTS.md against the
committed one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.campaign import expand_spec
from repro.experiments.spec import CRASH_FAULT, NO_FAULT, CampaignSpec, parse_fault
from repro.experiments.stats import ALPHA, mann_whitney_u, median
from repro.experiments.store import ResultStore
from repro.harness import resilience

#: Markdown banner: the one rule about the generated file.
GENERATED_BANNER = (
    "<!-- GENERATED FILE - do not hand-edit. "
    "Regenerate with: repro campaign report -->"
)


def _cell_key(engine: str, workload: str, seed: int, fault: str) -> str:
    return f"{engine}/{workload}/seed={seed}/{fault}"


def _crash_verdict(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Recovery trials of a ``crash`` row: counts, and every trial."""
    return {
        "trials": len(runs),
        "exact": sum(1 for r in runs if r["state_matches"]),
        "tree_valid": sum(1 for r in runs if r["cell"]["tree_valid"]),
        "ok": all(r["ok"] for r in runs),
        "runs": [
            {k: v for k, v in r.items() if k not in ("cell", "_seed")}
            for r in runs
        ],
    }


def _fault_verdict(
    spec: CampaignSpec, cells: Dict[str, Dict[str, object]], fault: str,
    engine: str, workload: str, runs: List[Dict[str, object]],
) -> Dict[str, object]:
    """Worst-seed degradation against the ``none`` cells of the same
    engine, workload and seed (``None`` when there are none)."""
    proportional = resilience.proportional_loss_ratio(
        resilience.chaos_config(spec.n_keys).n_sous,
        int(parse_fault(fault).get("sou-failstop") or 0),
    )
    degradations: Dict[int, float] = {}
    for run in runs:
        seed = int(run["_seed"])
        healthy = cells.get(_cell_key(engine, workload, seed, NO_FAULT))
        if healthy is not None and healthy["status"] == "ok":
            degradations[seed] = resilience.degradation_ratio(
                float(healthy["payload"]["throughput_mops"]),
                float(run["throughput_mops"]),
            )
    worst = max(degradations, key=degradations.__getitem__, default=None)
    degradation = degradations.get(worst)
    tree_valid = all(run["cell"]["tree_valid"] for run in runs)
    return {
        "degradation": degradation,
        "worst_seed": worst,
        "proportional_loss": proportional,
        "tree_valid": tree_valid,
        "graceful": degradation is not None
        and resilience.is_graceful(tree_valid, degradation, proportional),
    }


def _group_rows(
    spec: CampaignSpec, cells: Dict[str, Dict[str, object]]
) -> Tuple[List[Dict[str, object]], List[str], List[str]]:
    """Fold per-seed cells into per-(fault, workload, engine) rows."""
    rows: List[Dict[str, object]] = []
    missing: List[str] = []
    errors: List[str] = []
    baseline_rates: Dict[Tuple[str, str], List[float]] = {}

    for fault in spec.faults:
        for workload in spec.workloads:
            for engine in spec.engines:
                runs: List[Dict[str, object]] = []
                for seed in spec.seeds:
                    key = _cell_key(engine, workload, seed, fault)
                    cell = cells.get(key)
                    if cell is None:
                        missing.append(key)
                        continue
                    if cell["status"] != "ok":
                        errors.append(key)
                        continue
                    payload = dict(cell["payload"])  # type: ignore[arg-type]
                    payload["_seed"] = seed
                    runs.append(payload)
                if not runs:
                    continue
                if fault == CRASH_FAULT:  # no throughput: trials instead
                    rows.append(dict(
                        fault=fault, workload=workload, engine=engine,
                        n=len(runs), seeds=[int(r["_seed"]) for r in runs],
                        verdict=_crash_verdict(runs),
                    ))
                    continue
                rates = [float(r["throughput_mops"]) for r in runs]
                best = max(
                    runs, key=lambda r: float(r["throughput_mops"])
                )
                latency = best.get("latency") or {}
                row = {
                    "fault": fault,
                    "workload": workload,
                    "engine": engine,
                    "n": len(runs),
                    "seeds": [int(r["_seed"]) for r in runs],
                    "best_throughput_mops": float(best["throughput_mops"]),
                    "best_seed": int(best["_seed"]),
                    "median_throughput_mops": median(rates),
                    "best_energy_joules": float(best["energy_joules"]),
                    "best_p99_us": latency.get("p99_us"),
                    "rates": rates,
                }
                if fault != NO_FAULT:
                    row["verdict"] = _fault_verdict(
                        spec, cells, fault, engine, workload, runs
                    )
                if engine == spec.baseline_engine:
                    baseline_rates[(fault, workload)] = rates
                rows.append(row)

    for row in rows:
        if "rates" not in row:  # a crash row has no throughput to test
            continue
        base = baseline_rates.get((row["fault"], row["workload"]))
        if row["engine"] == spec.baseline_engine or not base:
            row["vs_baseline"] = None
            continue
        test = mann_whitney_u(row["rates"], base)
        base_median = median(base)
        speedup = (
            row["median_throughput_mops"] / base_median
            if base_median > 0
            else float("inf")
        )
        row["vs_baseline"] = {
            "speedup_median": speedup,
            "u": test["u"],
            "p": test["p"],
            "significant": test["p"] < ALPHA,
        }
    for row in rows:
        row.pop("rates", None)
    return rows, missing, errors


def build_report(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    git_sha: str,
    mode: str = "full",
    created_at: str = "",
) -> Dict[str, object]:
    """The campaign's report document (pure data, renderers format it)."""
    spec_hash = spec.content_hash()
    cells = store.get_cells(spec_hash, git_sha, mode)
    expected = {cell.key() for cell in expand_spec(spec)}
    stray = sorted(set(cells) - expected)
    if stray:
        raise ConfigError(
            f"store holds cells outside the spec's grid (spec/store "
            f"mismatch): {', '.join(stray[:5])}"
        )
    rows, missing, errors = _group_rows(spec, cells)
    return {
        "schema": "campaign-report/v1",
        "campaign": spec.name,
        "spec_hash": spec_hash,
        "git_sha": git_sha,
        "mode": mode,
        "created_at": created_at,
        "spec": spec.to_dict(),
        "methodology": {
            "repeats": len(spec.seeds),
            "selection": "best-of-N over seed repeats",
            "significance": (
                f"two-sided Mann-Whitney U vs {spec.baseline_engine}, "
                f"alpha={ALPHA:g}"
            ),
        },
        "rows": rows,
        "missing_cells": sorted(missing),
        "error_cells": sorted(errors),
        "complete": not missing and not errors,
    }


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _fmt(value: Optional[float], precision: int = 3) -> str:
    if value is None:
        return "-"
    return f"{value:.{precision}f}"


def _verdict(row: Dict[str, object]) -> str:
    vs = row.get("vs_baseline")
    if vs is None:
        return "baseline"
    mark = "*" if vs["significant"] else "n/s"
    return f"{vs['speedup_median']:.2f}x (p={vs['p']:.3f}, {mark})"


def _fault_title(fault: str) -> str:
    return "healthy" if fault == "none" else f"fault: {fault}"


def _fault_verdict_text(row: Dict[str, object]) -> str:
    """The extra column of a fault table."""
    verdict = row["verdict"]
    if "trials" in verdict:
        return (
            f"{verdict['exact']}/{verdict['trials']} EXACT, "
            f"{verdict['tree_valid']}/{verdict['trials']} tree valid"
        )
    return (
        f"degradation {_fmt(verdict['degradation'], 2)} vs proportional "
        f"{verdict['proportional_loss']:.2f}, tree "
        + ("ok, " if verdict["tree_valid"] else "BROKEN, ")
        + ("graceful" if verdict["graceful"] else "NOT graceful")
    )


def render_markdown(report: Dict[str, object]) -> str:
    """The campaign report as Markdown (the EXPERIMENTS.md payload)."""
    spec = report["spec"]
    lines = [
        GENERATED_BANNER,
        "",
        f"# Campaign report: {report['campaign']}",
        "",
        f"- spec hash: `{report['spec_hash']}`",
        f"- git SHA: `{report['git_sha']}`"
        + (f" · generated {report['created_at']}" if report["created_at"] else ""),
        f"- mode: `{report['mode']}`",
        f"- scale: {spec['n_keys']:,} keys, {spec['n_ops']:,} ops",
        f"- repeats: {report['methodology']['repeats']} seed(s): "
        f"{', '.join(str(s) for s in spec['seeds'])}",
        f"- selection: {report['methodology']['selection']}",
        f"- significance: {report['methodology']['significance']} "
        f"(`*` significant, `n/s` not significant)",
        "",
    ]
    if not report["complete"]:
        lines.append("> **Incomplete campaign** - "
                     f"{len(report['missing_cells'])} missing, "
                     f"{len(report['error_cells'])} failed cell(s). "
                     "Re-run `repro campaign run` to fill the grid.")
        lines.append("")

    header = (
        "| engine | best Mops/s | (seed) | median Mops/s | "
        "energy J (best) | p99 us (best) | vs baseline |"
    )
    divider = "|---|---:|---:|---:|---:|---:|---|"
    rows: List[Dict[str, object]] = report["rows"]  # type: ignore[assignment]
    for fault in spec["faults"]:
        for workload in spec["workloads"]:
            group = [
                r for r in rows
                if r["fault"] == fault and r["workload"] == workload
            ]
            if not group:
                continue
            faulted = fault != NO_FAULT
            lines.append(f"## {workload} ({_fault_title(fault)})")
            lines.append("")
            lines.append(header + (" fault verdict |" if faulted else ""))
            lines.append(divider + ("---|" if faulted else ""))
            for row in group:
                lines.append(
                    f"| {row['engine']} "
                    f"| {_fmt(row.get('best_throughput_mops'))} "
                    f"| {row.get('best_seed', '-')} "
                    f"| {_fmt(row.get('median_throughput_mops'))} "
                    f"| {_fmt(row.get('best_energy_joules'), 4)} "
                    f"| {_fmt(row.get('best_p99_us'), 2)} "
                    f"| {_verdict(row)} |"
                    + (f" {_fault_verdict_text(row)} |" if faulted else "")
                )
            lines.append("")
    if report["error_cells"]:
        lines.append("### Failed cells")
        lines.append("")
        for key in report["error_cells"]:
            lines.append(f"- `{key}`")
        lines.append("")
    lines.append(
        "_Methodology: every cell is one fully deterministic simulated "
        "run; per-seed cells are stored individually in the campaign "
        "store, so each number above is reproducible by re-running its "
        "(engine, workload, seed, fault) cell._"
    )
    lines.append("")
    return "\n".join(lines)


def _html_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_html(report: Dict[str, object]) -> str:
    """A self-contained HTML twin of the Markdown report (CI artifact)."""
    spec = report["spec"]
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Campaign: {_html_escape(str(report['campaign']))}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;max-width:70em}",
        "table{border-collapse:collapse;margin:1em 0}",
        "td,th{border:1px solid #999;padding:0.3em 0.6em;"
        "text-align:right}",
        "td:first-child,th:first-child{text-align:left}",
        "caption{font-weight:bold;text-align:left;padding:0.3em 0}",
        ".sig{color:#0a0}.meta{color:#555}",
        "</style></head><body>",
        f"<h1>Campaign report: "
        f"{_html_escape(str(report['campaign']))}</h1>",
        "<p class='meta'>"
        f"spec hash <code>{report['spec_hash']}</code> · "
        f"git <code>{_html_escape(str(report['git_sha']))}</code> · "
        f"mode <code>{_html_escape(str(report['mode']))}</code> · "
        f"{spec['n_keys']:,} keys / {spec['n_ops']:,} ops · "
        f"{report['methodology']['repeats']} repeat(s)"
        + (f" · {report['created_at']}" if report["created_at"] else "")
        + "</p>",
        f"<p class='meta'>{_html_escape(str(report['methodology']['significance']))}</p>",
    ]
    if not report["complete"]:
        parts.append(
            f"<p><strong>Incomplete:</strong> "
            f"{len(report['missing_cells'])} missing, "
            f"{len(report['error_cells'])} failed cell(s).</p>"
        )
    rows: List[Dict[str, object]] = report["rows"]  # type: ignore[assignment]
    for fault in spec["faults"]:
        for workload in spec["workloads"]:
            group = [
                r for r in rows
                if r["fault"] == fault and r["workload"] == workload
            ]
            if not group:
                continue
            parts.append("<table>")
            parts.append(
                f"<caption>{_html_escape(str(workload))} "
                f"({_html_escape(_fault_title(str(fault)))})</caption>"
            )
            faulted = fault != NO_FAULT
            parts.append(
                "<tr><th>engine</th><th>best Mops/s</th><th>seed</th>"
                "<th>median Mops/s</th><th>energy J</th>"
                "<th>p99 &micro;s</th><th>vs baseline</th>"
                + ("<th>fault verdict</th>" if faulted else "")
                + "</tr>"
            )
            for row in group:
                vs = row.get("vs_baseline")
                verdict = _html_escape(_verdict(row))
                if vs is not None and vs["significant"]:
                    verdict = f"<span class='sig'>{verdict}</span>"
                parts.append(
                    "<tr>"
                    f"<td>{_html_escape(str(row['engine']))}</td>"
                    f"<td>{_fmt(row.get('best_throughput_mops'))}</td>"
                    f"<td>{row.get('best_seed', '-')}</td>"
                    f"<td>{_fmt(row.get('median_throughput_mops'))}</td>"
                    f"<td>{_fmt(row.get('best_energy_joules'), 4)}</td>"
                    f"<td>{_fmt(row.get('best_p99_us'), 2)}</td>"
                    f"<td>{verdict}</td>"
                    + (f"<td>{_html_escape(_fault_verdict_text(row))}</td>"
                       if faulted else "")
                    + "</tr>"
                )
            parts.append("</table>")
    if report["error_cells"]:
        parts.append("<h2>Failed cells</h2><ul>")
        for key in report["error_cells"]:
            parts.append(f"<li><code>{_html_escape(str(key))}</code></li>")
        parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
