"""The MetricsRegistry: named counters, gauges, and histograms.

Every hardware unit of the DCART model (PCU, Dispatcher, the SOUs, the
Shortcut_Table, the Tree_buffers, the memsim cache, the
DurabilityManager) exposes a ``report_metrics(registry)`` hook that
writes its counters here once per run, replacing the ad-hoc
``RunResult.extra`` plumbing.  ``extra`` survives as a *view* over the
registry (:data:`EXTRA_VIEW` / :func:`extra_view`): the accelerator
derives the legacy keys from registry entries, so the two can never
drift and telemetry being attached or not cannot change a result.

Design constraints:

* **Deterministic** — values come only from simulation state;
  serialisation sorts by name.  No wall-clock, no RNG.
* **Near-zero overhead** — components report once per run (a few dozen
  dict writes), never per operation; the accelerator's hot loop does
  not touch the registry at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Union

from repro.errors import ConfigError

Number = Union[int, float]


@dataclass
class Histogram:
    """Streaming summary of an observed distribution (no buckets).

    Count / sum / min / max are enough for the per-batch cycle
    distributions the tracer summarises; full percentile work belongs to
    ``RunResult.latencies_ns``, which already exists.
    """

    count: int = 0
    total: float = 0.0
    min_value: float = 0.0
    max_value: float = 0.0

    def observe(self, value: Number) -> None:
        if self.count == 0:
            self.min_value = self.max_value = float(value)
        else:
            if value < self.min_value:
                self.min_value = float(value)
            if value > self.max_value:
                self.max_value = float(value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def as_dict(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A flat, name-keyed store of counters, gauges, and histograms.

    Names are dotted paths (``sou.3.stage.traverse.traversals``); a name
    belongs to exactly one kind — re-using a counter name as a gauge is
    a :class:`~repro.errors.ConfigError`, not a silent overwrite.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Number] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # writers
    # ------------------------------------------------------------------

    def counter(self, name: str, amount: int = 1) -> int:
        """Accumulate ``amount`` into counter ``name`` (created at 0).

        ``amount`` may be 0 — that still registers the counter, so a
        run always exposes the full metric set even when nothing fired.
        """
        self._check_kind(name, self._counters)
        value = self._counters.get(name, 0) + amount
        self._counters[name] = value
        return value

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._check_kind(name, self._gauges)
        self._gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        """Add one observation to histogram ``name`` (created empty)."""
        self._check_kind(name, self._histograms)
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def _check_kind(self, name: str, own: Mapping[str, object]) -> None:
        for store in (self._counters, self._gauges, self._histograms):
            if store is not own and name in store:
                raise ConfigError(
                    f"metric {name!r} already registered with a different kind"
                )

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )

    def get(self, name: str) -> Number:
        """Value of a counter or gauge (histograms via :meth:`histogram`)."""
        if name in self._counters:
            return self._counters[name]
        if name in self._gauges:
            return self._gauges[name]
        raise KeyError(name)

    def histogram(self, name: str) -> Histogram:
        return self._histograms[name]

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Nested, name-sorted snapshot (stable for JSON/golden use)."""
        counters: Dict[str, object] = {
            k: self._counters[k] for k in sorted(self._counters)
        }
        gauges: Dict[str, object] = {
            k: self._gauges[k] for k in sorted(self._gauges)
        }
        histograms: Dict[str, object] = {
            k: self._histograms[k].as_dict()
            for k in sorted(self._histograms)
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


#: ``RunResult.extra`` key -> registry metric name.  The accelerator
#: registers every metric on the right-hand side each run, then builds
#: ``extra`` from the registry through :func:`extra_view` — extra *is*
#: a view, so telemetry cannot diverge from the legacy counters.
EXTRA_VIEW: Dict[str, str] = {
    "prefix_byte_offset": "run.prefix_byte_offset",
    "tree_buffer_hit_rate": "tree_buffer.hit_rate",
    "shortcut_buffer_hit_rate": "shortcut_table.buffer_hit_rate",
    "shortcut_entries": "shortcut_table.entries",
    "stale_shortcuts": "shortcut_table.stale_hits",
    "stale_shortcut_repairs": "sou.stale_shortcut_repairs",
    "shortcut_hits": "sou.shortcut_hits",
    "shortcut_misses": "sou.shortcut_misses",
    "traversals": "sou.traversals",
    "hidden_pcu_cycles": "run.hidden_pcu_cycles",
    "overlap_efficiency": "run.overlap_efficiency",
    "total_cycles": "run.total_cycles",
    "offchip_lines": "hbm.offchip_lines",
    "global_sync_ops": "sync.global_ops",
    "spilled_bytes": "pcu.spilled_bytes",
}


def extra_view(registry: MetricsRegistry) -> Dict[str, Number]:
    """The legacy ``RunResult.extra`` keys, read out of the registry."""
    return {key: registry.get(name) for key, name in EXTRA_VIEW.items()}
