"""The BatchTracer: per-batch spans and Chrome ``trace_event`` export.

The accelerator's overlap model already computes, for every batch, the
cycle at which its SOUs begin (``Timeline.batch_start_cycles``) — the
tracer turns that timeline plus per-batch component cycles into spans:

* one **PCU combine** span per batch (overlapped under the previous
  batch's SOU work when ``enable_overlap`` is on),
* one span per **active SOU** (the batch's compute phase),
* one **HBM** span (the bandwidth-bound alternative to compute; the
  batch pays ``max(compute, bandwidth)``, so the two spans share a
  start cycle and the longer one is the critical path),
* one **sync** span (global-sync serialisation after compute),
* a **redispatch** span when ring failover billed cycles,
* a **durability** span (WAL + checkpoint) when a manager is attached.

Export is Chrome/Perfetto ``trace_event`` JSON (``ph: "X"`` complete
events, microsecond timestamps derived from the FPGA clock) — load it
at chrome://tracing or https://ui.perfetto.dev.  Everything, metadata
included, is derived from simulation cycles, so an export is a pure
function of the run and bit-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.batching import Timeline

#: Synthetic Chrome thread ids for the non-SOU tracks.  SOU ``s`` maps
#: to ``tid = TID_SOU_BASE + s``; the constants leave room for 63 SOUs.
TID_PCU = 0
TID_SOU_BASE = 1
TID_HBM = 64
TID_SYNC = 65
TID_REDISPATCH = 66
TID_DURABILITY = 67

_TRACE_PID = 1


@dataclass(slots=True)
class BatchSample:
    """Everything the accelerator knows about one batch's cycle bill."""

    batch_index: int
    n_ops: int
    pcu_cycles: int
    per_sou_cycles: Dict[int, int]
    compute_cycles: int
    bandwidth_cycles: int
    sync_cycles: int
    redispatch_cycles: int
    durability_cycles: int


@dataclass(slots=True)
class Span:
    """One rectangle on the trace: [start, start + duration) cycles."""

    name: str
    category: str
    tid: int
    start_cycle: int
    duration_cycles: int
    args: Dict[str, Any] = field(default_factory=dict)


class BatchTracer:
    """Records one :class:`BatchSample` per batch, renders spans lazily.

    Recording is a single guarded append per *batch* (not per op), so an
    attached tracer costs nothing measurable; with no tracer attached
    the accelerator's only extra work is one ``is not None`` test per
    batch.
    """

    def __init__(self) -> None:
        self.samples: List[BatchSample] = []
        self._timeline: Optional[Timeline] = None
        self._clock_hz: float = 0.0
        self._overlap: bool = True
        self._has_durability: bool = False

    def record_batch(self, sample: BatchSample) -> None:
        self.samples.append(sample)

    def finalize(
        self,
        timeline: Timeline,
        clock_hz: float,
        overlap: bool,
        has_durability: bool,
    ) -> None:
        """Attach the run's timeline; called once after the batch loop."""
        if len(timeline.batch_start_cycles) != len(self.samples):
            raise ValueError(
                "timeline has "
                f"{len(timeline.batch_start_cycles)} batch starts but the "
                f"tracer recorded {len(self.samples)} batches"
            )
        self._timeline = timeline
        self._clock_hz = clock_hz
        self._overlap = overlap
        self._has_durability = has_durability

    # ------------------------------------------------------------------
    # span construction
    # ------------------------------------------------------------------

    def _require_finalized(self) -> Timeline:
        if self._timeline is None:
            raise ValueError("BatchTracer.finalize() has not been called")
        return self._timeline

    def spans(self) -> List[Span]:
        """All spans, in batch order, start cycles from the timeline.

        Per batch the tracer always emits one PCU span, one span per
        active SOU, one HBM span, and one sync span (the latter two may
        have zero duration — they are kept so span counts are a pure
        function of batch count and SOU activity); a redispatch span
        appears only when failover billed cycles, and a durability span
        only when a manager was attached for the run.
        """
        timeline = self._require_finalized()
        starts = timeline.batch_start_cycles
        spans: List[Span] = []
        for i, sample in enumerate(self.samples):
            start = starts[i]
            # PCU combine: under overlap, batch 0 combines before the
            # clock starts and batch i+1 combines in the shadow of batch
            # i's SOU work; serially, batch i combines right before its
            # own SOUs start.
            if self._overlap:
                if i == 0:
                    combine_start = 0
                else:
                    combine_start = starts[i - 1]
            else:
                combine_start = start - sample.pcu_cycles
            spans.append(Span(
                name=f"combine batch {i}",
                category="pcu",
                tid=TID_PCU,
                start_cycle=combine_start,
                duration_cycles=sample.pcu_cycles,
                args={"batch": i, "ops": sample.n_ops},
            ))
            for sou_id in sorted(sample.per_sou_cycles):
                spans.append(Span(
                    name=f"batch {i}",
                    category="sou",
                    tid=TID_SOU_BASE + sou_id,
                    start_cycle=start,
                    duration_cycles=sample.per_sou_cycles[sou_id],
                    args={"batch": i, "sou": sou_id},
                ))
            spans.append(Span(
                name=f"batch {i}",
                category="hbm",
                tid=TID_HBM,
                start_cycle=start,
                duration_cycles=sample.bandwidth_cycles,
                args={"batch": i},
            ))
            tail = start + max(sample.compute_cycles, sample.bandwidth_cycles)
            spans.append(Span(
                name=f"batch {i}",
                category="sync",
                tid=TID_SYNC,
                start_cycle=tail,
                duration_cycles=sample.sync_cycles,
                args={"batch": i},
            ))
            tail += sample.sync_cycles
            if sample.redispatch_cycles > 0:
                spans.append(Span(
                    name=f"batch {i}",
                    category="redispatch",
                    tid=TID_REDISPATCH,
                    start_cycle=tail,
                    duration_cycles=sample.redispatch_cycles,
                    args={"batch": i},
                ))
            tail += sample.redispatch_cycles
            if self._has_durability:
                spans.append(Span(
                    name=f"batch {i}",
                    category="durability",
                    tid=TID_DURABILITY,
                    start_cycle=tail,
                    duration_cycles=sample.durability_cycles,
                    args={"batch": i},
                ))
        return spans

    def expected_span_count(self) -> int:
        """Span count as a pure function of the recorded samples."""
        count = 0
        for sample in self.samples:
            count += 3  # PCU + HBM + sync, always present
            count += len(sample.per_sou_cycles)
            if sample.redispatch_cycles > 0:
                count += 1
            if self._has_durability:
                count += 1
        return count

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def _track_names(self) -> Dict[int, str]:
        names = {TID_PCU: "PCU"}
        for sample in self.samples:
            for sou_id in sample.per_sou_cycles:
                names[TID_SOU_BASE + sou_id] = f"SOU {sou_id}"
        names[TID_HBM] = "HBM"
        names[TID_SYNC] = "Sync"
        names[TID_REDISPATCH] = "Redispatch"
        if self._has_durability:
            names[TID_DURABILITY] = "Durability"
        return names

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The run as a Chrome ``trace_event`` document."""
        self._require_finalized()
        us_per_cycle = 1e6 / self._clock_hz
        events: List[Dict[str, Any]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": _TRACE_PID,
            "args": {"name": "DCART"},
        }]
        for tid, label in sorted(self._track_names().items()):
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"name": label},
            })
            events.append({
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"sort_index": tid},
            })
        for span in self.spans():
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_cycle * us_per_cycle,
                "dur": span.duration_cycles * us_per_cycle,
                "pid": _TRACE_PID,
                "tid": span.tid,
                "args": dict(span.args, cycles=span.duration_cycles),
            })
        metadata: Dict[str, Any] = {
            "schema": "trace-export/v2",
            "clock_hz": self._clock_hz,
            "n_batches": len(self.samples),
            "overlap": self._overlap,
            "durability": self._has_durability,
        }
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def write(self, path: str) -> int:
        """Write the Chrome trace to ``path``; returns the event count."""
        doc = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
        return len(doc["traceEvents"])

    # ------------------------------------------------------------------
    # terminal summary
    # ------------------------------------------------------------------

    def summary_table(self) -> str:
        """Aligned per-track busy-cycle table for terminal output."""
        timeline = self._require_finalized()
        total = timeline.total_cycles
        busy: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for span in self.spans():
            busy[span.tid] = busy.get(span.tid, 0) + span.duration_cycles
            counts[span.tid] = counts.get(span.tid, 0) + 1
        names = self._track_names()
        rows = [("track", "spans", "busy cycles", "share")]
        for tid in sorted(busy):
            share = busy[tid] / total if total else 0.0
            rows.append((
                names.get(tid, f"tid {tid}"),
                str(counts[tid]),
                str(busy[tid]),
                f"{share:6.1%}",
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        lines = [
            f"batch timeline: {len(self.samples)} batches, "
            f"{total} cycles total "
            f"({total / self._clock_hz * 1e6:.1f} us @ "
            f"{self._clock_hz / 1e6:.0f} MHz)"
        ]
        for row in rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                .rstrip()
            )
        return "\n".join(lines)
