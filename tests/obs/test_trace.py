"""Tests for the BatchTracer and its Chrome trace_event export."""

import json

import pytest

from repro.core.batching import overlap_timeline
from repro.obs import BatchSample, BatchTracer
from repro.obs.trace import (
    TID_DURABILITY,
    TID_HBM,
    TID_PCU,
    TID_REDISPATCH,
    TID_SOU_BASE,
    TID_SYNC,
)

CLOCK_HZ = 230e6
US_PER_CYCLE = 1e6 / CLOCK_HZ


def make_sample(i, per_sou, pcu=10, bandwidth=4, sync=3, redispatch=0, durability=0):
    return BatchSample(
        batch_index=i,
        n_ops=sum(per_sou.values()),
        pcu_cycles=pcu,
        per_sou_cycles=dict(per_sou),
        compute_cycles=max(per_sou.values()) if per_sou else 0,
        bandwidth_cycles=bandwidth,
        sync_cycles=sync,
        redispatch_cycles=redispatch,
        durability_cycles=durability,
    )


def traced_run(samples, overlap=True, has_durability=False):
    """Build a tracer + consistent timeline for hand-made samples."""
    tracer = BatchTracer()
    pcu = []
    sou = []
    for sample in samples:
        tracer.record_batch(sample)
        pcu.append(sample.pcu_cycles)
        sou.append(
            max(sample.compute_cycles, sample.bandwidth_cycles)
            + sample.sync_cycles
            + sample.redispatch_cycles
            + sample.durability_cycles
        )
    timeline = overlap_timeline(pcu, sou, enabled=overlap)
    tracer.finalize(
        timeline,
        clock_hz=CLOCK_HZ,
        overlap=overlap,
        has_durability=has_durability,
    )
    return tracer, timeline


class TestSpanConstruction:
    def test_span_count_matches_formula(self):
        samples = [
            make_sample(0, {0: 5, 1: 7}),
            make_sample(1, {2: 6}, redispatch=4),
            make_sample(2, {0: 3, 1: 2, 2: 1}),
        ]
        tracer, _ = traced_run(samples)
        spans = tracer.spans()
        # Per batch: PCU + HBM + sync (always) + active SOUs + redispatch.
        expected = (3 + 2) + (3 + 1 + 1) + (3 + 3)
        assert len(spans) == expected
        assert tracer.expected_span_count() == expected

    def test_durability_adds_one_span_per_batch(self):
        samples = [make_sample(0, {0: 5}, durability=9)]
        tracer, _ = traced_run(samples, has_durability=True)
        spans = tracer.spans()
        assert len(spans) == 3 + 1 + 1
        dur = [s for s in spans if s.tid == TID_DURABILITY]
        assert len(dur) == 1
        assert dur[0].duration_cycles == 9

    def test_sou_spans_start_at_timeline_batch_starts(self):
        samples = [make_sample(0, {0: 50}), make_sample(1, {1: 20})]
        tracer, timeline = traced_run(samples)
        starts = timeline.batch_start_cycles
        sou_spans = [s for s in tracer.spans() if s.tid >= TID_SOU_BASE
                     and s.tid < TID_HBM]
        assert [s.start_cycle for s in sou_spans] == starts

    def test_overlap_pcu_combine_shadows_previous_batch(self):
        samples = [make_sample(0, {0: 50}), make_sample(1, {1: 20})]
        tracer, timeline = traced_run(samples, overlap=True)
        pcu_spans = [s for s in tracer.spans() if s.tid == TID_PCU]
        # Batch 0 combines before the clock starts; batch 1 combines in
        # the shadow of batch 0's SOU work.
        assert pcu_spans[0].start_cycle == 0
        assert pcu_spans[1].start_cycle == timeline.batch_start_cycles[0]

    def test_serial_pcu_combine_precedes_own_batch(self):
        samples = [make_sample(0, {0: 50}), make_sample(1, {1: 20})]
        tracer, timeline = traced_run(samples, overlap=False)
        pcu_spans = [s for s in tracer.spans() if s.tid == TID_PCU]
        for span, start in zip(pcu_spans, timeline.batch_start_cycles):
            assert span.start_cycle + span.duration_cycles == start

    def test_sync_follows_slower_of_compute_and_hbm(self):
        sample = make_sample(0, {0: 5}, bandwidth=40, sync=3)
        tracer, timeline = traced_run([sample])
        sync = [s for s in tracer.spans() if s.tid == TID_SYNC][0]
        start = timeline.batch_start_cycles[0]
        assert sync.start_cycle == start + 40  # bandwidth-bound batch

    def test_zero_duration_hbm_and_sync_spans_kept(self):
        sample = make_sample(0, {0: 5}, bandwidth=0, sync=0)
        tracer, _ = traced_run([sample])
        tids = [s.tid for s in tracer.spans()]
        assert TID_HBM in tids and TID_SYNC in tids

    def test_redispatch_span_only_when_billed(self):
        tracer, _ = traced_run([make_sample(0, {0: 5})])
        assert TID_REDISPATCH not in [s.tid for s in tracer.spans()]

    def test_finalize_validates_sample_count(self):
        tracer = BatchTracer()
        tracer.record_batch(make_sample(0, {0: 5}))
        timeline = overlap_timeline([1, 1], [1, 1], enabled=True)
        with pytest.raises(ValueError):
            tracer.finalize(timeline, CLOCK_HZ, True, False)

    def test_spans_before_finalize_rejected(self):
        with pytest.raises(ValueError):
            BatchTracer().spans()


class TestChromeExport:
    def _doc(self):
        samples = [
            make_sample(0, {0: 5, 3: 7}),
            make_sample(1, {1: 6}, redispatch=2, durability=4),
        ]
        tracer, _ = traced_run(samples, has_durability=True)
        return tracer, tracer.to_chrome_trace()

    def test_document_shape(self):
        _, doc = self._doc()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["n_batches"] == 2
        assert doc["otherData"]["durability"] is True

    def test_event_schema(self):
        tracer, doc = self._doc()
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == tracer.expected_span_count()
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["args"]["cycles"] >= 0

    def test_metadata_tracks_named_and_sorted(self):
        _, doc = self._doc()
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[TID_PCU] == "PCU"
        assert names[TID_SOU_BASE + 3] == "SOU 3"
        assert names[TID_HBM] == "HBM"
        assert names[TID_DURABILITY] == "Durability"

    def test_timestamps_scale_with_clock(self):
        samples = [make_sample(0, {0: 50}), make_sample(1, {1: 20})]
        tracer, timeline = traced_run(samples)
        doc = tracer.to_chrome_trace()
        sou_events = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "sou"
        ]
        for event, start in zip(sou_events, timeline.batch_start_cycles):
            assert event["ts"] == pytest.approx(start * US_PER_CYCLE)

    def test_unstamped_export_is_deterministic(self):
        a_tracer, _ = traced_run([make_sample(0, {0: 5})])
        b_tracer, _ = traced_run([make_sample(0, {0: 5})])
        a = json.dumps(a_tracer.to_chrome_trace(), sort_keys=True)
        b = json.dumps(b_tracer.to_chrome_trace(), sort_keys=True)
        assert a == b
        assert "exported_at" not in a

    def test_write_roundtrip(self, tmp_path):
        tracer, _ = traced_run([make_sample(0, {0: 5})])
        path = tmp_path / "trace.json"
        count = tracer.write(str(path))
        with open(path) as handle:
            doc = json.load(handle)
        assert len(doc["traceEvents"]) == count
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == tracer.expected_span_count()


class TestSummaryTable:
    def test_mentions_every_track(self):
        samples = [make_sample(0, {0: 5, 2: 7}, redispatch=3)]
        tracer, _ = traced_run(samples)
        text = tracer.summary_table()
        for token in ("PCU", "SOU 0", "SOU 2", "HBM", "Sync", "Redispatch"):
            assert token in text
        assert "1 batches" in text
