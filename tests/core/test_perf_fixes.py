"""Tests pinning the perf-PR semantic fixes.

Behaviours guarded here:

* ``hbm_bandwidth_cycles`` bills fractional HBM cycles as whole cycles
  (ceil) instead of silently rounding tiny batches to zero.
* Vectorised bucketing matches the scalar prefix extractor.
"""

from hypothesis import given, settings, strategies as st

from repro.core.accelerator import hbm_bandwidth_cycles


class TestBandwidthRounding:
    def test_fractional_cycle_bills_one(self):
        # 64 bytes at 460 GB/s and 230 MHz is ~0.032 cycles: must be 1.
        assert hbm_bandwidth_cycles(64, 460.0, 230e6) == 1

    def test_single_byte_bills_one(self):
        assert hbm_bandwidth_cycles(1, 460.0, 230e6) == 1

    def test_zero_bytes_bills_zero(self):
        assert hbm_bandwidth_cycles(0, 460.0, 230e6) == 0

    def test_exact_cycle_not_inflated(self):
        # 2000 bytes at 1 GB/s, 500 MHz -> exactly 1000 cycles.
        assert hbm_bandwidth_cycles(2000, 1.0, 500e6) == 1000

    def test_ceil_not_floor(self):
        # 2001 bytes -> 1000.5 cycles -> 1001, where int() gave 1000.
        assert hbm_bandwidth_cycles(2001, 1.0, 500e6) == 1001


class TestVectorisedBucketing:
    @given(
        st.lists(st.binary(min_size=0, max_size=12), max_size=200),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=100, deadline=None)
    def test_buckets_for_matches_scalar(self, keys, offset, n_buckets):
        from repro.core.prefixing import PrefixExtractor

        extractor = PrefixExtractor(byte_offset=offset, n_buckets=n_buckets)
        batch = extractor.buckets_for(keys)
        assert list(batch) == [extractor.bucket(key) for key in keys]
