"""Property-based tests for the wave interleaving model."""

from hypothesis import given, settings, strategies as st

from repro.concurrency.waves import WaveSimulator

streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),   # target node
        st.booleans(),                             # is_write
        st.floats(min_value=1.0, max_value=500.0, allow_nan=False),  # cost
    ),
    max_size=200,
)


def unpack(stream):
    targets = [t for t, _, _ in stream]
    writes = [w for _, w, _ in stream]
    costs = [c for _, _, c in stream]
    holds = [min(c, 30.0) for c in costs]
    return targets, writes, costs, holds


@given(streams, st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_report_invariants(stream, window):
    sim = WaveSimulator(n_workers=8, window=window, contention_penalty_ns=100.0)
    targets, writes, costs, holds = unpack(stream)
    report = sim.run(targets, writes, costs, holds)
    assert report.n_ops == len(stream)
    assert 0 <= report.contentions <= max(0, len(stream) - 1)
    assert report.conflicted_ops >= report.contentions
    assert report.serialization_seconds >= 0
    assert report.parallel_seconds >= 0
    assert len(report.latencies_ns) == len(stream)
    # Latency is never below the op's own service time.
    for latency, cost in zip(report.latencies_ns, costs):
        assert latency >= cost - 1e-9


@given(streams)
@settings(max_examples=60, deadline=None)
def test_no_writers_no_conflicts(stream):
    sim = WaveSimulator(n_workers=8, window=32, contention_penalty_ns=100.0)
    targets, _, costs, holds = unpack(stream)
    report = sim.run(targets, [False] * len(stream), costs, holds)
    assert report.contentions == 0
    assert report.serialization_seconds == 0.0


@given(streams)
@settings(max_examples=60, deadline=None)
def test_window_partitioning_conserves_ops(stream):
    targets, writes, costs, holds = unpack(stream)
    for window in (1, 7, 200):
        report = WaveSimulator(4, window, 50.0).run(targets, writes, costs, holds)
        expected_windows = -(-len(stream) // window) if stream else 0
        assert report.n_windows == expected_windows


@given(streams)
@settings(max_examples=60, deadline=None)
def test_more_workers_never_slower(stream):
    targets, writes, costs, holds = unpack(stream)
    few = WaveSimulator(2, 32, 100.0).run(targets, writes, costs, holds)
    many = WaveSimulator(64, 32, 100.0).run(targets, writes, costs, holds)
    assert many.total_seconds <= few.total_seconds + 1e-15


@given(streams)
@settings(max_examples=40, deadline=None)
def test_window_one_serialises_nothing(stream):
    # A window of one op can never conflict with anything.
    targets, writes, costs, holds = unpack(stream)
    report = WaveSimulator(4, 1, 100.0).run(targets, writes, costs, holds)
    assert report.contentions == 0
